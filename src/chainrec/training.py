"""Joint optimization: negative sampling, exact gradients of the model's
objective via the tape, Adam updates, and the epoch loop with scheduled
evaluation and early stopping.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import evaluation
from .config import RunConfig
from .graph import (DatasetSplit, MultiplexBipartiteGraph, sorted_contains,
                    stream_rng, training_graph)
from .model import DualChannelModel, ModelParams, TrainBatch, TrainingAbort

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class NegativeSamplingError(ValueError):
    """A user's positives cover every item, so no negative can be drawn."""


class TripleSampler:
    """Per-step triples; each context's positives are sorted pair keys u*N+v."""

    # ``_negatives`` searches for all draws first, then for twice the misses
    # the last search took and at least NEG_WINDOW draws, so a batch costs
    # O(batch + hits x NEG_WINDOW) key searches, not O(hits x batch)
    NEG_WINDOW = 64

    def __init__(self, model: DualChannelModel, split: DatasetSplit, seed: int,
                 neg_cap: int = 100):  # perfbench passes it until ROADMAP item 2
        self.model = model
        self.num_items = model.graph.num_items
        self.neg_cap = neg_cap
        self.rng = stream_rng(seed, "negatives")
        self.shuffle_rng = stream_rng(seed, "shuffle")

        self.target_u, self.target_v = split.train_pairs(model.schema.target)
        # a chain's pairs are all target pairs, so no chain context saturates
        full = np.flatnonzero(np.bincount(self.target_u) >= self.num_items)
        if full.size:
            user = model.graph.user_ids[full[0]] if model.graph.user_ids else int(full[0])
            raise NegativeSamplingError(f"user {user} has {model.schema.target!r} training pairs "
                                        f"with every item, so no negative item can be sampled")
        n = np.int64(model.graph.num_nodes)
        self.target_keys = self.target_u * n + self.target_v

        self.chain_keys = {}
        for i, chain in enumerate(model.chains):
            u, v = model.patterns.pairs(chain.pattern)
            if u.size == 0:
                log.info("chain %s has no exact-pattern training edges; skipped",
                         chain.label())
                continue
            self.chain_keys[i] = u * n + v

    def _negatives(self, users: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """A uniform item per user with no pair in the sorted ``keys``, drawn
        as a per-triple loop would: until a miss, or after ``neg_cap`` hits in
        a row from the allowed items. All triples' draws are made at once and
        searched for in windows (see ``NEG_WINDOW``). A hit is dropped, the
        draws after it move one triple on, and one new draw joins the end.
        See README on why the stream is the loop's until a cap pick."""
        n, base, count = self.model.graph.num_nodes, self.model.graph.num_users, users.shape[0]
        out = np.empty(count, dtype=np.int64)
        items = base + self.rng.integers(self.num_items, size=count)
        done = hits = 0
        window = count
        while done < count:
            hit = sorted_contains(keys, users[done:done + window] * n + items[:window])
            h = int(hit.argmax()) if hit.any() else hit.shape[0]
            out[done:done + h] = items[:h]
            done += h
            window = max(2 * h, self.NEG_WINDOW)
            if h == hit.shape[0]:
                hits, items = 0, items[h:]
                continue
            hits = hits + 1 if h == 0 else 1
            if hits < self.neg_cap:
                items = np.append(items[h + 1:], base + self.rng.integers(self.num_items))
            else:
                pool = np.arange(base, n)
                allowed = pool[~sorted_contains(keys, users[done] * n + pool)]
                out[done] = allowed[self.rng.integers(allowed.shape[0])]
                done, hits, items = done + 1, 0, items[h + 1:]
        return out

    def batch_for(self, idx: np.ndarray) -> TrainBatch:
        users = self.target_u[idx]
        neg = self._negatives(users, self.target_keys)
        n = self.model.graph.num_nodes
        chain_triples = {}
        for i, keys in self.chain_keys.items():
            cu, cp = np.divmod(keys[self.rng.integers(keys.shape[0], size=len(idx))], n)
            chain_triples[i] = (cu, cp, self._negatives(cu, keys))
        return TrainBatch(users=users, pos=self.target_v[idx], neg=neg,
                          chain_triples=chain_triples)

    def epoch_batches(self, batch_size: int):
        perm = self.shuffle_rng.permutation(self.target_u.shape[0])
        for start in range(0, perm.shape[0], batch_size):
            yield self.batch_for(perm[start:start + batch_size])

    def get_state(self) -> dict:
        return {"negatives": self.rng.bit_generator.state,
                "shuffle": self.shuffle_rng.bit_generator.state}

    def set_state(self, state: dict) -> None:
        self.rng.bit_generator.state = state["negatives"]
        self.shuffle_rng.bit_generator.state = state["shuffle"]


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def backward(model: DualChannelModel, params: ModelParams, batch: TrainBatch):
    """Exact gradients of the objective for every parameter tensor."""
    pvars = params.as_vars()
    loss, breakdown = model.total_loss(pvars, batch)
    ad.backward(loss)
    return {name: var.grad if var.grad is not None else np.zeros_like(var.value)
            for name, var in pvars.items()}, breakdown


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def init(cls, params: ModelParams) -> "AdamState":
        return cls(m={k: np.zeros_like(x) for k, x in params.tensors.items()},
                   v={k: np.zeros_like(x) for k, x in params.tensors.items()})


# Rows per adam_step block: at d = 64 the block's parameter, moments,
# gradient and buffers stay cache-sized across the update's dozen passes,
# which halves its time on a 28k-row table against whole-table passes.
ADAM_BLOCK_ROWS = 512
# Adam's moment decay rates and denominator guard (Kingma and Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(params: ModelParams, grads: dict, state: AdamState, lr: float):
    """Standard bias-corrected Adam update, in place. A non-finite gradient
    aborts before any parameter, moment or the step count changes."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingAbort(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    t = state.t
    for name, g in grads.items():
        p, m, v = params.tensors[name], state.m[name], state.v[name]
        for rows in (slice(s, s + ADAM_BLOCK_ROWS)
                     for s in range(0, m.shape[0], ADAM_BLOCK_ROWS)):
            _adam_rows(p[rows], m[rows], v[rows], g[rows], t, lr)
    params.check_finite()
    return params


def _adam_rows(p, m, v, g, t, lr):
    """The textbook update of one block, op by op as ``m += (1 - beta1) * g``
    etc. would run, but into buffers; the g terms keep g's dtype and the
    rest m's, so the result is bit-identical to the whole-array expression."""
    g_term = np.empty_like(g)
    m_hat = np.empty_like(m)
    v_hat = np.empty_like(m)
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=g_term)
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=g_term)
    v += np.multiply(g_term, g, out=g_term)
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=m_hat)
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=v_hat)
    np.add(np.sqrt(v_hat, out=v_hat), ADAM_EPS, out=v_hat)
    np.multiply(lr, m_hat, out=m_hat)
    p -= np.divide(m_hat, v_hat, out=m_hat)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    params: ModelParams
    best_params: ModelParams
    state: AdamState
    history: list
    best_metric: float
    best_epoch: int
    bad_rounds: int
    last_epoch: int
    rng_state: dict


def evaluate_model(model: DualChannelModel, params: ModelParams,
                   graph: MultiplexBipartiteGraph, split: DatasetSplit,
                   ks) -> evaluation.RankingResult:
    e_final = model.final_embeddings(params)
    # the ranking screen is exact for finite scores only
    if not np.all(np.isfinite(e_final)):
        raise TrainingAbort("non-finite final embeddings; nothing to rank")
    return evaluation.evaluate(e_final, graph, split, ks=ks)


def eval_record(epoch: int, result: evaluation.RankingResult, groups: dict) -> dict:
    """The ``{"type": "eval", ...}`` record of one evaluation pass."""
    return {"type": "eval", "epoch": epoch,
            "recall": {str(k): result.recall(k) for k in result.ks},
            "ndcg": {str(k): result.ndcg(k) for k in result.ks},
            "groups": groups}


def _patience_metric(result: evaluation.RankingResult) -> float:
    return result.recall(evaluation.headline_k(result.ks))


def train(graph: MultiplexBipartiteGraph, split: DatasetSplit, cfg: RunConfig,
          record_sink=None, resume: dict = None) -> TrainResult:
    """Run the full optimization; emits one record per epoch (loss
    breakdown) and per evaluation (metrics) through ``record_sink``.
    ``resume``, a loaded checkpoint, continues its run: parameters, Adam
    state, sampler RNG, early stopping's state and, where it holds them, the
    best parameters."""
    model = DualChannelModel(training_graph(graph, split), cfg)
    sampler = TripleSampler(model, split, cfg.seed)
    if resume:
        params, state, meta = resume["params"], resume["state"], resume["meta"]
        sampler.set_state(resume["rng"])
    else:
        params, meta = model.init_params(cfg.seed), {
            "best_metric": -np.inf, "best_epoch": 0, "bad_rounds": 0, "epoch": 0}
        state = AdamState.init(params)

    history = []

    def emit(record):
        history.append(record)
        if record_sink is not None:
            record_sink(record)

    best_metric, best_epoch, bad_rounds, start_epoch = (
        meta[k] for k in ("best_metric", "best_epoch", "bad_rounds", "epoch"))
    best_params = ((resume or {}).get("best") or params).copy()
    last_epoch = start_epoch

    # a resumed run that had stopped early trains no further
    for epoch in range(start_epoch + 1, (cfg.epochs if bad_rounds < cfg.patience else 0) + 1):
        last_epoch = epoch
        sums, n_batches = {}, 0
        for batch in sampler.epoch_batches(cfg.batch):
            grads, breakdown = backward(model, params, batch)
            adam_step(params, grads, state, cfg.lr)
            n_batches += 1
            for key, value in breakdown.items():
                sums[key] = sums.get(key, 0.0) + value
        means = {k: v / max(n_batches, 1) for k, v in sums.items()}
        emit({"type": "loss", "epoch": epoch, **{k: means[k] for k in sorted(means)}})

        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            result = evaluate_model(model, params, graph, split, cfg.ks)
            groups = evaluation.sparsity_groups(result, model.graph, split)
            emit(eval_record(epoch, result, groups))
            metric = _patience_metric(result)
            if metric > best_metric:
                best_metric = metric
                best_epoch = epoch
                best_params = params.copy()
                bad_rounds = 0
            else:
                bad_rounds += 1
                if bad_rounds >= cfg.patience:
                    emit({"type": "early_stop", "epoch": epoch,
                          "best_epoch": best_epoch})
                    break

    return TrainResult(params=params, best_params=best_params, state=state,
                       history=history, best_metric=float(best_metric),
                       best_epoch=best_epoch, bad_rounds=bad_rounds, last_epoch=last_epoch,
                       rng_state=sampler.get_state())
