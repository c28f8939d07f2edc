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
from .graph import (DatasetSplit, MultiplexBipartiteGraph, stream_rng,
                    training_graph)
from .model import DualChannelModel, ModelParams, TrainBatch, TrainingAbort

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class NegativeSamplingError(ValueError):
    """A user's positives cover every item, so no negative can be drawn."""


def _draw_negative(positives: set, num_users: int, num_items: int,
                   rng: np.random.Generator, cap: int = 100) -> int:
    """Uniform item with no interaction in the context; rejection sampling
    with a bounded number of tries, then an exhaustive scan."""
    if len(positives) >= num_items:
        raise NegativeSamplingError(
            f"a user has interacted with all {num_items} items in a training "
            f"context, so no negative item can be sampled")
    for _ in range(cap):
        item = num_users + int(rng.integers(num_items))
        if item not in positives:
            return item
    allowed = np.setdiff1d(np.arange(num_users, num_users + num_items),
                           np.asarray(sorted(positives), dtype=np.int64),
                           assume_unique=True)
    return int(allowed[rng.integers(allowed.shape[0])])


class TripleSampler:
    """Precomputed positive sets per context; draws per-step triples."""

    def __init__(self, model: DualChannelModel, split: DatasetSplit, seed: int,
                 neg_cap: int = 100):  # perfbench passes it until ROADMAP item 2
        self.model = model
        self.num_users = model.graph.num_users
        self.num_items = model.graph.num_items
        self.neg_cap = neg_cap
        self.rng = stream_rng(seed, "negatives")
        self.shuffle_rng = stream_rng(seed, "shuffle")

        tu, tv = split.train_pairs(model.schema.target)
        self.target_u = tu
        self.target_v = tv
        self.target_pos = _positives_by_user(tu, tv)

        self.chain_edges = {}
        self.chain_pos = {}
        for i, chain in enumerate(model.chains):
            u, v = model.patterns.pairs(chain.pattern)
            if u.size == 0:
                log.info("chain %s has no exact-pattern training edges; skipped",
                         chain.label())
                continue
            self.chain_edges[i] = (u, v)
            self.chain_pos[i] = _positives_by_user(u, v)

    def _negatives(self, users, pos_of) -> np.ndarray:
        out = np.empty(len(users), dtype=np.int64)
        for t, u in enumerate(users):
            out[t] = _draw_negative(pos_of[int(u)], self.num_users,
                                    self.num_items, self.rng, self.neg_cap)
        return out

    def batch_for(self, idx: np.ndarray) -> TrainBatch:
        users = self.target_u[idx]
        pos = self.target_v[idx]
        neg = self._negatives(users, self.target_pos)
        chain_triples = {}
        size = len(idx)
        for i, (cu_all, cv_all) in self.chain_edges.items():
            pick = self.rng.integers(cu_all.shape[0], size=size)
            cu, cp = cu_all[pick], cv_all[pick]
            cn = self._negatives(cu, self.chain_pos[i])
            chain_triples[i] = (cu, cp, cn)
        return TrainBatch(users=users, pos=pos, neg=neg,
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


def _positives_by_user(u: np.ndarray, v: np.ndarray) -> dict:
    table = {}
    for a, b in zip(u, v):
        table.setdefault(int(a), set()).add(int(b))
    return table


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def backward(model: DualChannelModel, params: ModelParams, batch: TrainBatch):
    """Exact gradients of the objective for every parameter tensor."""
    pvars = params.as_vars()
    loss, breakdown = model.total_loss(pvars, batch)
    ad.backward(loss)
    grads = {}
    for name, var in pvars.items():
        grads[name] = var.grad if var.grad is not None else np.zeros_like(var.value)
    return grads, breakdown


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
        blocks = [...] if m.ndim == 0 else [
            slice(s, s + ADAM_BLOCK_ROWS) for s in range(0, m.shape[0], ADAM_BLOCK_ROWS)]
        for rows in blocks:
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
    state, sampler RNG and, where it holds them, early stopping's state and
    the best parameters (older checkpoints restart early stopping)."""
    model = DualChannelModel(training_graph(graph, split), cfg)
    sampler = TripleSampler(model, split, cfg.seed)
    if resume:
        params, state, meta = resume["params"], resume["state"], resume["meta"]
        sampler.set_state(resume["rng"])
    else:
        params, meta = model.init_params(cfg.seed), {}
        state = AdamState.init(params)

    history = []

    def emit(record):
        history.append(record)
        if record_sink is not None:
            record_sink(record)

    best_metric, best_epoch, bad_rounds, start_epoch = (meta.get(k, v) for k, v in (
        ("best_metric", -np.inf), ("best_epoch", 0), ("bad_rounds", 0), ("epoch", 0)))
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
