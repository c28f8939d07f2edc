"""The assembled recommender: graph-derived constants, parameter
initialization, the forward pass producing all embedding tables, and the
joint training objective.

Training runs :meth:`DualChannelModel.embeddings` on tape Vars at a batch's
rows; inference, :meth:`DualChannelModel.final_embeddings` on ndarrays. Both
propagate the sparse channels through ``DualChannelModel.stack``, the
model's one sparse operator, built from the behavior-pattern union.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import contrastive, patterns, relations
from .chains import (chain_embedding, chain_forward, enumerate_chains,
                     final_embedding, transform_names)
from .config import RunConfig
from .graph import MultiplexBipartiteGraph, sorted_unique, stream_rng
from .sparse import select_edges, stack_blocks, sym_norm_values


class TrainingAbort(RuntimeError):
    """Non-finite value in a named loss term or gradient; CLI exit code 2."""


@dataclass
class ModelParams:
    """Every learnable tensor, keyed by name; optimizer state mirrors keys."""

    tensors: dict

    def as_vars(self) -> dict:
        return {k: ad.Var(v) for k, v in self.tensors.items()}

    def copy(self) -> "ModelParams":
        return ModelParams({k: v.copy() for k, v in self.tensors.items()})

    def check_finite(self):
        for name, t in self.tensors.items():
            if not np.all(np.isfinite(t)):
                raise TrainingAbort(f"non-finite values in parameter {name!r}")


def xavier(rng, shape) -> np.ndarray:
    """Glorot-uniform draw: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    fan_in = shape[0]
    fan_out = shape[1] if len(shape) > 1 else 1
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def param_shapes(schema, cfg: RunConfig, n: int) -> dict:
    """Name -> shape of every learnable tensor of a model of ``n`` nodes,
    in the order :meth:`DualChannelModel.init_params` creates them."""
    d, n_pat = cfg.dim, schema.num_patterns
    shapes = {"base": (n, d), "global_logits": (n_pat,)}
    for i, chain in enumerate(enumerate_chains(schema)):
        for user, item in zip(*transform_names(i, chain)):
            shapes[user] = shapes[item] = (d, d)
    return shapes


def bpr(table, users, pos, neg):
    """BPR ranking loss: the sum over triples of -ln sigmoid(y_up - y_un),
    scores being row dot products in ``table``."""
    yu = ad.gather(table, users)
    yp = ad.rowdot(yu, ad.gather(table, pos))
    yn = ad.rowdot(yu, ad.gather(table, neg))
    return ad.asum(ad.softplus(ad.add(yn, ad.mul(yp, -1.0))))


@dataclass
class TrainBatch:
    """Sampled (user, positive, negative) triples for one step: per-chain
    triples from each chain's pattern edges, plus target-relation triples
    for the final ranking loss. Items are global node indices."""

    users: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    chain_triples: dict = field(default_factory=dict)


class DualChannelModel:
    """Constants derived from the (training) graph plus the forward pass."""

    def __init__(self, graph: MultiplexBipartiteGraph, cfg: RunConfig):
        self.graph = graph
        self.cfg = cfg.validate()
        self.dtype = np.dtype(cfg.dtype)
        self.schema = graph.schema
        self.n = graph.num_nodes
        self.num_users = graph.num_users
        self.patterns = patterns.behavior_patterns(graph, self.dtype)
        self.counts = self.patterns.counts
        self.chains = enumerate_chains(self.schema)
        # the union, every pattern weighted alike, then relation r's block: the
        # union's edges whose pattern has bit r; every block holds constant
        # 1/sqrt(deg_u deg_v) values
        union, signature = self.patterns.struct, self.patterns.edge_pattern + 1
        rel = [select_edges(union, (signature >> r & 1).astype(bool))
               for r in range(len(self.schema.relations))]
        self.stack = stack_blocks([union] + rel, np.concatenate(
            [patterns.local_adjacency(self.patterns)]
            + [sym_norm_values(s, dtype=self.dtype) for s in rel]))

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------

    def init_params(self, seed: int) -> ModelParams:
        """N(0, 0.1) base tables, Glorot weights, and global logits at
        softplus(x) = 1: pattern-count scaling starts at 1."""
        rng = stream_rng(seed, "init")
        p = {}
        for name, shape in param_shapes(self.schema, self.cfg, self.n).items():
            if name == "base":
                p[name] = rng.normal(0.0, 0.1, size=shape)
            elif name == "global_logits":
                p[name] = np.full(shape, np.log(np.e - 1.0))
            else:
                p[name] = xavier(rng, shape)
        return ModelParams({k: v.astype(self.dtype) for k, v in p.items()})

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------

    def _chain_paths(self, p: dict) -> tuple:
        """Every chain's :func:`chain_forward` paths, in chain order, and the
        same paths grouped by the relation their chains start at."""
        paths = [chain_forward(*([p[k] for k in ks] for ks in transform_names(i, c)))
                 for i, c in enumerate(self.chains)]
        return paths, {r: [s for c, s in zip(self.chains, paths) if c.relations[0] == r]
                       for r in dict.fromkeys(c.relations[0] for c in self.chains)}

    def embeddings(self, p: dict, rows, users) -> dict:
        """The training path: the embedding tables at ``rows`` (sorted unique
        node indices), indexed by position in ``rows``, from a name->tensor (or
        name->Var) mapping, and each relation's table at the positions
        ``users`` (user nodes only). The local and relation channels propagate
        through ``self.stack``, one product per layer, each layer only on its
        receptive field: the last at the rows, each earlier one at the nodes
        the next one reads. The global channel forms its output only at the
        rows, through its p x p pattern Gram matrix. The final table sums each
        T_r in schema order, then its chain table C_r = T_r K_rᵀ where chains
        start, then ``h_ebp``. Dense tables scale with the rows, and the global
        route's row sums, Gram matrix and Cᵀ·base, base's gradient and Adam's
        update with the n nodes."""
        cfg = self.cfg
        loc, *rel = relations.propagate_stack(self.stack, p["base"], cfg.layers, rows)
        h_loc = patterns.layer_mean(loc)
        base_rows = ad.gather(p["base"], rows)
        rel_tables = {r: ad.add_n([base_rows, *layers])
                      for r, layers in zip(self.schema.relations, rel)}
        h_glo = patterns.propagate_global_factored(
            self.counts, p["base"], cfg.layers, rows=rows,
            scale=ad.softplus(p["global_logits"]))
        h_ebp = patterns.ebp_embeddings(h_loc, h_glo)
        paths, starts = self._chain_paths(p)
        n_user_rows = int(np.searchsorted(rows, self.num_users))
        chain = {r: chain_embedding(rel_tables[r], n_user_rows, s) for r, s in starts.items()}
        e_final = final_embedding([x for r, t in rel_tables.items()
                                   for x in (t, chain.get(r)) if x is not None] + [h_ebp])
        rel_users = {r: ad.gather(t, users) for r, t in rel_tables.items()}
        return {"h_loc": h_loc, "h_glo": h_glo, "h_ebp": h_ebp, "rel": rel_tables, "paths": paths,
                "rel_users": rel_users, "base_rows": base_rows, "final": e_final}

    def final_embeddings(self, params: ModelParams) -> np.ndarray:
        """The final table at every node, untaped, bit-identical to that of
        :meth:`embeddings` at every row. ``self.stack`` propagates one block
        at a time, and every sum runs in place, in the same order, into a
        table this pass made: each T_r, then its C_r where chains start, formed
        in the spent last layer, adds into one sum, made before any layer table
        (in the first relation's table instead, the heap kept more pages:
        retail-eval peak RSS 140-147 MB, not 128-133), and the local layer-1
        table holds the layer mean, then ``h_ebp``. So at 2 layers the pass
        peaks at 3 n x d tables (L + 1 at L): the sum and a block's layers."""
        p, cfg, base = params.tensors, self.cfg, params.tensors["base"]
        starts, acc = self._chain_paths(p)[1], np.zeros(base.shape, base.dtype)
        for block, r in enumerate(self.schema.relations, start=1):
            layers = relations.propagate_block(self.stack, base, cfg.layers, block)
            table = ad.add_n([base, *layers], out=layers[0])
            np.add(acc, table, out=acc)
            if r in starts:
                np.add(acc, chain_embedding(table, self.num_users, starts[r], out=layers[-1]
                                            if len(layers) > 1 else None), out=acc)
            layers = table = None
        h = patterns.propagate_local(self.stack, base, cfg.layers)
        h = patterns.ebp_embeddings(h, patterns.propagate_global_factored(
            self.counts, base, cfg.layers, scale=ad.softplus(p["global_logits"])), out=h)
        return final_embedding([acc, h], out=acc)

    # ------------------------------------------------------------------
    # loss
    # ------------------------------------------------------------------

    def _reg(self, base_rows, ids, extra=()):
        """lambda * ||theta||^2 over rows ``ids`` of ``base_rows`` + extra tensors."""
        terms = [ad.sumsq(ad.gather(base_rows, ids))]
        return ad.add_n(terms + [ad.sumsq(t) for t in extra], scale=self.cfg.l2)

    def total_loss(self, p: dict, batch: TrainBatch):
        """mu2 * the final ranking loss + the sum of the per-chain ranking
        losses, in chain order + mu1 * the sum of the auxiliary relations'
        contrastive losses, in schema order; returns (loss, per-term float
        breakdown). A family with no loss (no chain drew triples, or no
        auxiliary relation) reads a zero of the model's dtype. A non-finite
        term aborts with its name, the terms checked before their sum."""
        cfg = self.cfg
        final_nodes = np.concatenate([batch.users, batch.pos, batch.neg])

        # the dense channels are only evaluated at rows this batch touches
        rows = sorted_unique(np.concatenate([final_nodes, *(
            ids for triples in batch.chain_triples.values() for ids in triples)]))

        def at(ids):
            return np.searchsorted(rows, ids)

        final_ids = at(final_nodes)
        bu_c = final_ids[:len(batch.users)]
        emb = self.embeddings(p, rows, bu_c)
        rcl = contrastive.relation_losses(emb["rel_users"], self.schema.target, cfg.tau)

        # chain ranking losses on chains that drew triples this step
        chain_losses = []
        for i, (cu, cp, cn) in sorted(batch.chain_triples.items()):
            chain = self.chains[i]
            w_u, w_v = ([p[k] for k in ks] for ks in transform_names(i, chain))
            ids = at(np.concatenate([cu, cp, cn]))
            reg = self._reg(emb["base_rows"], ids, extra=w_u + w_v)
            # the chain's last step T_r Πᵀ, only at its triples' rows
            trip = ad.gather(emb["rel"][chain.relations[0]], ids)
            last = ad.split_rows_matmul(trip, len(cu), *(m[-1] for m in emb["paths"][i]))
            core = bpr(last, *np.arange(3 * len(cu)).reshape(3, -1))
            chain_losses.append(ad.add(core, reg))

        def plain_sum(losses):
            return ad.add_n(losses) if losses else np.zeros((), self.dtype)

        terms = {
            "final_bpr": ad.add(bpr(emb["final"], *final_ids.reshape(3, -1)),
                                self._reg(emb["base_rows"], final_ids)),
            "chain_bpr": plain_sum(chain_losses),
            "rcl": plain_sum(list(rcl.values())),
        }
        total = ad.add_n([ad.mul(terms["final_bpr"], cfg.mu2), terms["chain_bpr"],
                          ad.mul(terms["rcl"], cfg.mu1)])
        breakdown = {name: float(ad.val(t)) for name, t in {**terms, "total": total}.items()}
        for name, value in breakdown.items():
            if not np.isfinite(value):
                raise TrainingAbort(f"non-finite loss term {name!r}: {value}")
        return total, breakdown
