"""The assembled recommender: graph-derived constants, parameter
initialization, the forward pass producing all embedding tables, and the
joint training objective.

The forward math runs on plain ndarrays for inference and on tape Vars for
training; both paths share the same code via the autodiff dispatch.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import autodiff as ad
from . import contrastive, patterns, relations
from .chains import (chain_embedding, chain_forward, enumerate_chains,
                     final_embedding)
from .config import RunConfig
from .graph import MultiplexBipartiteGraph, sorted_unique, stream_rng
from .sparse import SparseMatrix, stack_blocks, sym_norm_values


class TrainingAbort(RuntimeError):
    """Non-finite value in a named loss term or gradient; CLI exit code 2."""


BASE_KEYS_SHARED = ("base",)
BASE_KEYS_SEPARATE = ("base_local", "base_global", "base_relation")


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
    keys = BASE_KEYS_SEPARATE if cfg.separate_base else BASE_KEYS_SHARED
    shapes = {k: (n, d) for k in keys}
    shapes.update(local_logits=(n_pat,), global_logits=(n_pat,))
    for i, chain in enumerate(enumerate_chains(schema)):
        for j in range(chain.num_steps):
            shapes[f"chain{i}.user{j}"] = (d, d)
            shapes[f"chain{i}.item{j}"] = (d, d)
    shapes.update({"enc_chain.w": (3 * d,), "enc_chain.b": (),
                   "enc_rel.w": (2 * d,), "enc_rel.b": ()})
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
        self.patterns = patterns.behavior_patterns(graph)
        self.counts = self.patterns.counts.astype(self.dtype)
        self.chains = enumerate_chains(self.schema)
        self.rel_adj = {r: SparseMatrix(graph.adjacency(r),
                                        sym_norm_values(graph.adjacency(r),
                                                        dtype=self.dtype))
                        for r in self.schema.relations}

    @cached_property
    def stack(self):
        """The row path's union and relation operators as one, built on
        first use: layer 1 reads [base] or [base_local; base_relation]."""
        rels = list(self.rel_adj.values())
        return stack_blocks([self.patterns.struct] + [a.struct for a in rels],
                            [0] + [int(self.cfg.separate_base)] * len(rels),
                            np.concatenate([a.values for a in rels]))

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------

    def init_params(self, seed: int) -> ModelParams:
        """N(0, 0.1) base tables, Glorot weights, zero logits and biases, but
        global logits at softplus(x) = 1: pattern-count scaling starts at 1."""
        rng = stream_rng(seed, "init")
        p = {}
        for name, shape in param_shapes(self.schema, self.cfg, self.n).items():
            if name.startswith("base"):
                p[name] = rng.normal(0.0, 0.1, size=shape)
            elif name == "global_logits":
                p[name] = np.full(shape, np.log(np.e - 1.0))
            elif name == "local_logits" or name.endswith(".b"):
                p[name] = np.zeros(shape)
            else:
                p[name] = xavier(rng, shape)
        return ModelParams({k: v.astype(self.dtype) for k, v in p.items()})

    def _base(self, p, channel: str):
        if self.cfg.separate_base:
            return p[f"base_{channel}"]
        return p["base"]

    def _base_tensors(self, p):
        keys = BASE_KEYS_SEPARATE if self.cfg.separate_base else BASE_KEYS_SHARED
        return [p[k] for k in keys]

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------

    def embeddings(self, p: dict, rows=None) -> dict:
        """All embedding tables from a name->tensor (or name->Var) mapping.

        With ``rows`` (sorted unique node indices) every returned table is
        compact, indexed by position in ``rows``. The local and relation
        channels then propagate through ``self.stack``, one product per
        layer, each layer only on its receptive field: the last at the
        rows, each earlier one at the nodes the next one reads. (Without
        ``rows``, one full operator at a time.) The global channel
        propagates through its p x p pattern Gram matrix and forms its
        output only at the rows.
        The dense chain channel and the fused tables are computed only at
        the rows too, which keeps a training step's dense work independent
        of catalog size.
        """
        cfg = self.cfg
        adj_loc = patterns.local_adjacency(self.patterns, p["local_logits"])
        base_loc, base_rel = self._base(p, "local"), self._base(p, "relation")
        if rows is None:
            h_loc = patterns.propagate_local(adj_loc, base_loc, cfg.layers)
            rel_tables = {r: relations.lightgcn_propagate(adj, base_rel, cfg.layers)
                          for r, adj in self.rel_adj.items()}
        else:
            x = ad.concat([base_loc, base_rel], 0) if cfg.separate_base else base_loc
            loc, *rel = relations.propagate_stack(self.stack, adj_loc.values, x,
                                                  cfg.layers, rows)
            h_loc = patterns.layer_mean(loc)
            base_rows = ad.gather(base_rel, rows)
            rel_tables = {r: ad.add_n([base_rows, *layers])
                          for r, layers in zip(self.rel_adj, rel)}
        b_mat = ad.mul(self.counts, ad.softplus(p["global_logits"]))
        h_glo = patterns.propagate_global_factored(b_mat, self._base(p, "global"),
                                                   cfg.layers, mode=cfg.glo_norm,
                                                   rows=rows)
        h_ebp = patterns.ebp_embeddings(h_loc, h_glo)
        e_r = ad.add_n(rel_tables.values())
        n_user_rows = (self.num_users if rows is None
                       else int(np.searchsorted(rows, self.num_users)))

        chain_steps = []
        for i, chain in enumerate(self.chains):
            w_u = [p[f"chain{i}.user{j}"] for j in range(chain.num_steps)]
            w_v = [p[f"chain{i}.item{j}"] for j in range(chain.num_steps)]
            steps = chain_forward(chain, rel_tables[chain.relations[0]],
                                  w_u, w_v, n_user_rows)
            chain_steps.append(steps)
        if chain_steps:
            e_c = chain_embedding(chain_steps)
        else:  # single-relation schema: no chains, channel contributes zeros
            e_c = np.zeros_like(ad.val(e_r))
        e_final = final_embedding(h_ebp, e_r, e_c)

        return {"h_loc": h_loc, "h_glo": h_glo, "h_ebp": h_ebp,
                "rel": rel_tables, "e_r": e_r, "rows": rows,
                "chain_steps": chain_steps, "e_c": e_c, "final": e_final}

    def final_embeddings(self, params: ModelParams) -> np.ndarray:
        """Inference-path final table (plain ndarray)."""
        return ad.val(self.embeddings(params.tensors)["final"])

    # ------------------------------------------------------------------
    # loss
    # ------------------------------------------------------------------

    def _reg(self, p, users, pos, neg, extra=()):
        """lambda * ||theta||^2 over the batch's base rows + extra tensors."""
        idx = np.concatenate([users, pos, neg])
        terms = [ad.sumsq(ad.gather(base, idx)) for base in self._base_tensors(p)]
        return ad.add_n(terms + [ad.sumsq(t) for t in extra], scale=self.cfg.l2)

    def total_loss(self, p: dict, batch: TrainBatch):
        """Weighted per-chain ranking losses + weighted contrastive losses
        + final ranking loss; returns (loss, per-term float breakdown)."""
        cfg = self.cfg
        target = self.schema.target
        bu = batch.users

        # the dense channels are only evaluated at rows this batch touches
        touched = [batch.users, batch.pos, batch.neg]
        for cu, cp, cn in batch.chain_triples.values():
            touched += [cu, cp, cn]
        rows = sorted_unique(np.concatenate(touched))
        emb = self.embeddings(p, rows=rows)

        def at(ids):
            return np.searchsorted(rows, ids)

        bu_c = at(bu)
        # per-(auxiliary, target) contrastive losses over the batch users
        rcl_losses = {}
        for r in self.schema.auxiliaries:
            rcl_losses[r] = ad.asum(contrastive.infonce_terms(
                emb["rel"][target], emb["rel"][r], bu_c, cfg.tau))

        e_c_rows = ad.gather(emb["e_c"], bu_c)
        e_final_rows = ad.gather(emb["final"], bu_c)

        # chain ranking losses on chains that drew triples this step
        active = [i for i in range(len(self.chains)) if i in batch.chain_triples]
        chain_losses, chain_raw_w = [], []
        for i in active:
            chain = self.chains[i]
            cu, cp, cn = batch.chain_triples[i]
            cu_c, cp_c, cn_c = at(cu), at(cp), at(cn)
            w_u = [p[f"chain{i}.user{j}"] for j in range(chain.num_steps)]
            w_v = [p[f"chain{i}.item{j}"] for j in range(chain.num_steps)]
            reg = self._reg(p, cu, cp, cn, extra=w_u + w_v)
            feats = contrastive.chain_knowledge(chain, rcl_losses, e_c_rows,
                                                e_final_rows, cfg.mu_scale, target)
            raw = contrastive.encode_weight(feats, p["enc_chain.w"],
                                            p["enc_chain.b"], cfg.leaky_slope)
            chain_raw_w.append(ad.amean(raw))
            core = bpr(emb["chain_steps"][i][-1], cu_c, cp_c, cn_c)
            chain_losses.append(ad.add(core, reg))

        loss_chains = None
        if chain_losses:
            w_chain = contrastive.normalize_weights(chain_raw_w)
            loss_chains = ad.asum(ad.mul(w_chain, ad.stack_scalars(chain_losses)))

        # weighted contrastive term over auxiliary relations
        rel_losses, rel_raw_w = [], []
        for r in self.schema.auxiliaries:
            feats = contrastive.relation_knowledge(rcl_losses[r],
                                                   ad.gather(emb["rel"][r], bu_c),
                                                   e_final_rows)
            raw = contrastive.encode_weight(feats, p["enc_rel.w"],
                                            p["enc_rel.b"], cfg.leaky_slope)
            rel_losses.append(rcl_losses[r])
            rel_raw_w.append(ad.amean(raw))

        loss_rcl = None
        if rel_losses:
            w_rel = contrastive.normalize_weights(rel_raw_w)
            loss_rcl = ad.asum(ad.mul(w_rel, ad.stack_scalars(rel_losses)))

        # final ranking loss on the fused table
        loss_final = ad.add(bpr(emb["final"], bu_c, at(batch.pos), at(batch.neg)),
                            self._reg(p, bu, batch.pos, batch.neg))

        total = ad.mul(loss_final, cfg.mu2)
        if loss_chains is not None:
            total = ad.add(total, loss_chains)
        if loss_rcl is not None:
            total = ad.add(total, ad.mul(loss_rcl, cfg.mu1))

        breakdown = {
            "total": float(ad.val(total)),
            "chain_bpr": float(ad.val(loss_chains)) if loss_chains is not None else 0.0,
            "rcl": float(ad.val(loss_rcl)) if loss_rcl is not None else 0.0,
            "final_bpr": float(ad.val(loss_final)),
        }
        for name, value in breakdown.items():
            if not np.isfinite(value):
                raise TrainingAbort(f"non-finite loss term {name!r}: {value}")
        return total, breakdown
