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
    shapes = {"base": (n, d), "local_logits": (n_pat,), "global_logits": (n_pat,)}
    for i, chain in enumerate(enumerate_chains(schema)):
        for user, item in zip(*transform_names(i, chain)):
            shapes[user] = shapes[item] = (d, d)
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
        # the union, then relation r's block: the union's edges whose pattern
        # has bit r, with constant 1/sqrt(deg_u deg_v) values
        union, signature = self.patterns.struct, self.patterns.edge_pattern + 1
        rel = [select_edges(union, (signature >> r & 1).astype(bool))
               for r in range(len(self.schema.relations))]
        self.stack = stack_blocks([union] + rel, np.concatenate(
            [sym_norm_values(s, dtype=self.dtype) for s in rel]))

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------

    def init_params(self, seed: int) -> ModelParams:
        """N(0, 0.1) base tables, Glorot weights, zero logits and biases, but
        global logits at softplus(x) = 1: pattern-count scaling starts at 1."""
        rng = stream_rng(seed, "init")
        p = {}
        for name, shape in param_shapes(self.schema, self.cfg, self.n).items():
            if name == "base":
                p[name] = rng.normal(0.0, 0.1, size=shape)
            elif name == "global_logits":
                p[name] = np.full(shape, np.log(np.e - 1.0))
            elif name == "local_logits" or name.endswith(".b"):
                p[name] = np.zeros(shape)
            else:
                p[name] = xavier(rng, shape)
        return ModelParams({k: v.astype(self.dtype) for k, v in p.items()})

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------

    def embeddings(self, p: dict, rows) -> dict:
        """The training path: every embedding table at ``rows`` (sorted unique
        node indices), indexed by position in ``rows``, from a name->tensor
        (or name->Var) mapping. The local and relation channels propagate
        through ``self.stack``, one product per layer, each layer only on its
        receptive field: the last at the rows, each earlier one at the nodes
        the next one reads. The global channel propagates through its p x p
        pattern Gram matrix and forms its output only at the rows. The dense
        chain channel and the fused tables are computed only at the rows too,
        which keeps a training step's dense work independent of catalog size."""
        cfg = self.cfg
        vals = patterns.local_adjacency(self.patterns, p["local_logits"])
        loc, *rel = relations.propagate_stack(self.stack, vals, p["base"], cfg.layers, rows)
        h_loc = patterns.layer_mean(loc)
        base_rows = ad.gather(p["base"], rows)
        rel_tables = {r: ad.add_n([base_rows, *layers])
                      for r, layers in zip(self.schema.relations, rel)}
        b_mat = ad.mul(self.counts, ad.softplus(p["global_logits"]))
        h_glo = patterns.propagate_global_factored(b_mat, p["base"], cfg.layers,
                                                   rows=rows)
        h_ebp = patterns.ebp_embeddings(h_loc, h_glo)
        e_r = ad.add_n(rel_tables.values())
        n_user_rows = int(np.searchsorted(rows, self.num_users))

        chain_steps = []
        for i, chain in enumerate(self.chains):
            w_u, w_v = ([p[k] for k in ks] for ks in transform_names(i, chain))
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
        """The final table at every node, untaped, bit-identical to that of
        :meth:`embeddings` at every row: ``self.stack`` propagates one block
        at a time, and each sum runs in place, in the same order, into a
        table this pass made. The peak is |R| + 2 n x d tables: the relation
        tables that start a chain, ``e_c`` and two chain steps. The others
        follow, one at a time into ``e_r``; the local layer-1 table then
        holds the layer mean, ``h_ebp`` and the final table in turn."""
        p, cfg, base = params.tensors, self.cfg, params.tensors["base"]

        def relation(r):
            layers = relations.propagate_block(self.stack, None, base, cfg.layers,
                                               self.schema.relations.index(r) + 1)
            return ad.add_n([base, *layers], out=layers[0])

        rel = {r: relation(r) for r in dict.fromkeys(c.relations[0] for c in self.chains)}
        e_c = e_r = None
        for i, chain in enumerate(self.chains):
            step = rel[chain.relations[0]]
            e_c = step.copy() if e_c is None else np.add(e_c, step, out=e_c)
            for user, item in zip(*transform_names(i, chain)):
                step = chain_forward(chain, step, [p[user]], [p[item]],
                                     self.num_users)[-1]
                e_c += step
        step = None
        for r in self.schema.relations:
            table = rel.pop(r, None)
            table = relation(r) if table is None else table
            e_r = table if e_r is None else np.add(e_r, table, out=e_r)
        table = None
        vals = patterns.local_adjacency(self.patterns, p["local_logits"])
        b_mat = ad.mul(self.counts, ad.softplus(p["global_logits"]))
        h = patterns.propagate_local(self.stack, vals, base, cfg.layers)
        h = patterns.ebp_embeddings(
            h, patterns.propagate_global_factored(b_mat, base, cfg.layers), out=h)
        return final_embedding(h, e_r, np.zeros_like(e_r) if e_c is None else e_c, out=h)

    # ------------------------------------------------------------------
    # loss
    # ------------------------------------------------------------------

    def _reg(self, p, users, pos, neg, extra=()):
        """lambda * ||theta||^2 over the batch's base rows + extra tensors."""
        idx = np.concatenate([users, pos, neg])
        terms = [ad.sumsq(ad.gather(p["base"], idx))]
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
            w_u, w_v = ([p[k] for k in ks] for ks in transform_names(i, chain))
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
