"""Behavior-pattern channel: exact-mask pattern matrices and the two
aggregation routes (local edge-weighted propagation, global pattern-count
similarity propagation) that combine into the explicit-pattern embeddings.

A pattern mask selects the user-item pairs whose set of relations is
EXACTLY the masked subset, so the nonzero masks partition all interacting
pairs.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graph import MultiplexBipartiteGraph, RelationSchema
from .relations import propagate_layers
from .sparse import CSRStruct, SparseMatrix, build_struct


@dataclass(frozen=True)
class PatternMask:
    """Relation subset as a bit per schema relation; never all-zero."""

    bits: tuple

    def __post_init__(self):
        if not any(self.bits):
            raise ValueError("pattern mask must select at least one relation")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @property
    def signature(self) -> int:
        return sum(b << r for r, b in enumerate(self.bits))

    def relations(self, schema: RelationSchema) -> tuple:
        return tuple(rel for rel, b in zip(schema.relations, self.bits) if b)


def enumerate_patterns(schema: RelationSchema):
    """All 2^|R|-1 nonzero masks in binary-counting order (mask i has
    signature i+1)."""
    n = schema.num_relations
    return [PatternMask(tuple((i >> r) & 1 for r in range(n)))
            for i in range(1, 2 ** n)]


@dataclass(frozen=True)
class BehaviorPatternMatrix:
    """Sparse exact-mask pattern matrix: the (user, item) pairs whose
    relation set equals the mask."""

    mask: PatternMask
    num_nodes: int
    u: np.ndarray
    v: np.ndarray

    @property
    def edge_count(self) -> int:
        return int(self.u.shape[0])


def build_bbp_matrix(graph: MultiplexBipartiteGraph,
                     mask: PatternMask) -> BehaviorPatternMatrix:
    """Edge-set intersection of required relations minus the union of
    forbidden ones; never materializes a dense complement."""
    n = graph.num_nodes
    required = [graph.edge_keys(r) for r, b in zip(graph.schema.relations, mask.bits) if b]
    forbidden = [graph.edge_keys(r) for r, b in zip(graph.schema.relations, mask.bits) if not b]
    keys = required[0]
    for k in required[1:]:
        keys = np.intersect1d(keys, k, assume_unique=True)
    for k in forbidden:
        if keys.size == 0:
            break
        keys = np.setdiff1d(keys, k, assume_unique=True)
    return BehaviorPatternMatrix(mask=mask, num_nodes=n,
                                 u=keys // n, v=keys % n)


def build_all_bbps(graph: MultiplexBipartiteGraph):
    return [build_bbp_matrix(graph, m) for m in enumerate_patterns(graph.schema)]


@dataclass(frozen=True)
class PatternUnion:
    """Union topology of all pattern pairs with the (unique) owning pattern
    index per directed edge; constant for a fixed graph, so it is built
    once and shared by every training step."""

    struct: CSRStruct
    edge_pattern: np.ndarray


def pattern_union(bbps) -> PatternUnion:
    if not bbps:
        raise ValueError("need at least one pattern matrix")
    n = bbps[0].num_nodes
    u = np.concatenate([b.u for b in bbps])
    v = np.concatenate([b.v for b in bbps])
    pid = np.concatenate([np.full(b.edge_count, i, dtype=np.int64)
                          for i, b in enumerate(bbps)])
    struct = build_struct(n, u, v)
    if struct.nnz == 0:
        return PatternUnion(struct, np.empty(0, dtype=np.int64))
    keys = u * np.int64(n) + v
    order = np.argsort(keys)
    keys = keys[order]
    pid = pid[order]
    lo = np.minimum(struct.rows, struct.cols)
    hi = np.maximum(struct.rows, struct.cols)
    edge_pid = pid[np.searchsorted(keys, lo * np.int64(n) + hi)]
    return PatternUnion(struct, edge_pid)


def local_adjacency(union: PatternUnion, logits) -> SparseMatrix:
    """Per-edge weights softmax(logits)[owning pattern], then symmetric
    degree normalization. Zero-degree rows stay zero."""
    struct = union.struct
    w = ad.softmax(logits)
    edge_w = ad.gather(w, union.edge_pattern)
    deg = ad.segsum(edge_w, struct.rows, struct.n)
    inv = ad.rsqrt_safe(deg)
    vals = ad.mul(ad.mul(edge_w, ad.gather(inv, struct.rows)),
                  ad.gather(inv, struct.cols))
    return SparseMatrix(struct, vals)


def propagate_local(adj: SparseMatrix, base, num_layers: int, rows=None):
    """Mean of the layer-1..L propagated tables (layer 0 excluded). With
    ``rows`` (sorted unique node indices) only those rows are returned
    (see :func:`relations.propagate_layers`)."""
    layers = propagate_layers(adj, base, num_layers, rows)
    acc = layers[0]
    for h in layers[1:]:
        acc = ad.add(acc, h)
    return ad.mul(acc, 1.0 / num_layers)


def pattern_count_matrix(bbps) -> np.ndarray:
    """Column p = per-node neighbor counts under pattern p (row sums of the
    pattern matrix); constant for a fixed graph."""
    if not bbps:
        raise ValueError("need at least one pattern matrix")
    num_nodes = bbps[0].num_nodes
    cols = []
    for b in bbps:
        both = np.concatenate([b.u, b.v])
        cols.append(np.bincount(both, minlength=num_nodes).astype(np.float64))
    return np.stack(cols, axis=1)


def propagate_global_factored(b_matrix, base, num_layers: int, mode="row",
                              rows=None):
    """L rounds of propagation through norm(B B^T), row-normalized
    (``mode='row'``) or 1/sqrt(rowsum) on both sides (``'sym'``); zero rows
    stay zero and the final layer is returned. With the normalizer folded
    into a scaled copy S of B and R = B (row) or S (sym), the final layer
    is (S R^T)^L base = S (R^T S)^(L-1) R^T base: every round is a product
    with the p x p Gram matrix R^T S, and no N x N matrix or N x d layer
    but the output is formed. With ``rows`` (sorted unique node indices)
    the output is computed, and returned, only at those rows."""
    if num_layers < 1:
        raise ValueError("need at least one propagation layer")
    if mode not in ("row", "sym"):
        raise ValueError(f"unknown normalization mode {mode!r}")
    col_tot = ad.asum(b_matrix, axis=0)
    rowsum = ad.matmul(b_matrix, col_tot)
    inv = ad.reciprocal_safe(rowsum) if mode == "row" else ad.rsqrt_safe(rowsum)
    scaled = ad.mul(b_matrix, ad.reshape(inv, (-1, 1)))
    right_t = ad.transpose(b_matrix if mode == "row" else scaled)
    gram = ad.matmul(right_t, scaled)
    t = ad.matmul(right_t, base)
    for _ in range(num_layers - 1):
        t = ad.matmul(gram, t)
    left = scaled if rows is None else ad.gather(scaled, rows)
    return ad.matmul(left, t)


def ebp_embeddings(h_loc, h_glo):
    """Average-pool the local and global tables into the explicit-pattern
    embedding."""
    if ad.val(h_loc).shape != ad.val(h_glo).shape:
        raise ValueError(f"shape mismatch: {ad.val(h_loc).shape} vs {ad.val(h_glo).shape}")
    return ad.mul(ad.add(h_loc, h_glo), 0.5)
