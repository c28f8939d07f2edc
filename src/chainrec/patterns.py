"""Behavior-pattern channel: the pattern of every user-item pair and the
two aggregation routes (local edge-weighted propagation, global
pattern-count similarity propagation) that combine into the
explicit-pattern embeddings.

A pair's pattern is the EXACT set of relations joining it, as a signature
whose bit r is schema relation r; pattern p has signature p + 1, so the
2^|R| - 1 patterns partition all interacting pairs. A training step runs
the local route's union operator as block 0 of the model's stacked
operator (see :mod:`chainrec.relations`), its learnable edge values the
only ones on the tape.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graph import MultiplexBipartiteGraph, RelationSchema, sorted_unique
from .relations import propagate_layers
from .sparse import CSRStruct, SparseMatrix, build_struct


def pattern_relations(schema: RelationSchema, p: int) -> tuple:
    """The relations of pattern p, in schema order."""
    return tuple(r for i, r in enumerate(schema.relations) if (p + 1) >> i & 1)


@dataclass(frozen=True)
class BehaviorPatterns:
    """Every interacting (user, item) pair, sorted by key u*N+v, with its
    pattern index; the union CSR of all pairs with the owning pattern of
    each directed edge; and column p = per-node neighbor counts under
    pattern p. Constant for a fixed graph, so built once."""

    u: np.ndarray
    v: np.ndarray
    pattern: np.ndarray
    struct: CSRStruct
    edge_pattern: np.ndarray
    counts: np.ndarray

    def pairs(self, p: int) -> tuple:
        """(u, v) of the pairs whose relation set is exactly pattern p."""
        sel = self.pattern == p
        return self.u[sel], self.v[sel]


def behavior_patterns(graph: MultiplexBipartiteGraph) -> BehaviorPatterns:
    """One pass over the pairs: OR the bits of the relations joining each
    pair into its signature."""
    n = graph.num_nodes
    rel_keys = [graph.edge_keys(r) for r in graph.schema.relations]
    keys = sorted_unique(np.concatenate(rel_keys))
    signature = np.zeros(keys.shape[0], dtype=np.int64)
    for r, k in enumerate(rel_keys):
        signature[np.searchsorted(keys, k)] |= 1 << r
    pattern = signature - 1
    u, v = keys // n, keys % n
    struct = build_struct(n, u, v)
    lo = np.minimum(struct.rows, struct.cols)
    hi = np.maximum(struct.rows, struct.cols)
    edge_pattern = pattern[np.searchsorted(keys, lo * np.int64(n) + hi)]
    n_pat = graph.schema.num_patterns
    cells = np.concatenate([u, v]) * n_pat + np.concatenate([pattern, pattern])
    counts = np.bincount(cells, minlength=n * n_pat).reshape(n, n_pat)
    return BehaviorPatterns(u, v, pattern, struct, edge_pattern,
                            counts.astype(np.float64))


def local_adjacency(union: BehaviorPatterns, logits) -> SparseMatrix:
    """Per-edge weights softmax(logits)[owning pattern] on the union of
    all pattern pairs, then symmetric degree normalization. Zero-degree
    rows stay zero."""
    struct = union.struct
    w = ad.softmax(logits)
    edge_w = ad.gather(w, union.edge_pattern)
    deg = ad.segsum(edge_w, struct.rows, struct.n)
    inv = ad.rsqrt_safe(deg)
    vals = ad.mul(ad.mul(edge_w, ad.gather(inv, struct.rows)),
                  ad.gather(inv, struct.cols))
    return SparseMatrix(struct, vals)


def propagate_local(adj: SparseMatrix, base, num_layers: int):
    """Mean of the layer-1..L propagated tables (layer 0 excluded)."""
    return layer_mean(propagate_layers(adj, base, num_layers))


def layer_mean(layers):
    return ad.add_n(layers, scale=1.0 / len(layers))


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
    return ad.add_n([h_loc, h_glo], scale=0.5)
