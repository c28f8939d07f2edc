"""Behavior-pattern channel: the pattern of every user-item pair and the
two aggregation routes (local propagation through the union of all
patterns, global pattern-count similarity propagation) that combine into
the explicit-pattern embeddings.

A pair's pattern is the EXACT set of relations joining it, as a signature
whose bit r is schema relation r; pattern p has signature p + 1, so the
2^|R| - 1 patterns partition all interacting pairs. The union of all
pairs is the model's one sparse topology: the local route propagates
through it as block 0 of the model's stacked operator (see
:mod:`chainrec.relations`), and relation r's block is the union's edges
whose pattern has bit r. Every block's edge values are constants of the
stack, so no edge value is on the tape.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graph import MultiplexBipartiteGraph, RelationSchema, sorted_unique
from .relations import propagate_block
from .sparse import BlockStack, CSRStruct, build_struct


def pattern_relations(schema: RelationSchema, p: int) -> tuple:
    """The relations of pattern p, in schema order."""
    return tuple(r for i, r in enumerate(schema.relations) if (p + 1) >> i & 1)


@dataclass(frozen=True)
class BehaviorPatterns:
    """The union CSR of all interacting (user, item) pairs with the pattern
    of each directed edge, and column p = per-node neighbor counts under
    pattern p, in the caller's dtype. Constant for a fixed graph: built once."""

    struct: CSRStruct
    edge_pattern: np.ndarray
    counts: np.ndarray

    def pairs(self, p: int) -> tuple:
        """(u, v) of the pairs whose relation set is exactly pattern p, in
        key order u*N+v: the user-row edges of pattern p."""
        rows, cols = self.struct.rows, self.struct.cols
        sel = (rows < cols) & (self.edge_pattern == p)
        return rows[sel], cols[sel]


def behavior_patterns(graph: MultiplexBipartiteGraph, dtype=np.float64) -> BehaviorPatterns:
    """One pass over the pairs: OR the bits of the relations joining each
    pair into its signature."""
    n = graph.num_nodes
    rel_keys = [graph.edge_keys(r) for r in graph.schema.relations]
    keys = sorted_unique(np.concatenate(rel_keys))
    signature = np.zeros(keys.shape[0], dtype=np.int64)
    for r, k in enumerate(rel_keys):
        signature[np.searchsorted(keys, k)] |= 1 << r
    struct = build_struct(n, keys // n, keys % n)
    lo = np.minimum(struct.rows, struct.cols)
    hi = np.maximum(struct.rows, struct.cols)
    edge_pattern = signature[np.searchsorted(keys, lo * np.int64(n) + hi)] - 1
    n_pat = graph.schema.num_patterns
    cells = struct.rows * n_pat + edge_pattern
    counts = np.bincount(cells, minlength=n * n_pat).reshape(n, n_pat)
    return BehaviorPatterns(struct, edge_pattern, counts.astype(dtype))


def local_adjacency(union: BehaviorPatterns) -> np.ndarray:
    """The constant values, in ``union.struct`` order, of the local operator:
    every pattern weighted alike, softmax of zeros, on the union of all
    pattern pairs, then symmetric normalization by the degrees, counts times
    weights."""
    struct = union.struct
    w = ad.softmax(np.zeros(union.counts.shape[1], dtype=union.counts.dtype))
    inv = ad.rsqrt_safe(union.counts @ w)
    return w[union.edge_pattern] * inv[struct.rows] * inv[struct.cols]


def propagate_local(stack: BlockStack, base, num_layers: int):
    """Mean of the layer-1..L tables (layer 0 excluded) of block 0 of
    ``stack``, the union, at every node, untaped and written into the
    layer-1 table."""
    layers = propagate_block(stack, base, num_layers, 0)
    return layer_mean(layers, out=layers[0])


def layer_mean(layers, out=None):
    return ad.add_n(layers, scale=1.0 / len(layers), out=out)


def propagate_global_factored(counts, base, num_layers: int, mode="row",
                              rows=None, scale=None):
    """L rounds of propagation through B B^T, each row divided by its sum
    (zero rows stay zero): the final layer, at ``rows`` (sorted unique node
    indices) only if given. B is ``counts`` C times D = diag(``scale``), or
    C. ``mode`` is ``'row'``, the only form (perfbench passes it until
    ROADMAP item 2). The layer is diag(r) C D^2 (G D^2)^(L-1) C^T base, r
    the reciprocal row sums and G = C^T diag(r) C. Only 1^T C, r, G and C^T
    base read every row, so a constant ndarray C gets no adjoint, and no N x N
    matrix or N x d layer but the output is formed."""
    sq = 1.0 if scale is None else ad.mul(scale, scale)
    rowsum = ad.matmul(counts, ad.mul(ad.matmul(np.ones_like(ad.val(counts)[:, 0]), counts), sq))
    scaled = ad.mul(counts, ad.reshape(ad.reciprocal_safe(rowsum), (-1, 1)))
    right_t = ad.transpose(counts)
    gram = ad.mul(ad.matmul(right_t, scaled), sq)
    t = ad.matmul(right_t, base)
    for _ in range(num_layers - 1):
        t = ad.matmul(gram, t)
    left = scaled if rows is None else ad.gather(scaled, rows)
    return ad.matmul(ad.mul(left, sq), t)


def ebp_embeddings(h_loc, h_glo, out=None):
    """Average-pool the local and global tables into the explicit-pattern
    embedding, into ``out`` if given."""
    return ad.add_n([h_loc, h_glo], scale=0.5, out=out)
