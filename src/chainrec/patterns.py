"""Behavior-pattern channel: the pattern of every user-item pair and the
two aggregation routes (local edge-weighted propagation, global
pattern-count similarity propagation) that combine into the
explicit-pattern embeddings.

A pair's pattern is the EXACT set of relations joining it, as a signature
whose bit r is schema relation r; pattern p has signature p + 1, so the
2^|R| - 1 patterns partition all interacting pairs. The union of all
pairs is the model's one sparse topology: the local route propagates
through it as block 0 of the model's stacked operator (see
:mod:`chainrec.relations`), its learnable edge values the only ones on the
tape, and relation r's block is the union's edges whose pattern has bit r.
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
    pattern p. Constant for a fixed graph, so built once."""

    struct: CSRStruct
    edge_pattern: np.ndarray
    counts: np.ndarray

    def pairs(self, p: int) -> tuple:
        """(u, v) of the pairs whose relation set is exactly pattern p, in
        key order u*N+v: the user-row edges of pattern p."""
        rows, cols = self.struct.rows, self.struct.cols
        sel = (rows < cols) & (self.edge_pattern == p)
        return rows[sel], cols[sel]


def behavior_patterns(graph: MultiplexBipartiteGraph) -> BehaviorPatterns:
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
    return BehaviorPatterns(struct, edge_pattern, counts.astype(np.float64))


def local_adjacency(union: BehaviorPatterns, logits):
    """The values, in ``union.struct`` order, of the local operator: per-edge
    weights softmax(logits)[owning pattern] on the union of all pattern
    pairs, then symmetric degree normalization."""
    struct = union.struct
    w = ad.softmax(logits)
    edge_w = ad.gather(w, union.edge_pattern)
    deg = ad.segsum(edge_w, struct.rows, struct.n)
    inv = ad.rsqrt_safe(deg)
    vals = ad.mul(ad.mul(edge_w, ad.gather(inv, struct.rows)),
                  ad.gather(inv, struct.cols))
    return vals


def propagate_local(stack: BlockStack, vals, base, num_layers: int):
    """Mean of the layer-1..L tables (layer 0 excluded) of block 0 of
    ``stack``, the union, with values ``vals``, at every node, untaped and
    written into the layer-1 table."""
    layers = propagate_block(stack, vals, base, num_layers, 0)
    return layer_mean(layers, out=layers[0])


def layer_mean(layers, out=None):
    return ad.add_n(layers, scale=1.0 / len(layers), out=out)


def propagate_global_factored(b_matrix, base, num_layers: int, mode="row",
                              rows=None):
    """L rounds of propagation through B B^T with each row divided by its
    sum; zero rows stay zero and the final layer is returned. ``mode`` is
    ``'row'``, the only form (perfbench passes it until ROADMAP item 2).
    With the normalizer folded into a scaled copy S of B, the final layer
    is (S B^T)^L base = S (B^T S)^(L-1) B^T base: every round is a product
    with the p x p Gram matrix B^T S, and no N x N matrix or N x d layer
    but the output is formed. With ``rows`` (sorted unique node indices)
    the output is computed, and returned, only at those rows."""
    col_tot = ad.asum(b_matrix, axis=0)
    rowsum = ad.matmul(b_matrix, col_tot)
    scaled = ad.mul(b_matrix, ad.reshape(ad.reciprocal_safe(rowsum), (-1, 1)))
    right_t = ad.transpose(b_matrix)
    gram = ad.matmul(right_t, scaled)
    t = ad.matmul(right_t, base)
    for _ in range(num_layers - 1):
        t = ad.matmul(gram, t)
    left = scaled if rows is None else ad.gather(scaled, rows)
    return ad.matmul(left, t)


def ebp_embeddings(h_loc, h_glo, out=None):
    """Average-pool the local and global tables into the explicit-pattern
    embedding, into ``out`` if given."""
    return ad.add_n([h_loc, h_glo], scale=0.5, out=out)
