"""Per-relation graph propagation and multi-relation aggregation.

Each relation gets its own LightGCN-style propagation: linear neighborhood
averaging with symmetric degree normalization, no feature transform, no
nonlinearity. Relation-specific embeddings sum layers 0..L (layer 0
included), and the multi-relation table is the sum over relations. A
training step propagates the pattern union and every relation as one
:class:`~chainrec.sparse.BlockStack`, one product per layer, as MBGCN
propagates all behaviors over one multi-relation graph.
"""

import numpy as np

from . import autodiff as ad
from .sparse import BlockStack, SparseMatrix, receptive_fields


def lightgcn_propagate(adj: SparseMatrix, base, num_layers: int):
    """Sum of layers 0..L of propagation through ``adj``, one relation's
    CSR structure with its 1/sqrt(deg_u deg_v) edge values. Isolated nodes
    keep their layer-0 row."""
    return ad.add_n([base, *propagate_layers(adj, base, num_layers)])


def propagate_layers(adj: SparseMatrix, base, num_layers: int) -> list:
    """Layers 1..L of propagation through ``adj`` from layer 0 ``base``; a
    one-block :func:`propagate_stack` computes them at a row subset."""
    layers, h = [], base
    for _ in range(num_layers):
        h = ad.spmm(adj.struct, adj.values, h)
        layers.append(h)
    return layers


def propagate_stack(stack: BlockStack, vals, base, num_layers: int, rows) -> list:
    """Layers 1..L of every block of ``stack`` at ``rows`` (sorted unique
    node indices), as one list per block, each layer bit-identical to the
    rows of that block's full layer. One product per layer serves every
    block: layer l on the stacked receptive field R_l, from layer l-1 on
    R_{l-1}; layer 1 reads ``base``, the layer-0 table every block shares,
    in place, so its x-adjoint is one dense table. ``vals`` are block 0's
    values."""
    n = stack.diag.n // stack.blocks
    stacked = (np.arange(stack.blocks)[:, None] * n + rows).reshape(-1)
    # [R_1, ..., R_L]: R_0 is never built, layer 1 reads all of ``base``
    fields = receptive_fields(stack.diag, stacked, num_layers - 1)
    layers = [[] for _ in range(stack.blocks)]
    h, struct, x_rows = base, stack.first, None
    for field in fields:
        h = ad.spmm_rows(struct, vals, h, field, x_rows=x_rows, const=stack.const)
        at = np.searchsorted(field, stacked).reshape(stack.blocks, -1)
        for b, idx in enumerate(at):
            layers[b].append(ad.gather(h, idx))
        struct, x_rows = stack.diag, field
    return layers

