"""Graph propagation through the model's stacked sparse operator.

The pattern union and every relation propagate the one base table in the
LightGCN style: linear neighborhood averaging with symmetric degree
normalization, no feature transform, no nonlinearity. Relation-specific
embeddings sum layers 0..L (layer 0 included), and the multi-relation table
is the sum over relations. All of these operators are blocks of one
:class:`~chainrec.sparse.BlockStack`, as MBGCN propagates all behaviors over
one multi-relation graph: a training step propagates every block at its
rows, one product per layer; inference propagates one block at a time at
every node.
"""

import numpy as np

from . import autodiff as ad
from .sparse import BlockStack, CSRStruct, receptive_fields


def propagate_block(stack: BlockStack, vals, base, num_layers: int, block: int) -> list:
    """Layers 1..L of block ``block`` of ``stack`` at every node, from layer 0
    ``base``: that block's rows of ``stack.first``, whose columns are already
    block-local, one product per layer, so no stacked layer is formed. Each
    layer is bit-identical to the rows of :func:`propagate_stack`'s. ``vals``
    are block 0's values; the other blocks read theirs from ``stack.const``.
    Isolated nodes propagate zeros."""
    first, n = stack.first, stack.first.n // stack.blocks
    lo, hi = first.indptr[block * n], first.indptr[(block + 1) * n]
    struct = CSRStruct(n, first.indptr[block * n:(block + 1) * n + 1] - lo,
                       first.cols[lo:hi], None)
    if block:
        vals = stack.const[lo - first.indptr[n]:hi - first.indptr[n]]
    layers, h = [], base
    for _ in range(num_layers):
        h = ad.spmm(struct, vals, h)
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
