"""Per-relation graph propagation and multi-relation aggregation.

Each relation gets its own LightGCN-style propagation: linear neighborhood
averaging with symmetric degree normalization, no feature transform, no
nonlinearity. Relation-specific embeddings sum layers 0..L (layer 0
included), and the multi-relation table is the sum over relations.
"""

import numpy as np

from . import autodiff as ad
from .sparse import SparseMatrix, receptive_fields


def lightgcn_propagate(adj: SparseMatrix, base, num_layers: int, rows=None):
    """Sum of layers 0..L of propagation through ``adj``, one relation's
    CSR structure with its 1/sqrt(deg_u deg_v) edge values. Isolated nodes
    keep their layer-0 row. With ``rows`` (sorted unique node indices) only
    those rows are returned (see :func:`propagate_layers`)."""
    acc = base if rows is None else ad.gather(base, rows)
    for h in propagate_layers(adj, base, num_layers, rows):
        acc = ad.add(acc, h)
    return acc


def propagate_layers(adj: SparseMatrix, base, num_layers: int, rows=None) -> list:
    """Layers 1..L of propagation through ``adj`` from layer 0 ``base``.

    With ``rows`` (sorted unique node indices) each layer is returned at
    those rows only, bit-identical to the full layer's rows, and computed
    only where later layers read it: layer l on the receptive field R_l,
    from layer l-1 on R_{l-1}. Layer 1 reads ``base`` in place, so its
    x-adjoint is one dense table rather than gathered rows to scatter.
    """
    if num_layers < 1:
        raise ValueError("need at least one propagation layer")
    layers = []
    if rows is None:
        h = base
        for _ in range(num_layers):
            h = ad.spmm(adj.struct, adj.values, h)
            layers.append(h)
        return layers
    # [R_1, ..., R_L]: R_0 is never built, layer 1 reads all of ``base``
    fields = receptive_fields(adj.struct, rows, num_layers - 1)
    h, x_rows = base, None
    for l, field in enumerate(fields, start=1):
        h = ad.spmm_rows(adj.struct, adj.values, h, field, x_rows=x_rows)
        x_rows = field
        layers.append(h if l == num_layers
                      else ad.gather(h, np.searchsorted(field, rows)))
    return layers


def aggregate_relations(per_relation):
    """Elementwise sum of the relation-specific tables."""
    tables = list(per_relation.values()) if isinstance(per_relation, dict) else list(per_relation)
    if not tables:
        raise ValueError("need at least one relation table")
    shape = ad.val(tables[0]).shape
    for t in tables[1:]:
        if ad.val(t).shape != shape:
            raise ValueError(f"shape mismatch: {ad.val(t).shape} vs {shape}")
    out = tables[0]
    for t in tables[1:]:
        out = ad.add(out, t)
    return out
