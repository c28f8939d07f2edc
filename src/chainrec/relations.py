"""Per-relation graph propagation and multi-relation aggregation.

Each relation gets its own LightGCN-style propagation: linear neighborhood
averaging with symmetric degree normalization, no feature transform, no
nonlinearity. Relation-specific embeddings sum layers 0..L (layer 0
included), and the multi-relation table is the sum over relations.
"""

from . import autodiff as ad
from .sparse import SparseMatrix


def lightgcn_propagate(adj: SparseMatrix, base, num_layers: int, rows=None):
    """Sum of layers 0..L of propagation through ``adj``, one relation's
    CSR structure with its 1/sqrt(deg_u deg_v) edge values. Isolated nodes
    keep their layer-0 row. With ``rows`` (sorted unique node indices) only
    those rows are returned, and the last layer is computed from their CSR
    rows alone."""
    if num_layers < 1:
        raise ValueError("need at least one propagation layer")
    h = base
    acc = base
    for _ in range(num_layers - 1):
        h = ad.spmm(adj.struct, adj.values, h)
        acc = ad.add(acc, h)
    if rows is None:
        return ad.add(acc, ad.spmm(adj.struct, adj.values, h))
    return ad.add(ad.gather(acc, rows), ad.spmm_rows(adj.struct, adj.values, h, rows))


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
