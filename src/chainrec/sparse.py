"""Compressed sparse row structure for symmetric bipartite adjacency.

A :class:`CSRStruct` stores only the constant topology (both edge
directions, row-sorted).  Values live in a separate array so that the same
structure can carry binary weights, degree-normalized weights, or learnable
per-edge weights on the autodiff tape.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CSRStruct:
    """Row-sorted CSR topology: ``rows[k]`` and ``cols[k]`` are edge k's
    endpoints, and each row's columns ascend."""

    n: int
    indptr: np.ndarray
    cols: np.ndarray
    rows: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.cols.shape[0])


def build_struct(n: int, u: np.ndarray, v: np.ndarray) -> CSRStruct:
    """Build symmetric CSR topology from undirected pairs (u[i], v[i])."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    order = np.lexsort((cols, rows))
    rows = rows[order]
    cols = cols[order]
    counts = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRStruct(n=n, indptr=indptr, cols=cols, rows=rows)


def row_slice(struct: CSRStruct, rows: np.ndarray) -> tuple:
    """(indptr, edges) of the CSR rows ``rows``: ``edges`` lists the
    positions of their entries in struct order, row by row."""
    starts = struct.indptr[rows]
    counts = struct.indptr[rows + 1] - starts
    indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    edges = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
    return indptr, edges


def receptive_fields(struct: CSRStruct, rows, num_layers: int) -> list:
    """[R_0, ..., R_L] with R_L = ``rows`` and R_{l-1} = R_l plus the
    neighbours of R_l: the nodes whose layer-(l-1) rows a propagation to
    R_l reads. Each field is sorted and unique."""
    fields = [np.asarray(rows, dtype=np.int64)]
    mask = np.zeros(struct.n, dtype=bool)
    mask[fields[0]] = True
    # the neighbours of R_{l+1} are in R_l already, so only the nodes that
    # R_l added need expanding
    fresh = fields[0]
    for _ in range(num_layers):
        added = np.zeros(struct.n, dtype=bool)
        added[struct.cols[row_slice(struct, fresh)[1]]] = True
        added &= ~mask
        mask |= added
        fields.insert(0, np.flatnonzero(mask))
        fresh = np.flatnonzero(added)
    return fields


def sym_norm_values(struct: CSRStruct, dtype=np.float64) -> np.ndarray:
    """Per-edge 1/sqrt(deg_row * deg_col) for a binary adjacency."""
    deg = np.diff(struct.indptr).astype(dtype)
    return 1.0 / np.sqrt(deg[struct.rows] * deg[struct.cols])


@dataclass
class SparseMatrix:
    """A CSR topology paired with per-edge values (ndarray or tape Var)."""

    struct: CSRStruct
    values: object
