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
    """Row-sorted CSR topology with the reverse-edge permutation.

    ``rev[k]`` is the position of edge (cols[k], rows[k]); transposing a
    matrix on this structure is just ``vals[rev]``.
    """

    n: int
    indptr: np.ndarray
    cols: np.ndarray
    rows: np.ndarray
    rev: np.ndarray

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
    keys = rows * np.int64(n) + cols
    rev = np.searchsorted(keys, cols * np.int64(n) + rows)
    return CSRStruct(n=n, indptr=indptr, cols=cols, rows=rows, rev=rev)


def sym_norm_values(struct: CSRStruct, dtype=np.float64) -> np.ndarray:
    """Per-edge 1/sqrt(deg_row * deg_col) for a binary adjacency."""
    deg = np.diff(struct.indptr).astype(dtype)
    return 1.0 / np.sqrt(deg[struct.rows] * deg[struct.cols])


@dataclass
class SparseMatrix:
    """A CSR topology paired with per-edge values (ndarray or tape Var)."""

    struct: CSRStruct
    values: object
