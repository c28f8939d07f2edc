"""Compressed sparse row structure for symmetric bipartite adjacency.

A :class:`CSRStruct` stores only the constant topology (both edge
directions, row-sorted).  Values live in a separate array so that the same
structure can carry degree-normalized weights or learnable per-edge weights
on the autodiff tape.  A :class:`BlockStack` stacks several operators so
that one product propagates all of them; the model's one stack holds the
pattern union and, selected from its edges, every relation.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class CSRStruct:
    """Row-sorted CSR topology: ``rows[k]`` and ``cols[k]`` are edge k's
    endpoints, and each row's columns ascend. A :class:`BlockStack`'s
    structs and their blocks hold no ``rows`` (None): no product reads them."""

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
    return _csr(n, rows[order], cols[order])


def select_edges(struct: CSRStruct, keep: np.ndarray) -> CSRStruct:
    """The entries of ``struct`` where the mask ``keep`` holds, in struct
    order: :func:`build_struct` of the kept pairs, bit for bit."""
    return _csr(struct.n, struct.rows[keep], struct.cols[keep])


def _csr(n: int, rows: np.ndarray, cols: np.ndarray) -> CSRStruct:
    """The CSR topology of row-sorted entries."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return CSRStruct(n=n, indptr=indptr, cols=cols, rows=rows)


def index_dtype(rows: int, entries: int) -> np.dtype:
    """The dtype of a CSR matrix's indptr and columns: int32, which scipy
    takes without a copy, below 2^31 rows (and columns) and entries."""
    return np.dtype(np.int32 if max(rows, entries) < 2**31 else np.int64)


def row_slice(struct: CSRStruct, rows: np.ndarray) -> tuple:
    """(indptr, edges) of the CSR rows ``rows``, indptr in the struct's
    dtype: ``edges`` lists their entries' positions (intp), row by row."""
    starts = struct.indptr[rows]
    counts = struct.indptr[rows + 1] - starts
    indptr = np.zeros(rows.shape[0] + 1, dtype=struct.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    edges = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1], dtype=np.intp)
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


@dataclass(frozen=True)
class BlockStack:
    """Square operators over the same n nodes, stacked: row b*n + i is row i
    of block b. ``first`` reads the one layer-0 table that every block
    shares (column j), ``diag`` the stacked previous layer (column b*n + j);
    ``const`` holds the values of every edge after block 0's, whose values
    come with each product."""

    blocks: int
    first: CSRStruct
    const: object = None

    @cached_property
    def diag(self) -> CSRStruct:
        """Built on first use: only a training step's later layers read it."""
        first, n = self.first, self.first.n // self.blocks
        offset = np.repeat(np.arange(self.blocks) * n, np.diff(first.indptr[::n]))
        cols = np.add(first.cols, offset, dtype=first.cols.dtype)
        return CSRStruct(first.n, first.indptr, cols, None)


def stack_blocks(structs: list, const=None) -> BlockStack:
    """The operators ``structs`` as one :class:`BlockStack`."""
    n, k = structs[0].n, len(structs)
    ends = np.cumsum([0] + [s.nnz for s in structs])
    indptr = np.concatenate([s.indptr[:-1] + e for s, e in zip(structs, ends)] + [ends[-1:]])
    cols = np.concatenate([s.cols for s in structs], dtype=index_dtype(k * n, ends[-1]))
    return BlockStack(k, CSRStruct(k * n, indptr.astype(cols.dtype), cols, None), const)


def sym_norm_values(struct: CSRStruct, dtype=np.float64) -> np.ndarray:
    """Per-edge 1/sqrt(deg_row * deg_col) for a binary adjacency."""
    deg = np.diff(struct.indptr).astype(dtype)
    return 1.0 / np.sqrt(deg[struct.rows] * deg[struct.cols])
