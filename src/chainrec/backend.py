"""Hot numeric kernels, one implementation each.

``spmm`` and ``scatter_add_rows`` are scipy CSR products; the other kernels
are plain numpy.  All of them accumulate in a fixed order, so results are
reproducible run to run.
"""

import numpy as np
import scipy.sparse as sp

from .sparse import index_dtype


def numba_enabled() -> bool:
    """False: chainrec has no compiled kernel path."""
    # kept because perfbench/run.py reads it to report the kernel path
    return False


def spmm(indptr, cols, vals, x):
    """y[i] = sum over CSR row i of vals[k] * x[cols[k]], in ``x.dtype``."""
    a = sp.csr_matrix((vals, cols, indptr), shape=(indptr.shape[0] - 1, x.shape[0]))
    return (a @ x).astype(x.dtype, copy=False)


# Pairs per spmm_grad_vals block. The two gathered (block, d) copies stay
# cache-sized; gathering all pairs' rows at once streams two pairs x d copies
# through memory (2.6x slower at 600k pairs and d = 64). At d = 64 blocks
# of 1024 pairs or more page-faulted anew per block: 35 ms for 50k pairs.
GRAD_VALS_BLOCK = 512


def spmm_grad_vals(rows, cols, g, x):
    """Pairwise row dot products dot(g[rows[k]], x[cols[k]]), in the wider
    dtype, to which each gathered block is upcast: the ranking's float64
    scores of (user, item) pairs. It keeps the name of the spmm
    vals-gradient it once computed, by which perfbench wraps it."""
    out = np.empty(rows.shape[0], dtype=np.result_type(g, x))
    for start in range(0, rows.shape[0], GRAD_VALS_BLOCK):
        block = slice(start, start + GRAD_VALS_BLOCK)
        np.einsum("ij,ij->i", g[rows[block]].astype(out.dtype, copy=False),
                  x[cols[block]].astype(out.dtype, copy=False), out=out[block])
    return out


def scatter_add_rows(idx, g, n, out):
    """out[idx[k]] += g[k] into the (n, d) matrix ``out``; duplicate ids
    accumulate.

    Each id's rows are summed from zero in k order, then added to ``out``
    once: bit-equal to ``np.add.at`` into zeros, not into a nonzero ``out``.
    Distinct ids take one indexed add, repeated ones one product with the
    0/1 selection matrix of the distinct ids (a stable sort keeps k order),
    built here so that ``spmm`` stays the propagation product alone.
    """
    if np.bincount(idx, minlength=n).max(initial=0) <= 1:
        out[idx] += g
        return out
    order = np.argsort(idx, kind="stable")
    ids = idx[order]
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    dtype = index_dtype(order.shape[0], order.shape[0])
    sel = sp.csr_matrix((np.ones(order.shape[0], dtype=g.dtype), order.astype(dtype),
                         np.append(starts, order.shape[0]).astype(dtype)))
    out[ids[starts]] += sel @ g
    return out


def segment_sum(idx, vals, n):
    """out[idx[k]] += vals[k] into a length-n zero vector."""
    return np.bincount(idx, weights=vals, minlength=n).astype(vals.dtype)
