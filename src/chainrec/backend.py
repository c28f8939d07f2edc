"""Hot numeric kernels, one implementation each.

``spmm`` is scipy's CSR product; the other kernels are plain numpy.  All of
them accumulate in a fixed order, so results are reproducible run to run.
"""

import numpy as np
import scipy.sparse as sp


def numba_enabled() -> bool:
    """False: chainrec has no compiled kernel path."""
    # kept because perfbench/run.py reads it to report the kernel path
    return False


def set_workers(n: int) -> None:
    """Limit BLAS threads to ``n`` where ``threadpoolctl`` imports.

    Where it does not import, this does nothing.  scipy's CSR product is
    single-threaded either way, so ``n`` never changes ``spmm``; it only
    bounds the dense BLAS calls (matmul) when ``threadpoolctl`` is present.
    """
    if n < 1:
        return
    try:
        import threadpoolctl
    except ImportError:
        return
    threadpoolctl.threadpool_limits(limits=n, user_api="blas")


def spmm(indptr, cols, vals, x):
    """y[i] = sum over CSR row i of vals[k] * x[cols[k]], in ``x.dtype``."""
    a = sp.csr_matrix((vals, cols, indptr), shape=(indptr.shape[0] - 1, x.shape[0]))
    return (a @ x).astype(x.dtype, copy=False)


def spmm_grad_vals(rows, cols, g, x):
    """Per-edge gradient of spmm w.r.t. vals: dot(g[rows[k]], x[cols[k]])."""
    return np.einsum("ij,ij->i", g[rows], x[cols])


def scatter_add_rows(idx, g, n):
    """out[idx[k]] += g[k] into an (n, d) zero matrix; duplicate ids accumulate."""
    out = np.zeros((n, g.shape[1]), dtype=g.dtype)
    np.add.at(out, idx, g)
    return out


def segment_sum(idx, vals, n):
    """out[idx[k]] += vals[k] into a length-n zero vector."""
    return np.bincount(idx, weights=vals, minlength=n).astype(vals.dtype)
