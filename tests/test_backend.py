"""The kernels in ``chainrec.backend`` against independent oracles.

Each kernel has one implementation, so every check compares it with an
explicit Python loop (and ``spmm`` also with a dense product), never with
another kernel from the same module.
"""

import numpy as np
import pytest

from chainrec import backend
from chainrec.sparse import build_struct


def _random_csr(rng, n=40, m=200):
    u = rng.integers(0, n // 2, size=m)
    v = rng.integers(n // 2, n, size=m)
    pairs = np.unique(u * n + v)
    return build_struct(n, pairs // n, pairs % n)


def _spmm_loop(indptr, cols, vals, x):
    out = np.zeros((indptr.shape[0] - 1, x.shape[1]))
    for i in range(out.shape[0]):
        for k in range(indptr[i], indptr[i + 1]):
            out[i] += vals[k] * x[cols[k]]
    return out


def test_spmm_paths_agree():
    # the CSR product, a per-row loop and a dense A @ x give the same rows
    rng = np.random.default_rng(0)
    struct = _random_csr(rng)
    vals = rng.normal(size=struct.nnz)
    x = rng.normal(size=(struct.n, 8))
    out = backend.spmm(struct.indptr, struct.cols, vals, x)
    dense = np.zeros((struct.n, struct.n))
    dense[struct.rows, struct.cols] = vals
    np.testing.assert_allclose(out, _spmm_loop(struct.indptr, struct.cols, vals, x),
                               rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(out, dense @ x, rtol=1e-13, atol=1e-13)


def test_grad_and_scatter_paths_agree():
    # each kernel against an explicit loop over its entries
    rng = np.random.default_rng(1)
    struct = _random_csr(rng)
    g = rng.normal(size=(struct.n, 8))
    x = rng.normal(size=(struct.n, 8))
    expected = [sum(g[i, c] * x[j, c] for c in range(8))
                for i, j in zip(struct.rows, struct.cols)]
    np.testing.assert_allclose(
        backend.spmm_grad_vals(struct.rows, struct.cols, g, x), expected,
        rtol=1e-13, atol=1e-13)
    idx = rng.integers(0, 10, size=30)
    rows = rng.normal(size=(30, 4))
    vals = rng.normal(size=30)
    scattered = np.zeros((10, 4))
    summed = np.zeros(10)
    for k, i in enumerate(idx):
        scattered[i] += rows[k]
        summed[i] += vals[k]
    np.testing.assert_allclose(backend.scatter_add_rows(idx, rows, 10), scattered,
                               rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(backend.segment_sum(idx, vals, 10), summed,
                               rtol=1e-13, atol=1e-13)


def test_spmm_handles_empty_rows_and_matrix():
    # trailing and interior empty rows, then a matrix with no entries at all
    struct = build_struct(6, np.asarray([0]), np.asarray([3]))
    x = np.arange(12.0).reshape(6, 2)
    out = backend.spmm(struct.indptr, struct.cols, np.ones(struct.nnz), x)
    expected = np.zeros((6, 2))
    expected[0] = x[3]
    expected[3] = x[0]
    np.testing.assert_array_equal(out, expected)
    empty = build_struct(4, np.empty(0, np.int64), np.empty(0, np.int64))
    out = backend.spmm(empty.indptr, empty.cols, np.empty(0), x[:4])
    np.testing.assert_array_equal(out, np.zeros((4, 2)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_spmm_output_dtype_follows_x(dtype):
    # float64 edge values must not promote a float32 product
    rng = np.random.default_rng(2)
    struct = _random_csr(rng)
    vals = rng.normal(size=struct.nnz)
    x = rng.normal(size=(struct.n, 4)).astype(dtype)
    out = backend.spmm(struct.indptr, struct.cols, vals, x)
    assert out.dtype == dtype
    tol = 1e-5 if dtype == np.float32 else 1e-13
    np.testing.assert_allclose(out, _spmm_loop(struct.indptr, struct.cols, vals, x),
                               rtol=tol, atol=tol)


def test_kernels_bit_stable_across_workers():
    # the worker count must not change a single bit of any kernel's output
    rng = np.random.default_rng(3)
    struct = _random_csr(rng, n=200, m=2000)
    vals = rng.normal(size=struct.nnz)
    x = rng.normal(size=(struct.n, 16))
    backend.set_workers(1)
    one = backend.spmm(struct.indptr, struct.cols, vals, x)
    g1 = backend.spmm_grad_vals(struct.rows, struct.cols, one, x)
    backend.set_workers(2)
    two = backend.spmm(struct.indptr, struct.cols, vals, x)
    g2 = backend.spmm_grad_vals(struct.rows, struct.cols, two, x)
    backend.set_workers(1)
    np.testing.assert_array_equal(one, two)
    np.testing.assert_array_equal(g1, g2)
