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
    np.testing.assert_allclose(backend.scatter_add_rows(idx, rows, 10, np.zeros((10, 4))),
                               scattered, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(backend.segment_sum(idx, vals, 10), summed,
                               rtol=1e-13, atol=1e-13)


B = backend.GRAD_VALS_BLOCK


# each side of the block boundaries of this block size, and of the 4096
# this kernel used before
@pytest.mark.parametrize("nnz", sorted({0, 5, B, B + 1, 3 * B + 17, 4096, 4097, 12305}))
@pytest.mark.parametrize("g_dtype,x_dtype", [(np.float64, np.float64),
                                             (np.float32, np.float32),
                                             (np.float32, np.float64)])
def test_spmm_grad_vals_blocks_match_one_einsum(nnz, g_dtype, x_dtype):
    # the blocked kernel is bit-equal to one einsum over every edge, on
    # either side of each block boundary, in the promoted dtype
    rng = np.random.default_rng(nnz)
    n, d = 300, 64
    rows = np.sort(rng.integers(0, n, size=nnz))
    cols = rng.integers(0, n, size=nnz)
    g = rng.normal(size=(n, d)).astype(g_dtype)
    x = rng.normal(size=(n, d)).astype(x_dtype)
    out = backend.spmm_grad_vals(rows, cols, g, x)
    assert out.dtype == np.result_type(g, x)
    np.testing.assert_array_equal(out, np.einsum("ij,ij->i", g[rows], x[cols]))


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


def test_kernels_bit_stable_run_to_run():
    # repeating a kernel call on the same inputs must not change a single
    # bit of its output (same-seed runs write byte-identical metrics)
    rng = np.random.default_rng(3)
    struct = _random_csr(rng, n=200, m=2000)
    vals = rng.normal(size=struct.nnz)
    x = rng.normal(size=(struct.n, 16))
    one = backend.spmm(struct.indptr, struct.cols, vals, x)
    g1 = backend.spmm_grad_vals(struct.rows, struct.cols, one, x)
    two = backend.spmm(struct.indptr, struct.cols, vals, x)
    g2 = backend.spmm_grad_vals(struct.rows, struct.cols, two, x)
    np.testing.assert_array_equal(one, two)
    np.testing.assert_array_equal(g1, g2)


def _add_at(idx, g, n):
    """The sequential reference: np.add.at adds g[k] into row idx[k] in k order."""
    out = np.zeros((n, g.shape[1]), dtype=g.dtype)
    np.add.at(out, idx, g)
    return out


SCATTER_IDS = {
    "empty": [],
    "sorted_unique": [0, 2, 5],
    # unsorted with repeats; rows 1, 4 and 6-8 stay untouched
    "unsorted_duplicates": [5, 0, 3, 5, 2, 0, 0, 9, 3, 5, 5],
    "one_row_many_times": [7] * 40,
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", sorted(SCATTER_IDS))
def test_scatter_add_rows_equals_sequential_add(name, dtype):
    # bit-equal to the sequential add, not merely close: every row must sum
    # its contributions in k order
    rng = np.random.default_rng(len(name))
    idx = np.asarray(SCATTER_IDS[name], dtype=np.int64)
    # mixed magnitudes make a reordered sum differ in the last bits
    g = (rng.normal(size=(idx.shape[0], 5))
         * 10.0 ** rng.integers(-8, 8, size=(idx.shape[0], 1))).astype(dtype)
    out = backend.scatter_add_rows(idx, g, 10, np.zeros((10, 5), dtype))
    want = _add_at(idx, g, 10)
    assert out.dtype == dtype and out.shape == (10, 5)
    assert np.array_equal(out, want)
    untouched = np.setdiff1d(np.arange(10), idx)
    assert not out[untouched].any()


def test_scatter_add_rows_bit_equal_on_a_large_shuffle():
    # many duplicates per row, as when four receptive-field gathers of one
    # table are joined in the backward pass
    rng = np.random.default_rng(11)
    idx = rng.permutation(np.repeat(np.arange(500), 4))[:1700]
    g = rng.normal(size=(idx.shape[0], 16)) * 10.0 ** rng.integers(-6, 6, size=(idx.shape[0], 1))
    out = backend.scatter_add_rows(idx, g, 600, np.zeros((600, 16)))
    assert np.array_equal(out, _add_at(idx, g, 600))


@pytest.mark.parametrize("name", sorted(SCATTER_IDS))
def test_scatter_add_rows_into_nonzero_out_adds_each_sum_once(name):
    # each id's rows are summed from zero, then added to out once; adding
    # them to out one by one (np.add.at into out) rounds differently
    rng = np.random.default_rng(100 + len(name))
    idx = np.asarray(SCATTER_IDS[name], dtype=np.int64)
    g = (rng.normal(size=(idx.shape[0], 5))
         * 10.0 ** rng.integers(-4, 4, size=(idx.shape[0], 1))).astype(np.float32)
    start = rng.normal(size=(10, 5)).astype(np.float32)
    out = backend.scatter_add_rows(idx, g, 10, out=start.copy())
    assert out.dtype == np.float32
    assert np.array_equal(out, start + _add_at(idx, g, 10))


def test_scatter_add_rows_does_not_go_through_spmm(monkeypatch):
    # the benchmark tracer counts backend.spmm calls as propagation
    # products; the scatter must not add to that count
    def fail(*args, **kwargs):
        raise AssertionError("scatter_add_rows called backend.spmm")

    monkeypatch.setattr(backend, "spmm", fail)
    idx = np.asarray([3, 1, 3])
    g = np.arange(6.0).reshape(3, 2)
    out = backend.scatter_add_rows(idx, g, 4, np.zeros((4, 2)))
    assert np.array_equal(out, _add_at(idx, g, 4))
