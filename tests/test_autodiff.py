"""Finite-difference checks for every tape op, plus tape mechanics."""

import inspect
import warnings

import numpy as np
import pytest

from chainrec import autodiff as ad
from chainrec import backend
from chainrec.sparse import build_struct, receptive_fields, sym_norm_values


def fd_grad(fn, x, h=1e-6):
    """Central finite differences of a scalar-valued fn at x."""
    g = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = fn(x)
        flat[i] = old - h
        fm = fn(x)
        flat[i] = old
        gf[i] = (fp - fm) / (2 * h)
    return g


def check_op(build, x, rtol=1e-6, atol=1e-8):
    """build(x_var) -> scalar Var; compares tape grad with FD."""
    var = ad.Var(x.copy())
    out = build(var)
    ad.backward(out)
    num = fd_grad(lambda arr: float(ad.val(build(arr))), x.copy())
    np.testing.assert_allclose(var.grad, num, rtol=rtol, atol=atol)


RNG = np.random.default_rng(42)


class TestElementwise:
    def test_add_mul_broadcast(self):
        a = RNG.normal(size=(4, 3))
        b = RNG.normal(size=(3,))
        check_op(lambda v: ad.asum(ad.mul(ad.add(v, b), b)), a)
        vb = ad.Var(b.copy())
        out = ad.asum(ad.mul(a, vb))
        ad.backward(out)
        np.testing.assert_allclose(vb.grad, a.sum(axis=0))

    def test_scalar_times_matrix(self):
        a = RNG.normal(size=(3, 2))
        s = np.asarray(1.7)
        check_op(lambda v: ad.asum(ad.mul(v, a)), s)

    @pytest.mark.parametrize("op", [ad.softplus, lambda x: ad.leaky_relu(x, 0.01),
                                    ad.softmax])
    def test_vector_nonlinearities(self, op):
        x = RNG.normal(size=(6,)) + 0.3  # keep clear of the leaky kink
        check_op(lambda v: ad.asum(ad.mul(op(v), np.arange(1.0, 7.0))), x)

    @pytest.mark.parametrize("logit", [np.float32(-100.0), np.float64(-800.0)],
                             ids=["float32", "float64"])
    def test_softplus_gradient_at_very_negative_logits_is_exactly_zero(self, logit):
        # exp(-x) overflows to inf there, and g / inf = 0 is the exact limit
        v = ad.Var(np.asarray([logit, 0.0], dtype=logit.dtype))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ad.backward(ad.asum(ad.softplus(v)))
        assert v.grad.dtype == logit.dtype
        np.testing.assert_array_equal(v.grad, [0.0, 0.5])

    def test_rsqrt_and_reciprocal_zero_guard(self):
        x = np.asarray([4.0, 0.0, 1.0])
        assert np.allclose(ad.rsqrt_safe(x), [0.5, 0.0, 1.0])
        assert np.allclose(ad.reciprocal_safe(x), [0.25, 0.0, 1.0])
        pos = np.asarray([4.0, 9.0])
        check_op(lambda v: ad.asum(ad.mul(ad.rsqrt_safe(v), [1.0, 2.0])), pos)
        check_op(lambda v: ad.asum(ad.mul(ad.reciprocal_safe(v), [1.0, 2.0])), pos)


class TestMatmulShaping:
    def test_matmul_both_sides(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        check_op(lambda v: ad.asum(ad.matmul(v, b)), a)
        check_op(lambda v: ad.asum(ad.matmul(a, v)), b)

    def test_matvec(self):
        a = RNG.normal(size=(3, 4))
        x = RNG.normal(size=(4,))
        check_op(lambda v: ad.asum(ad.matmul(v, x)), a)
        check_op(lambda v: ad.asum(ad.matmul(a, v)), x)

    def test_transpose_concat_reshape(self):
        a = RNG.normal(size=(2, 3))
        ct = RNG.normal(size=(3, 2))
        check_op(lambda v: ad.asum(ad.mul(ad.transpose(v), ct)), a)
        b = RNG.normal(size=(2, 2))
        cc = RNG.normal(size=(2, 5))
        check_op(lambda v: ad.asum(ad.mul(ad.concat([v, b], axis=1), cc)), a)
        cr = RNG.normal(size=(3, 2))
        check_op(lambda v: ad.asum(ad.mul(ad.reshape(v, (3, 2)), cr)), a)

    def test_gather_scatter_with_repeats(self):
        x = RNG.normal(size=(5, 3))
        idx = np.asarray([0, 2, 2, 4])
        coeff = RNG.normal(size=(4, 3))
        check_op(lambda v: ad.asum(ad.mul(ad.gather(v, idx), coeff)), x)
        w = RNG.normal(size=(5,))  # 1-D gather uses the segment-sum adjoint
        check_op(lambda v: ad.asum(ad.mul(ad.gather(v, idx), np.arange(4.0))), w)

    def test_rowdot_sumsq_fill_stack(self):
        a = RNG.normal(size=(4, 3))
        b = RNG.normal(size=(4, 3))
        check_op(lambda v: ad.asum(ad.mul(ad.rowdot(v, b), np.arange(4.0))), a)
        check_op(ad.sumsq, a)
        s = np.asarray(0.7)
        cf = RNG.normal(size=(2, 3))
        check_op(lambda v: ad.asum(ad.mul(ad.fill(v, (2, 3)), cf)), s)
        x = RNG.normal(size=(3,))
        check_op(lambda v: ad.asum(ad.mul(ad.stack_scalars(
            [ad.asum(ad.mul(v, 2.0)), ad.sumsq(v), ad.asum(v)]), np.arange(3.0))), x)


class TestNormalizations:
    def test_row_normalize(self):
        x = RNG.normal(size=(4, 3))
        c = RNG.normal(size=(4, 3))
        check_op(lambda v: ad.asum(ad.mul(ad.row_normalize(v), c)), x)

    def test_row_normalize_zero_row(self):
        x = np.asarray([[0.0, 0.0], [3.0, 4.0]])
        y = ad.row_normalize(x)
        np.testing.assert_allclose(y, [[0.0, 0.0], [0.6, 0.8]])

    def test_logsumexp_take_diag(self):
        x = RNG.normal(size=(4, 4))
        check_op(lambda v: ad.asum(ad.mul(ad.logsumexp_rows(v), np.arange(4.0))), x)
        check_op(lambda v: ad.asum(ad.mul(ad.take_diag(v), np.arange(4.0))), x)


def _chained_sum(items, scale):
    """The sum of ``items`` as chained ``add`` calls, then ``mul`` by scale."""
    out = items[0]
    for t in items[1:]:
        out = ad.add(out, t)
    return out if scale is None else ad.mul(out, scale)


class TestAddN:
    """add_n is bit-identical to chained add then mul, forward and backward,
    and leaves its inputs alone."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("scale", [None, 1.0 / 3.0])
    @pytest.mark.parametrize("count", [2, 3, 7])
    def test_matches_chained_add_then_mul(self, count, scale, dtype):
        rng = np.random.default_rng(count)
        arrays = [rng.normal(size=(5, 4)).astype(dtype) for _ in range(count)]
        got, want = ad.add_n(arrays, scale), _chained_sum(arrays, scale)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
        weight = rng.normal(size=(5, 4))
        grads = []
        for fn in (ad.add_n, _chained_sum):
            xs = [ad.Var(a) for a in arrays]
            ad.backward(ad.asum(ad.mul(fn(xs, scale), weight)))
            grads.append([x.grad for x in xs])
        for g_got, g_want in zip(*grads):
            assert g_got.dtype == g_want.dtype and np.array_equal(g_got, g_want)

    def test_writes_no_input(self):
        arrays = [np.full((3, 2), float(i)) for i in range(4)]
        copies = [a.copy() for a in arrays]
        ad.add_n(arrays, 0.5)
        for a, c in zip(arrays, copies):
            assert np.array_equal(a, c)

    def test_one_input_without_scale_is_returned(self):
        x = ad.Var(np.ones((2, 2)))
        assert ad.add_n([x]) is x
        np.testing.assert_array_equal(ad.add_n([x.value], 0.5), np.full((2, 2), 0.5))


def _chain_step_by_gathers(a, split, w_top, w_bottom):
    """A chain step as two row gathers, two transposed matmuls and a concat."""
    n = ad.val(a).shape[0]
    top = ad.matmul(ad.gather(a, np.arange(split)), ad.transpose(w_top))
    bottom = ad.matmul(ad.gather(a, np.arange(split, n)), ad.transpose(w_bottom))
    return ad.concat([top, bottom], axis=0)


class TestSplitRowsMatmul:
    """The chain-step op against the gathers, matmuls and concat it
    replaces: the same output and weight gradients, bit for bit, and a
    dense input gradient summed where ``backward`` sums dense gradients."""

    @pytest.mark.parametrize("gather_first", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("split", [0, 2, 40])
    def test_matches_gathers_and_concat(self, split, dtype, gather_first):
        rng = np.random.default_rng(split)
        a, wt, wb = (rng.normal(size=s).astype(dtype) for s in ((40, 3), (3, 3), (3, 3)))
        dense_w, row_w = rng.normal(size=(40, 3)), rng.normal(size=(40, 3))
        idx = rng.permutation(40)
        results = []
        for step in (ad.split_rows_matmul, _chain_step_by_gathers):
            xs = [ad.Var(v) for v in (a, wt, wb)]
            out = step(xs[0], split, xs[1], xs[2])
            # the input also gets a dense gradient and a row gradient, which
            # backward reaches before or after the step's own
            terms = [ad.asum(ad.mul(ad.add(out, xs[0]), dense_w)),
                     ad.asum(ad.mul(ad.gather(xs[0], idx), row_w))]
            ad.backward(ad.add(*terms[::-1] if gather_first else terms))
            results.append([out.value] + [x.grad for x in xs])
        (out, grad_a, *grad_w), (want_out, gathers_a, *want_w) = results
        for got, want in zip([out, *grad_w], [want_out, *want_w]):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # the step's input gradient joins the add's dense one, and the row
        # gradient is scattered onto their sum, whichever term comes first;
        # the gathers' row gradients sum in that order when theirs are
        # scattered before the other gather's
        want_a = np.vstack([dense_w[:split] @ wt, dense_w[split:] @ wb]) + dense_w
        want_a[idx] += row_w
        assert grad_a.dtype == want_a.dtype and np.array_equal(grad_a, want_a)
        if not gather_first:
            assert np.array_equal(gathers_a, want_a)

    def test_out_receives_the_product(self):
        rng = np.random.default_rng(4)
        a, wt, wb = rng.normal(size=(5, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        out = np.empty((5, 3))
        assert ad.split_rows_matmul(a, 2, wt, wb, out=out) is out
        np.testing.assert_array_equal(out, ad.split_rows_matmul(a, 2, wt, wb))

    @pytest.mark.parametrize("split", [0, 5])
    def test_split_at_either_end_uses_one_transform(self, split):
        rng = np.random.default_rng(3)
        a, wt, wb = rng.normal(size=(5, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        used = wt if split else wb
        np.testing.assert_array_equal(ad.split_rows_matmul(a, split, wt, wb), a @ used.T)
        coeff = rng.normal(size=(5, 3))
        for pos, x in enumerate((a, wt, wb)):
            def build(v, pos=pos):
                args = [a, wt, wb]
                args[pos] = v
                return ad.asum(ad.mul(ad.split_rows_matmul(args[0], split, *args[1:]),
                                      coeff))
            check_op(build, x)
        unused = ad.Var(wb if split else wt)
        args = (wt, unused) if split else (unused, wb)
        ad.backward(ad.asum(ad.mul(ad.split_rows_matmul(a, split, *args), coeff)))
        np.testing.assert_array_equal(unused.grad, np.zeros((3, 3)))


class TestSpmm:
    def _fixture(self):
        u = np.asarray([0, 0, 1, 2])
        v = np.asarray([3, 4, 3, 5])
        struct = build_struct(6, u, v)
        return struct

    def test_spmm_matches_dense(self):
        struct = self._fixture()
        vals = sym_norm_values(struct)
        x = RNG.normal(size=(6, 3))
        dense = np.zeros((6, 6))
        dense[struct.rows, struct.cols] = vals
        np.testing.assert_allclose(ad.spmm(struct, vals, x), dense @ x, atol=1e-12)

    def test_spmm_grads(self):
        struct = self._fixture()
        vals = RNG.normal(size=(struct.nnz,))
        x = RNG.normal(size=(6, 3))
        coeff = RNG.normal(size=(6, 3))
        check_op(lambda v: ad.asum(ad.mul(ad.spmm(struct, vals, v), coeff)), x)


def _spmm_rows_fixture(n, dtype=np.float64):
    # 12 users, n - 12 items; users 0-1 and items 28-29 have no edges
    rng = np.random.default_rng(5)
    u = rng.integers(2, 12, size=120)
    v = rng.integers(12, 28, size=120)
    keys = np.unique(u * n + v)
    struct = build_struct(n, keys // n, keys % n)
    vals = rng.normal(size=struct.nnz).astype(dtype)
    x = rng.normal(size=(n, 4)).astype(dtype)
    return struct, vals, x, rng


def transposed_vals(struct, vals):
    """Values of the transposed matrix on the struct's symmetric pattern."""
    dense = np.zeros((struct.n, struct.n), dtype=vals.dtype)
    dense[struct.rows, struct.cols] = vals
    return dense.T[struct.rows, struct.cols]


class TestSpmmRows:
    """spmm_rows against the full product: exact rows and exact x-adjoints."""

    N = 30

    def _fixture(self, dtype=np.float64):
        return _spmm_rows_fixture(self.N, dtype)

    ROWS = {
        "empty": [],
        "single": [14],
        "zero_degree": [0, 1, 28, 29],
        "mixed": [0, 3, 7, 12, 13, 20, 29],
        "all": list(range(N)),
    }

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_forward_and_adjoints_equal_the_full_products(self, name, dtype):
        struct, vals, x, rng = self._fixture(dtype)
        rows = np.asarray(self.ROWS[name], dtype=np.int64)
        full = backend.spmm(struct.indptr, struct.cols, vals, x)
        got = ad.spmm_rows(struct, vals, x, rows)
        assert got.dtype == dtype and got.shape == (rows.shape[0], 4)
        assert np.array_equal(got, full[rows])

        g = rng.normal(size=(rows.shape[0], 4)).astype(dtype)
        xv = ad.Var(x.copy())
        ad.backward(ad.asum(ad.mul(ad.spmm_rows(struct, vals, xv, rows), g)))
        g_full = np.zeros_like(x)
        g_full[rows] = g
        want_x = backend.spmm(struct.indptr, struct.cols,
                              transposed_vals(struct, vals), g_full)
        assert xv.grad.dtype == dtype
        assert np.array_equal(xv.grad, want_x)
        if name == "all":
            # spmm is spmm_rows at every row: same forward, same adjoint
            assert np.array_equal(ad.spmm(struct, vals, x), got)
            xs = ad.Var(x.copy())
            ad.backward(ad.asum(ad.mul(ad.spmm(struct, vals, xs), g)))
            assert np.array_equal(xs.grad, xv.grad) and xs.grad.dtype == dtype

    @pytest.mark.parametrize("name", ["single", "mixed", "all"])
    def test_grads_match_finite_differences(self, name):
        struct, vals, x, rng = self._fixture()
        rows = np.asarray(self.ROWS[name], dtype=np.int64)
        coeff = rng.normal(size=(rows.shape[0], 4))
        check_op(lambda v: ad.asum(ad.mul(ad.spmm_rows(struct, vals, v, rows), coeff)),
                 x)


class TestSpmmRowsCompactX:
    """spmm_rows with ``x_rows``: x and its adjoint compact over x_rows."""

    N = TestSpmmRows.N

    def _fixture(self, rows, dtype=np.float64):
        struct, vals, x, rng = _spmm_rows_fixture(self.N, dtype)
        rows = np.asarray(rows, dtype=np.int64)
        # the rows' neighbours plus a few extra nodes, as a wider field has
        x_rows = receptive_fields(struct, rows, 1)[0]
        x_rows = np.union1d(x_rows, [1, 12, 29])
        return struct, vals, x, rng, rows, x_rows

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", sorted(TestSpmmRows.ROWS))
    def test_forward_and_adjoints_equal_the_full_products(self, name, dtype):
        struct, vals, x, rng, rows, x_rows = self._fixture(TestSpmmRows.ROWS[name], dtype)
        full = backend.spmm(struct.indptr, struct.cols, vals, x)
        got = ad.spmm_rows(struct, vals, x[x_rows], rows, x_rows=x_rows)
        assert got.dtype == dtype and got.shape == (rows.shape[0], 4)
        assert np.array_equal(got, full[rows])

        g = rng.normal(size=(rows.shape[0], 4)).astype(dtype)
        xv = ad.Var(x[x_rows])
        ad.backward(ad.asum(ad.mul(ad.spmm_rows(struct, vals, xv, rows, x_rows=x_rows), g)))
        g_full = np.zeros_like(x)
        g_full[rows] = g
        want_x = backend.spmm(struct.indptr, struct.cols,
                              transposed_vals(struct, vals), g_full)
        assert xv.grad.shape == (x_rows.shape[0], 4) and xv.grad.dtype == dtype
        assert np.array_equal(xv.grad, want_x[x_rows])

    @pytest.mark.parametrize("name", ["single", "mixed", "all"])
    def test_grads_match_finite_differences(self, name):
        struct, vals, x, rng, rows, x_rows = self._fixture(TestSpmmRows.ROWS[name])
        coeff = rng.normal(size=(rows.shape[0], 4))
        xc = x[x_rows]

        check_op(lambda v: ad.asum(ad.mul(
            ad.spmm_rows(struct, vals, v, rows, x_rows=x_rows), coeff)), xc)


    def test_x_rows_missing_a_column_raises(self):
        struct, vals, x, _, rows, x_rows = self._fixture(TestSpmmRows.ROWS["single"])
        short = x_rows[x_rows != struct.cols[struct.indptr[14]]]
        with pytest.raises(ValueError, match="x_rows"):
            ad.spmm_rows(struct, vals, x[short], rows, x_rows=short)


def _bfs_fields(struct, rows, num_layers):
    """Receptive fields by an explicit breadth-first walk over neighbour sets."""
    nbrs = [set() for _ in range(struct.n)]
    for i, j in zip(struct.rows, struct.cols):
        nbrs[i].add(int(j))
    fields = [set(int(r) for r in rows)]
    for _ in range(num_layers):
        grown = set(fields[0])
        for node in fields[0]:
            grown |= nbrs[node]
        fields.insert(0, grown)
    return [np.asarray(sorted(f), dtype=np.int64) for f in fields]


class TestReceptiveFields:
    # two components: a path 0-1-2-3-4 and a star 6-{7, 8, 9}; node 5 is isolated
    U = np.asarray([0, 1, 2, 3, 6, 6, 6])
    V = np.asarray([1, 2, 3, 4, 7, 8, 9])
    ROWS = {"empty": [], "isolated": [5], "path_end": [0], "star_leaf": [7],
            "mixed": [2, 5, 9], "all": list(range(10))}

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_fields_match_a_bfs(self, name, layers):
        struct = build_struct(10, self.U, self.V)
        rows = np.asarray(self.ROWS[name], dtype=np.int64)
        got = receptive_fields(struct, rows, layers)
        want = _bfs_fields(struct, rows, layers)
        assert len(got) == layers + 1
        for field, expected in zip(got, want):
            assert field.dtype == np.int64
            np.testing.assert_array_equal(field, expected)
        np.testing.assert_array_equal(got[-1], rows)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_fields_match_a_bfs_on_a_random_graph(self, layers):
        struct, _, _, _ = _spmm_rows_fixture(TestSpmmRows.N)
        rows = np.asarray(TestSpmmRows.ROWS["mixed"], dtype=np.int64)
        got = receptive_fields(struct, rows, layers)
        for field, expected in zip(got, _bfs_fields(struct, rows, layers)):
            np.testing.assert_array_equal(field, expected)


class TestAccumulation:
    """Row-sparse gather gradients and in-place accumulation in backward."""

    IDX = ([0, 2, 2, 5], [2, 3, 0], [5, 5, 1, 2, 0])

    def _three_gathers_and_dense(self, table, coeffs, dense_coeff):
        out = ad.asum(ad.mul(table, dense_coeff))
        for idx, c in zip(self.IDX, coeffs):
            out = ad.add(ad.asum(ad.mul(ad.gather(table, idx), c)), out)
        return out

    def test_repeated_gathers_match_fd_and_add_at(self):
        x = RNG.normal(size=(6, 3))
        coeffs = [RNG.normal(size=(len(i), 3)) for i in self.IDX]
        dense_coeff = RNG.normal(size=(6, 3))
        expected = dense_coeff.copy()
        for idx, c in zip(self.IDX, coeffs):
            np.add.at(expected, idx, c)
        var = ad.Var(x.copy())
        ad.backward(self._three_gathers_and_dense(var, coeffs, dense_coeff))
        np.testing.assert_allclose(var.grad, expected, rtol=0, atol=1e-12)
        check_op(lambda v: self._three_gathers_and_dense(v, coeffs, dense_coeff), x)
        # gathered from an intermediate node, the joined rows flow on
        scale = RNG.normal(size=(6, 3))
        var = ad.Var(x.copy())
        ad.backward(self._three_gathers_and_dense(ad.mul(var, scale), coeffs,
                                                  dense_coeff))
        np.testing.assert_allclose(var.grad, expected * scale, rtol=0, atol=1e-12)
        # gathers only: the leaf's gradient is the scatter alone
        var = ad.Var(x.copy())
        ad.backward(self._three_gathers_and_dense(var, coeffs, np.zeros((6, 3))))
        np.testing.assert_allclose(var.grad, expected - dense_coeff,
                                   rtol=0, atol=1e-12)

    # Only leaves keep ``.grad``. Each test below gives a leaf ``w`` the
    # same gradient buffer that add passes through to other nodes, so an
    # in-place write into a buffer backward does not own shows in w.grad.

    def test_add_of_a_node_with_itself(self):
        x = ad.Var(RNG.normal(size=(2, 3)))
        w = ad.Var(RNG.normal(size=(2, 3)))
        c = RNG.normal(size=(2, 3))
        s = ad.add(ad.add(x, x), w)
        ad.backward(ad.asum(ad.mul(s, c)))
        np.testing.assert_array_equal(w.grad, c)
        np.testing.assert_array_equal(x.grad, c + c)

    def test_add_of_a_reshape_and_its_source(self):
        x = ad.Var(RNG.normal(size=(3,)))
        w = ad.Var(RNG.normal(size=(1, 3)))
        c = RNG.normal(size=(1, 3))
        d = RNG.normal(size=(3,))
        s = ad.add(ad.add(ad.reshape(x, (1, 3)), x), w)
        out = ad.add(ad.asum(ad.mul(s, c)), ad.asum(ad.mul(x, d)))
        ad.backward(out)
        np.testing.assert_array_equal(w.grad, c)
        np.testing.assert_allclose(x.grad, 2 * c[0] + d, rtol=0, atol=1e-15)

    def test_passed_through_gradient_is_not_written(self):
        # add hands its own g to both parents; x then gets two more
        # contributions, none of which may land in z's or y's gradient,
        # which the leaves wz and wy share
        x = ad.Var(RNG.normal(size=(4,)))
        wy = ad.Var(RNG.normal(size=(4,)))
        wz = ad.Var(RNG.normal(size=(4,)))
        c = RNG.normal(size=(4,))
        d = RNG.normal(size=(4,))
        y = ad.add(ad.add(x, x), wy)
        z = ad.add(ad.add(y, x), wz)
        ad.backward(ad.add(ad.asum(ad.mul(z, c)), ad.asum(ad.mul(y, d))))
        np.testing.assert_array_equal(wz.grad, c)
        np.testing.assert_allclose(wy.grad, c + d, rtol=0, atol=1e-15)
        np.testing.assert_allclose(x.grad, 3 * c + 2 * d, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("fresh_first", [False, True])
    def test_fresh_sums_leave_a_passed_through_gradient_alone(self, fresh_first,
                                                              monkeypatch):
        # add hands the one g it got to x and to the leaf w; x also gets a
        # fresh matmul and a fresh spmm gradient, summed in place
        struct, vals, _, _ = _spmm_rows_fixture(30)
        x = ad.Var(RNG.normal(size=(30, 3)))
        w = ad.Var(RNG.normal(size=(30, 3)))
        m, c, d, e = (RNG.normal(size=s) for s in ((3, 2), (30, 3), (30, 2), (30, 3)))
        flags = []

        def spy(acc, pg, in_place, _fn=ad._accumulate):
            flags.append(in_place)
            return _fn(acc, pg, in_place)

        monkeypatch.setattr(ad, "_accumulate", spy)
        terms = [ad.asum(ad.mul(ad.add(x, w), c)),
                 ad.add(ad.asum(ad.mul(ad.matmul(x, m), d)),
                        ad.asum(ad.mul(ad.spmm(struct, vals, x), e)))]
        ad.backward(ad.add(*(terms[::-1] if fresh_first else terms)))
        np.testing.assert_array_equal(w.grad, c)
        want = c + d @ m.T + backend.spmm(struct.indptr, struct.cols,
                                          transposed_vals(struct, vals), e)
        np.testing.assert_allclose(x.grad, want, rtol=1e-13, atol=1e-13)
        # both sums write into a fresh buffer, never into add's g
        assert flags == [True, True]

    @pytest.mark.parametrize("fresh_first", [False, True])
    def test_fresh_sums_leave_held_arrays_and_values_alone(self, fresh_first):
        # one VJP returns an array it holds, another a node's value
        x = ad.Var(RNG.normal(size=(4, 3)))
        y = ad.Var(RNG.normal(size=(4, 3)))
        held = RNG.normal(size=(4, 3))
        before = held.copy(), y.value.copy()
        m, d = RNG.normal(size=(3, 2)), RNG.normal(size=(4, 2))
        odd = ad.add(ad._record(np.zeros(()), (x,), lambda g: held),
                     ad._record(np.zeros(()), (x,), lambda g: y.value))
        fresh = ad.asum(ad.mul(ad.matmul(x, m), d))
        ad.backward(ad.add(fresh, odd) if fresh_first else ad.add(odd, fresh))
        np.testing.assert_array_equal(held, before[0])
        np.testing.assert_array_equal(y.value, before[1])
        np.testing.assert_allclose(x.grad, before[0] + before[1] + d @ m.T,
                                   rtol=1e-14, atol=1e-14)

    def test_only_leaves_keep_a_gradient(self):
        x = ad.Var(RNG.normal(size=(3, 2)))
        inner = ad.mul(x, 2.0)
        out = ad.asum(ad.gather(inner, [0, 2, 2]))
        ad.backward(out)
        assert inner.grad is None and out.grad is None
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [4.0, 4.0]])

    @pytest.mark.parametrize("use_rows", [False, True])
    @pytest.mark.parametrize("f32_first", [False, True])
    @pytest.mark.parametrize("dense_dtype", [np.float32, np.float64])
    def test_float32_gradients_keep_numpy_promotion(self, use_rows, f32_first,
                                                    dense_dtype):
        # take_diag's backward casts to its input's dtype, so a float32
        # table gets float32 contributions through it even under a float64
        # seed; with one float64 contribution numpy promotes the sum
        t = ad.Var(RNG.normal(size=(6, 3)).astype(np.float32))
        part = ad.gather(t, [0, 2, 2, 5]) if use_rows else t
        f32_branch = ad.asum(ad.mul(ad.take_diag(ad.matmul(part, ad.transpose(part))),
                                    np.ones(ad.val(part).shape[0], np.float32)))
        dense_branch = ad.asum(ad.mul(t, np.ones((6, 3), dense_dtype)))
        out = (ad.add(f32_branch, dense_branch) if f32_first
               else ad.add(dense_branch, f32_branch))
        ad.backward(out)
        assert t.grad.dtype == dense_dtype
        w = ad.Var(RNG.normal(size=(6,)).astype(np.float32))  # 1-D gather
        ad.backward(ad.asum(ad.mul(ad.gather(w, [1, 1, 4]),
                                   np.ones(3, dtype=dense_dtype))))
        assert w.grad.dtype == dense_dtype


def test_backward_accumulates_shared_nodes():
    x = ad.Var(np.asarray([2.0, 3.0]))
    y = ad.mul(x, x)          # x^2
    out = ad.asum(ad.add(y, y))  # 2x^2 -> d/dx = 4x
    ad.backward(out)
    np.testing.assert_allclose(x.grad, [8.0, 12.0])


def test_plain_ndarray_path_returns_ndarray():
    a = np.ones((2, 2))
    assert isinstance(ad.matmul(a, a), np.ndarray)
    assert isinstance(ad.softmax(np.zeros(3)), np.ndarray)


def _op_cases():
    """name -> build(wrap, dtype): one call of a tape op whose tensor inputs
    pass through ``wrap`` (identity for the ndarray call, Var for the tape)."""
    rng = np.random.default_rng(11)
    m, m2, sq = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4, 4))
    v3, v4 = rng.normal(size=3), rng.normal(size=4)
    s = np.asarray(0.7)
    struct, vals, x, _ = _spmm_rows_fixture(30)
    w3, w3b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))

    def case(fn, *arrays):
        return lambda wrap, dtype: fn(*(wrap(a.astype(dtype)) for a in arrays))

    return {
        "add": case(ad.add, m, v3),
        "add_n": case(lambda a, b, c: ad.add_n([a, b, c, a], scale=0.5), m, v3, m2),
        "split_rows_matmul": case(lambda a, wt, wb: ad.split_rows_matmul(a, 1, wt, wb),
                                  m, w3, w3b),
        "mul": case(ad.mul, m, m2),
        "mul_scalar": case(lambda a: ad.mul(a, -1.0), m),
        "matmul": case(ad.matmul, m, m2.T),
        "matvec": case(ad.matmul, m, v3),
        "vecmat": case(ad.matmul, v4, m),
        "transpose": case(ad.transpose, m),
        "asum": case(ad.asum, m),
        "sumsq": case(ad.sumsq, m),
        "rowdot": case(ad.rowdot, m, m2),
        "gather": case(lambda a: ad.gather(a, [3, 0, 3]), m),
        "gather_1d": case(lambda a: ad.gather(a, [2, 2, 0]), v4),
        "reshape": case(lambda a: ad.reshape(a, (3, 4)), m),
        "concat": case(lambda a, b: ad.concat([a, b], axis=1), m, m2),
        "stack_scalars": case(lambda a, b: ad.stack_scalars([a, b]), s, s * 2),
        "fill": case(lambda a: ad.fill(a, (2, 3)), s),
        "softmax": case(ad.softmax, v4),
        "softplus": case(ad.softplus, m),
        "leaky_relu": case(lambda a: ad.leaky_relu(a, 0.01), m),
        "rsqrt_safe": case(ad.rsqrt_safe, np.abs(v4) * [1, 0, 1, 1]),
        "reciprocal_safe": case(ad.reciprocal_safe, v4 * [1, 0, 1, 1]),
        "row_normalize": case(ad.row_normalize, m * [[1], [0], [1], [1]]),
        "logsumexp_rows": case(ad.logsumexp_rows, m),
        "take_diag": case(ad.take_diag, sq),
        # the values are constants, never wrapped
        "spmm": lambda wrap, dtype: ad.spmm(struct, vals.astype(dtype),
                                            wrap(x.astype(dtype))),
        "spmm_rows": lambda wrap, dtype: ad.spmm_rows(struct, vals.astype(dtype),
                                                      wrap(x.astype(dtype)), [3, 14, 29]),
    }


OP_CASES = _op_cases()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_ndarray_call_matches_var_call(name, dtype):
    plain = OP_CASES[name](lambda a: a, dtype)
    taped = OP_CASES[name](ad.Var, dtype)
    assert not isinstance(plain, ad.Var) and isinstance(taped, ad.Var)
    assert np.asarray(plain).dtype == taped.value.dtype == dtype
    assert np.array_equal(plain, taped.value)


def test_every_public_op_has_a_parity_case():
    ops = {name for name, fn in inspect.getmembers(ad, inspect.isfunction)
           if fn.__module__ == ad.__name__ and not name.startswith("_")}
    assert ops - {"val", "backward"} - set(OP_CASES) == set()


def _position_cases():
    """name -> (build(v) -> scalar, x): one input of a multi-input op is the
    Var; every other input is a plain ndarray, so each adjoint must reach
    the input at its own position."""
    rng = np.random.default_rng(13)
    m, m2, m3 = (rng.normal(size=(4, 3)) for _ in range(3))
    v3, v4 = rng.normal(size=3), rng.normal(size=4)
    struct, vals, x, _ = _spmm_rows_fixture(30)
    rows = TestSpmmRows.ROWS["mixed"]
    w3, w3b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))

    def weighted(out):
        return ad.asum(ad.mul(out, np.arange(1.0, ad.val(out).size + 1)
                              .reshape(ad.val(out).shape)))

    return {
        "add_second": (lambda v: weighted(ad.add(m, v)), v3),
        "add_n_first": (lambda v: weighted(ad.add_n([v, m, m3])), m2),
        "add_n_broadcast_scaled": (lambda v: weighted(ad.add_n([m, m3, v], 0.25)), v3),
        "split_rows_matmul_rows": (lambda v: weighted(ad.split_rows_matmul(v, 3, w3, w3b)), m),
        "split_rows_matmul_top": (lambda v: weighted(ad.split_rows_matmul(m, 3, v, w3b)), w3),
        "split_rows_matmul_bottom": (lambda v: weighted(ad.split_rows_matmul(m, 3, w3, v)), w3b),
        "rowdot_second": (lambda v: weighted(ad.rowdot(m, v)), m2),
        "concat_axis0_middle": (lambda v: weighted(ad.concat([m, v, m3], axis=0)), m2),
        "concat_axis1_second": (lambda v: weighted(ad.concat([m, v], axis=1)), m2),
        "stack_scalars_second": (lambda v: weighted(ad.stack_scalars(
            [np.asarray(0.3), ad.sumsq(v)])), v3),
        "spmm_rows_x": (lambda v: weighted(ad.spmm_rows(struct, vals, v, rows)), x),
        "vecmat_vector": (lambda v: weighted(ad.matmul(v, m)), v4),
        "vecmat_matrix": (lambda v: weighted(ad.matmul(v4, v)), m),
    }


POSITION_CASES = _position_cases()


@pytest.mark.parametrize("name", sorted(POSITION_CASES))
def test_each_input_position_matches_finite_differences(name):
    build, x = POSITION_CASES[name]
    check_op(build, x)
