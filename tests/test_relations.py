"""Per-relation propagation against dense normalized-matrix-power oracles."""

import numpy as np
import pytest

from chainrec import autodiff as ad
from chainrec import backend
from chainrec.relations import lightgcn_propagate, propagate_layers, propagate_stack
from chainrec.sparse import (BlockStack, SparseMatrix, build_struct, receptive_fields,
                             stack_blocks)

import oracles
from conftest import random_multiplex_graph, relation_matrix
from test_autodiff import fd_grad
from test_patterns import graph_from_pairs


class TestLightgcnPropagate:
    def test_single_edge_sums_both_rows(self):
        g = graph_from_pairs(1, 1, {"r": [(0, 0)]})
        base = np.asarray([[1.0, 2.0], [10.0, 20.0]])
        out = lightgcn_propagate(relation_matrix(g, "r"), base, 1)
        np.testing.assert_allclose(out[0], base[0] + base[1])
        np.testing.assert_allclose(out[1], base[1] + base[0])

    def test_isolated_node_keeps_layer0(self):
        g = graph_from_pairs(2, 2, {"r": [(0, 0)]})
        base = np.random.default_rng(0).normal(size=(4, 3))
        out = lightgcn_propagate(relation_matrix(g, "r"), base, 3)
        np.testing.assert_allclose(out[1], base[1])   # isolated user
        np.testing.assert_allclose(out[3], base[3])   # isolated item

    def test_star_normalization(self):
        g = graph_from_pairs(1, 4, {"r": [(0, 0), (0, 1), (0, 2), (0, 3)]})
        base = np.random.default_rng(1).normal(size=(5, 2))
        out = lightgcn_propagate(relation_matrix(g, "r"), base, 1)
        np.testing.assert_allclose(out[0], base[0] + base[1:].sum(axis=0) / 2.0)

    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    def test_matches_dense_oracle(self, layers):
        g = random_multiplex_graph(20, 25, ("a", "b"), 0.15, seed=layers)
        base = np.random.default_rng(layers).normal(size=(45, 6))
        for r in g.schema.relations:
            got = lightgcn_propagate(relation_matrix(g, r), base, layers)
            want = oracles.relation_propagation(g, r, base, layers)
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-12)

    def test_linear_in_base(self):
        g = random_multiplex_graph(8, 8, ("a", "b"), 0.3, seed=9)
        adj = relation_matrix(g, "a")
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(16, 4)), rng.normal(size=(16, 4))
        fx = lightgcn_propagate(adj, x, 2)
        fy = lightgcn_propagate(adj, y, 2)
        np.testing.assert_allclose(lightgcn_propagate(adj, 3.0 * x, 2),
                                   3.0 * fx, rtol=1e-9)
        np.testing.assert_allclose(lightgcn_propagate(adj, x + y, 2),
                                   fx + fy, rtol=1e-9, atol=1e-12)


class TestPropagateLayersAtRows:
    # two components, users 0-1 with items 0-2 and users 2-3 with items
    # 3-5, and item 6 isolated; the rows lie in the first component
    GRAPH = {"r": [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3), (2, 4), (3, 4),
                   (3, 5)]}
    ROWS = np.asarray([0, 5])

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_base_gradient_matches_full_path_and_vanishes_off_the_field(self,
                                                                      layers):
        g = graph_from_pairs(4, 7, self.GRAPH)
        adj = relation_matrix(g, "r")
        rng = np.random.default_rng(layers)
        base0 = rng.normal(size=(11, 3))
        coeff = rng.normal(size=(layers, len(self.ROWS), 3))
        grads = []
        for rows in (None, self.ROWS):
            base = ad.Var(base0.copy())
            hs = (propagate_layers(adj, base, layers) if rows is None else
                  propagate_stack(BlockStack(1, adj.struct, adj.struct), adj.values,
                                  base, layers, rows)[0])
            loss = None
            for h, c in zip(hs, coeff):
                at = h if rows is not None else ad.gather(h, self.ROWS)
                term = ad.asum(ad.mul(at, c))
                loss = term if loss is None else ad.add(loss, term)
            ad.backward(loss)
            grads.append(base.grad)
            if rows is not None:
                full = propagate_layers(adj, base0, layers)
                for h, want in zip(hs, full):
                    np.testing.assert_array_equal(ad.val(h), want[self.ROWS])
        assert grads[1].shape == base0.shape
        np.testing.assert_allclose(grads[1], grads[0], rtol=1e-12, atol=1e-15)
        read = receptive_fields(adj.struct, self.ROWS, layers)[0]
        off = np.setdiff1d(np.arange(11), read)
        assert np.isin([2, 3, 7, 8, 9, 10], off).all()
        np.testing.assert_array_equal(grads[1][off], 0.0)


def _random_blocks(k, dtype, n=24):
    """k random symmetric operators over n nodes: users 0-9 and items
    10-21 with edges; nodes 22 and 23 have none."""
    rng = np.random.default_rng(k)
    structs, vals = [], []
    for _ in range(k):
        keys = np.unique(rng.integers(0, 10, size=30) * n + rng.integers(10, 22, size=30))
        struct = build_struct(n, keys // n, keys % n)
        structs.append(struct)
        vals.append(rng.normal(size=struct.nnz).astype(dtype))
    return structs, vals


class TestPropagateStack:
    """The stacked operator against its blocks propagated one at a time."""

    N = 24
    ROWS = np.asarray([0, 3, 11, 17, 23])

    def _stack(self, structs, vals, first_block=None):
        return stack_blocks(structs, first_block or [0] * len(structs),
                            np.concatenate(vals[1:]) if len(vals) > 1 else None)

    def _weighted(self, tables, coeff):
        loss = None
        for table, c in zip(tables, coeff):
            term = ad.asum(ad.mul(table, c))
            loss = term if loss is None else ad.add(loss, term)
        return loss

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("blocks", [1, 3, 5])
    def test_rows_and_x_adjoint_match_the_blocks(self, blocks, dtype, layers):
        structs, vals = _random_blocks(blocks, dtype)
        rng = np.random.default_rng(layers)
        base = rng.normal(size=(self.N, 4)).astype(dtype)
        coeff = rng.normal(size=(blocks, layers, len(self.ROWS), 4)).astype(dtype)
        x = ad.Var(base.copy())
        got = propagate_stack(self._stack(structs, vals), vals[0], x, layers, self.ROWS)
        ad.backward(self._weighted([h for hs in got for h in hs],
                                   coeff.reshape(-1, len(self.ROWS), 4)))
        want = np.zeros_like(base)
        for b, (struct, v) in enumerate(zip(structs, vals)):
            full = propagate_layers(SparseMatrix(struct, v), base, layers)
            for h, ref in zip(got[b], full):
                assert ad.val(h).dtype == dtype
                assert np.array_equal(ad.val(h), ref[self.ROWS])
            xb = ad.Var(base.copy())
            hs = propagate_layers(SparseMatrix(struct, v), xb, layers)
            ad.backward(self._weighted([ad.gather(h, self.ROWS) for h in hs], coeff[b]))
            want += xb.grad
        assert x.grad.dtype == dtype
        tol = 1e-12 if dtype == np.float64 else 1e-5
        np.testing.assert_allclose(x.grad, want, rtol=tol, atol=tol)

    def test_first_layer_reads_the_stacked_base_of_each_block(self):
        # block 0 reads base rows 0..N-1, blocks 1 and 2 rows N..2N-1
        structs, vals = _random_blocks(3, np.float64)
        base = np.random.default_rng(1).normal(size=(2 * self.N, 4))
        got = propagate_stack(self._stack(structs, vals, [0, 1, 1]), vals[0], base,
                              2, self.ROWS)
        for b, (struct, v) in enumerate(zip(structs, vals)):
            own = base[:self.N] if b == 0 else base[self.N:]
            for h, ref in zip(got[b], propagate_layers(SparseMatrix(struct, v), own, 2)):
                assert np.array_equal(h, ref[self.ROWS])

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("blocks", [1, 3, 5])
    def test_vals_gradient_covers_the_first_block_only(self, blocks, layers,
                                                       monkeypatch):
        structs, vals = _random_blocks(blocks, np.float64)
        stack = self._stack(structs, vals)
        rng = np.random.default_rng(blocks)
        base = rng.normal(size=(self.N, 4))
        coeff = rng.normal(size=(blocks * layers, len(self.ROWS), 4))

        def loss(v):
            got = propagate_stack(stack, v, base, layers, self.ROWS)
            return self._weighted([h for hs in got for h in hs], coeff)

        seen = []

        def spy(rows, cols, g, x, _fn=backend.spmm_grad_vals):
            seen.append(rows.shape[0])
            return _fn(rows, cols, g, x)

        monkeypatch.setattr(backend, "spmm_grad_vals", spy)
        v = ad.Var(vals[0].copy())
        ad.backward(loss(v))
        np.testing.assert_allclose(v.grad, fd_grad(lambda a: float(loss(a)), vals[0].copy()),
                                   rtol=1e-6, atol=1e-8)
        # block 0's fields: its edges outside them get an exact zero, and
        # only its edges reach spmm_grad_vals, once per layer
        fields = receptive_fields(stack.diag, self.ROWS, layers - 1)
        first = structs[0]
        per_layer = [np.isin(first.rows, f).sum() for f in fields]
        assert seen == per_layer[::-1]
        np.testing.assert_array_equal(v.grad[~np.isin(first.rows, fields[0])], 0.0)

