"""Relation propagation through the model's stacked operator against dense
normalized-matrix-power oracles and one-operator-at-a-time references."""

import numpy as np
import pytest

from chainrec import autodiff as ad
from chainrec import backend, sparse
from chainrec.config import RunConfig
from chainrec.graph import MultiplexBipartiteGraph
from chainrec.model import DualChannelModel
from chainrec.relations import propagate_block, propagate_stack
from chainrec.sparse import (build_struct, receptive_fields, row_slice, stack_blocks,
                             sym_norm_values)

import oracles
from conftest import random_multiplex_graph, relation_table
from oracles import propagate_layers
from test_autodiff import fd_grad
from test_patterns import graph_from_pairs


class TestLightgcnPropagate:
    """A relation's table, layers 0..L summed, from its block of the stack."""

    def test_single_edge_sums_both_rows(self):
        g = graph_from_pairs(1, 1, {"r": [(0, 0)]})
        base = np.asarray([[1.0, 2.0], [10.0, 20.0]])
        out = relation_table(g, "r", base, 1)
        np.testing.assert_allclose(out[0], base[0] + base[1])
        np.testing.assert_allclose(out[1], base[1] + base[0])

    def test_isolated_node_keeps_layer0(self):
        g = graph_from_pairs(2, 2, {"r": [(0, 0)]})
        base = np.random.default_rng(0).normal(size=(4, 3))
        out = relation_table(g, "r", base, 3)
        np.testing.assert_allclose(out[1], base[1])   # isolated user
        np.testing.assert_allclose(out[3], base[3])   # isolated item

    def test_star_normalization(self):
        g = graph_from_pairs(1, 4, {"r": [(0, 0), (0, 1), (0, 2), (0, 3)]})
        base = np.random.default_rng(1).normal(size=(5, 2))
        out = relation_table(g, "r", base, 1)
        np.testing.assert_allclose(out[0], base[0] + base[1:].sum(axis=0) / 2.0)

    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    def test_matches_dense_oracle(self, layers):
        g = random_multiplex_graph(20, 25, ("a", "b"), 0.15, seed=layers)
        base = np.random.default_rng(layers).normal(size=(45, 6))
        for r in g.schema.relations:
            got = relation_table(g, r, base, layers)
            want = oracles.relation_propagation(g, r, base, layers)
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-12)

    def test_linear_in_base(self):
        g = random_multiplex_graph(8, 8, ("a", "b"), 0.3, seed=9)
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(16, 4)), rng.normal(size=(16, 4))
        fx = relation_table(g, "a", x, 2)
        fy = relation_table(g, "a", y, 2)
        np.testing.assert_allclose(relation_table(g, "a", 3.0 * x, 2),
                                   3.0 * fx, rtol=1e-9)
        np.testing.assert_allclose(relation_table(g, "a", x + y, 2),
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
        struct = build_struct(g.num_nodes, *g.edges["r"])
        vals = sym_norm_values(struct)
        stack = stack_blocks([struct])
        rng = np.random.default_rng(layers)
        base0 = rng.normal(size=(11, 3))
        coeff = rng.normal(size=(layers, len(self.ROWS), 3))
        grads = []
        for rows in (None, self.ROWS):
            base = ad.Var(base0.copy())
            hs = (propagate_layers(struct, vals, base, layers) if rows is None else
                  propagate_stack(stack, vals, base, layers, rows)[0])
            loss = None
            for h, c in zip(hs, coeff):
                at = h if rows is not None else ad.gather(h, self.ROWS)
                term = ad.asum(ad.mul(at, c))
                loss = term if loss is None else ad.add(loss, term)
            ad.backward(loss)
            grads.append(base.grad)
            if rows is not None:
                full = propagate_layers(struct, vals, base0, layers)
                for h, want in zip(hs, full):
                    np.testing.assert_array_equal(ad.val(h), want[self.ROWS])
        assert grads[1].shape == base0.shape
        np.testing.assert_allclose(grads[1], grads[0], rtol=1e-12, atol=1e-15)
        read = receptive_fields(struct, self.ROWS, layers)[0]
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


class TestModelStack:
    """The model's one sparse operator, built from the pattern union alone:
    relation r's block is the union's edges whose pattern has bit r."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("rels", [("view", "cart", "buy"),
                                      ("tips", "neutral", "dislike", "like")],
                             ids=["three", "four"])
    def test_relation_blocks_equal_build_struct_of_their_edges(self, rels, dtype):
        g = random_multiplex_graph(9, 14, rels, 0.3, seed=len(rels))
        empty = (np.empty(0, np.int64), np.empty(0, np.int64))
        # the second relation has no edges, so its block is empty
        g = MultiplexBipartiteGraph(schema=g.schema, num_users=9, num_items=14,
                                    edges={**g.edges, rels[1]: empty})
        model = DualChannelModel(g, RunConfig(relations=rels, target=rels[-1],
                                              dtype=dtype).validate())
        blocks = [build_struct(g.num_nodes, *g.edges[r]) for r in rels]
        assert blocks[1].nnz == 0 and all(b.nnz for i, b in enumerate(blocks) if i != 1)
        want = stack_blocks([model.patterns.struct] + blocks, np.concatenate(
            [sym_norm_values(b, dtype=np.dtype(dtype)) for b in blocks]))
        got = model.stack
        assert got.blocks == want.blocks == 1 + len(rels)
        for part in ("first", "diag"):
            for key in ("indptr", "cols"):
                np.testing.assert_array_equal(getattr(getattr(got, part), key),
                                              getattr(getattr(want, part), key))
            assert getattr(got, part).rows is None
        # first reads block-local columns, diag block b's at offset b * n
        structs = [model.patterns.struct] + blocks
        n = g.num_nodes
        np.testing.assert_array_equal(got.first.cols, np.concatenate([s.cols for s in structs]))
        np.testing.assert_array_equal(got.diag.cols, np.concatenate(
            [s.cols + b * n for b, s in enumerate(structs)]))
        np.testing.assert_array_equal(got.diag.indptr, got.first.indptr)
        assert got.const.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(got.const, want.const)


class TestIndexDtype:
    """scipy takes int32 index arrays without a copy, so the stack's are
    int32 while they fit; numpy indexes with intp, so positions stay intp."""

    @pytest.mark.parametrize("rows, entries, want", [
        (2**31 - 1, 2**31 - 1, np.int32), (0, 0, np.int32),
        (2**31, 10, np.int64), (10, 2**31, np.int64), (2**40, 2**40, np.int64)])
    def test_int32_below_2_31_rows_and_entries(self, rows, entries, want):
        # sizes only: nothing of that size is allocated
        assert sparse.index_dtype(rows, entries) == np.dtype(want)

    def test_stack_holds_int32_indices_and_intp_positions(self, tiny_setup_four):
        model = tiny_setup_four[2]
        stack = model.stack
        for part in (stack.first, stack.diag):
            assert part.indptr.dtype == part.cols.dtype == np.int32
        rows = np.asarray([0, 3, 7])
        indptr, edges = row_slice(stack.diag, rows)
        assert indptr.dtype == np.int32 and edges.dtype == np.intp
        fields = receptive_fields(stack.diag, rows, 2)
        assert all(f.dtype == np.intp for f in fields)
        # the local adjacency gathers over the union's edges every step
        assert model.patterns.struct.cols.dtype == np.int64


class TestPropagateStack:
    """The stacked operator against its blocks propagated one at a time."""

    N = 24
    ROWS = np.asarray([0, 3, 11, 17, 23])

    def _stack(self, structs, vals):
        return stack_blocks(structs, np.concatenate(vals[1:]) if len(vals) > 1 else None)

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
            full = propagate_layers(struct, v, base, layers)
            for h, ref in zip(got[b], full):
                assert ad.val(h).dtype == dtype
                assert np.array_equal(ad.val(h), ref[self.ROWS])
            xb = ad.Var(base.copy())
            hs = propagate_layers(struct, v, xb, layers)
            ad.backward(self._weighted([ad.gather(h, self.ROWS) for h in hs], coeff[b]))
            want += xb.grad
        assert x.grad.dtype == dtype
        tol = 1e-12 if dtype == np.float64 else 1e-5
        np.testing.assert_allclose(x.grad, want, rtol=tol, atol=tol)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("blocks", [1, 3, 5])
    def test_one_block_at_every_node_matches_the_block_alone(self, blocks, dtype,
                                                           layers):
        # inference propagates a block from its rows of ``first`` alone,
        # with block 0's values passed in and the others' read from ``const``
        structs, vals = _random_blocks(blocks, dtype)
        stack = self._stack(structs, vals)
        base = np.random.default_rng(layers).normal(size=(self.N, 4)).astype(dtype)
        for b, (struct, v) in enumerate(zip(structs, vals)):
            got = propagate_block(stack, vals[0], base, layers, b)
            want = propagate_layers(struct, v, base, layers)
            assert len(got) == layers
            for h, ref in zip(got, want):
                assert h.dtype == dtype and np.array_equal(h, ref)

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

