"""Exact-mask pattern construction and the two aggregation channels."""

import numpy as np
import pytest

from chainrec import autodiff as ad
from chainrec.config import RunConfig
from chainrec.graph import MultiplexBipartiteGraph, make_schema
from chainrec.model import DualChannelModel
from chainrec.patterns import (PatternMask, build_all_bbps, build_bbp_matrix,
                               ebp_embeddings, enumerate_patterns,
                               local_adjacency, pattern_count_matrix,
                               pattern_union, propagate_global_factored,
                               propagate_local)
from chainrec.sparse import CSRStruct, SparseMatrix, build_struct

import oracles
from conftest import random_multiplex_graph
from test_autodiff import fd_grad


def graph_from_pairs(num_users, num_items, per_relation, target=None):
    relations = tuple(per_relation)
    schema = make_schema(relations, target or relations[-1])
    edges = {}
    for r, pairs in per_relation.items():
        if pairs:
            arr = np.asarray(sorted(pairs), dtype=np.int64)
            edges[r] = (arr[:, 0], arr[:, 1] + num_users)
        else:
            edges[r] = (np.empty(0, np.int64), np.empty(0, np.int64))
    return MultiplexBipartiteGraph(schema=schema, num_users=num_users,
                                   num_items=num_items, edges=edges)


class TestEnumeration:
    @pytest.mark.parametrize("n_rel,expected", [(3, 7), (4, 15), (1, 1)])
    def test_counts(self, n_rel, expected):
        schema = make_schema(tuple(f"r{i}" for i in range(n_rel)), f"r{n_rel-1}")
        masks = enumerate_patterns(schema)
        assert len(masks) == expected
        # binary counting order: mask i has signature i+1
        assert [m.signature for m in masks] == list(range(1, expected + 1))

    def test_all_zero_mask_rejected(self):
        with pytest.raises(ValueError):
            PatternMask((0, 0, 0))


class TestBBPConstruction:
    def test_exact_mask_semantics(self):
        # u1-i1 carries exactly {view, buy}
        g = graph_from_pairs(3, 3, {"view": [(1, 1), (2, 1), (2, 2)],
                                    "cart": [(2, 1), (2, 2)],
                                    "buy": [(1, 1), (2, 1), (2, 2)]})
        view_and_buy = PatternMask((1, 0, 1))
        all_three = PatternMask((1, 1, 1))
        only_view = PatternMask((1, 0, 0))
        def pairs(mask):
            bbp = build_bbp_matrix(g, mask)
            return set(zip(bbp.u.tolist(), bbp.v.tolist()))

        assert (1, 1 + 3) in pairs(view_and_buy)
        assert (1, 1 + 3) not in pairs(only_view)
        m_all = pairs(all_three)
        assert (1, 1 + 3) not in m_all
        assert (2, 1 + 3) in m_all and (2, 2 + 3) in m_all

    def test_single_relation_graph(self):
        g = graph_from_pairs(2, 2, {"view": [(0, 0), (1, 1)], "cart": [],
                                    "buy": []}, target="buy")
        only_view = build_bbp_matrix(g, PatternMask((1, 0, 0)))
        assert only_view.edge_count == 2
        assert build_bbp_matrix(g, PatternMask((1, 0, 1))).edge_count == 0

    def test_matches_per_pair_oracle_on_random_graphs(self):
        for seed in range(5):
            g = random_multiplex_graph(8, 8, ("a", "b", "c"), 0.3, seed=seed)
            bbps = build_all_bbps(g)
            dense = oracles.dense_bbps(g)
            for got, want in zip(bbps, dense):
                out = np.zeros_like(want)
                out[got.u, got.v] = 1.0
                out[got.v, got.u] = 1.0
                np.testing.assert_array_equal(out, want)

    def test_partition_property(self):
        g = random_multiplex_graph(10, 12, ("a", "b", "c"), 0.25, seed=1)
        bbps = build_all_bbps(g)
        total = np.zeros((g.num_nodes, g.num_nodes))
        for b in bbps:
            total[b.u, b.v] += 1.0
        union = np.zeros_like(total)
        for r in g.schema.relations:
            u, v = g.edges[r]
            union[u, v] = 1.0
        np.testing.assert_array_equal(total, union)  # exactly one mask per pair


class TestLocalChannel:
    def test_uniform_logits_weight_each_pattern_equally(self):
        # equal pattern weights cancel in the normalization, leaving the
        # union graph's 1/sqrt(deg_u deg_v) on every edge
        g = random_multiplex_graph(6, 6, ("a", "b", "c"), 0.4, seed=0)
        bbps = build_all_bbps(g)
        adj = local_adjacency(pattern_union(bbps), np.zeros(7))
        struct = adj.struct
        deg = np.bincount(struct.rows, minlength=struct.n)
        assert struct.nnz > 0
        np.testing.assert_allclose(ad.val(adj.values),
                                   1.0 / np.sqrt(deg[struct.rows] * deg[struct.cols]))

    def test_empty_patterns_give_zero_matrix(self):
        g = graph_from_pairs(2, 2, {"a": [], "b": []}, target="b")
        bbps = build_all_bbps(g)
        adj = local_adjacency(pattern_union(bbps), np.zeros(3))
        assert adj.struct.nnz == 0

    def test_two_node_single_edge_normalizes_to_one(self):
        g = graph_from_pairs(1, 1, {"a": [(0, 0)]})
        bbps = build_all_bbps(g)
        adj = local_adjacency(pattern_union(bbps), np.zeros(1))
        # one pattern, weight softmax=1, degrees 1 -> normalized entry 1
        np.testing.assert_allclose(oracles.dense_matrix(adj), [[0, 1], [1, 0]],
                                   atol=1e-12)

    def test_symmetry_and_weight_sum(self):
        g = random_multiplex_graph(7, 9, ("a", "b"), 0.4, seed=2)
        bbps = build_all_bbps(g)
        logits = np.random.default_rng(0).normal(size=3)
        assert np.isclose(ad.softmax(logits).sum(), 1.0)
        dense = oracles.dense_matrix(local_adjacency(pattern_union(bbps), logits))
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)

    def test_propagate_identity_and_zero(self):
        struct = build_struct(2, np.asarray([0]), np.asarray([1]))
        base = np.asarray([[1.0, 2.0], [3.0, 4.0]])
        empty = SparseMatrix(build_struct(2, np.empty(0, np.int64), np.empty(0, np.int64)),
                             np.empty(0))
        # zero adjacency propagates zeros
        np.testing.assert_allclose(propagate_local(empty, base, 3), np.zeros((2, 2)))
        # identity adjacency is a fixed point: every layer equals layer 0
        eye_struct = CSRStruct(n=2, indptr=np.asarray([0, 1, 2]),
                               cols=np.asarray([0, 1]), rows=np.asarray([0, 1]),
                               rev=np.asarray([0, 1]))
        np.testing.assert_allclose(
            propagate_local(SparseMatrix(eye_struct, np.ones(2)), base, 3), base)
        # normalized single edge swaps rows each hop; mean of swap+original
        adj = SparseMatrix(struct, np.ones(2))
        out = propagate_local(adj, base, 2)
        np.testing.assert_allclose(out, (base[::-1] + base) / 2)

    def test_star_edges_scale_by_inverse_sqrt_degrees(self):
        # user of degree 2, items of degree 1: each edge is 1/sqrt(2 * 1)
        g = graph_from_pairs(1, 2, {"a": [(0, 0), (0, 1)]})
        bbps = build_all_bbps(g)
        norm = oracles.dense_matrix(local_adjacency(pattern_union(bbps), np.zeros(1)))
        np.testing.assert_allclose(norm, [[0, 1 / np.sqrt(2), 1 / np.sqrt(2)],
                                          [1 / np.sqrt(2), 0, 0],
                                          [1 / np.sqrt(2), 0, 0]], atol=1e-12)


class TestGlobalChannel:
    def test_count_matrix_counts_neighbors(self):
        g = graph_from_pairs(2, 4, {"a": [(0, 0), (0, 1), (0, 2), (1, 3)]})
        bbps = build_all_bbps(g)
        counts = pattern_count_matrix(bbps)
        assert counts[0, 0] == 3.0 and counts[1, 0] == 1.0
        assert counts[2, 0] == 1.0  # items count their user neighbors

    def test_identity_scale_keeps_counts(self):
        # the model's B is counts * softplus(global_logits), and the logits
        # start where softplus is 1, so B starts as the counts
        g = graph_from_pairs(2, 4, {"a": [(0, 0), (0, 1), (0, 2)]})
        model = DualChannelModel(g, RunConfig())
        logits = model.init_params(0).tensors["global_logits"]
        np.testing.assert_allclose(ad.softplus(logits), 1.0, rtol=1e-12)
        assert model.counts[0, 0] == 3.0

    def test_row_sums_and_empty_pattern_column(self):
        g = random_multiplex_graph(5, 5, ("a", "b"), 0.5, seed=3)
        bbps = build_all_bbps(g)
        counts = pattern_count_matrix(bbps)
        brute = np.zeros_like(counts)
        for p, bbp in enumerate(bbps):
            dense = np.zeros((g.num_nodes, g.num_nodes))
            dense[bbp.u, bbp.v] = 1
            dense[bbp.v, bbp.u] = 1
            brute[:, p] = dense.sum(axis=1)
        np.testing.assert_array_equal(counts, brute)

    # one layer propagated from the identity table is the normalized
    # similarity matrix itself, so the factored path exposes it
    def test_similarity_rows_l1_normalized(self):
        rng = np.random.default_rng(0)
        b = np.abs(rng.normal(size=(6, 3)))
        s = propagate_global_factored(b, np.eye(6), 1)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-9)
        zero = propagate_global_factored(np.zeros((4, 2)), np.eye(4), 1)
        np.testing.assert_array_equal(zero, np.zeros((4, 4)))

    def test_identical_count_rows_get_identical_similarity_rows(self):
        b = np.asarray([[1.0, 2.0], [1.0, 2.0], [3.0, 0.5]])
        s = propagate_global_factored(b, np.eye(3), 1)
        np.testing.assert_allclose(s[0], s[1], atol=1e-12)

    def test_propagate_global_identity_zero_and_mean(self):
        # B = I gives similarity I, B = 0 gives 0, and one shared pattern
        # gives the uniform row-stochastic matrix, i.e. the column mean
        base = np.asarray([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        np.testing.assert_allclose(propagate_global_factored(np.eye(3), base, 4),
                                   base)
        np.testing.assert_allclose(
            propagate_global_factored(np.zeros((3, 2)), base, 2), np.zeros((3, 2)))
        out = propagate_global_factored(np.ones((3, 1)), base, 1)
        np.testing.assert_allclose(out, np.tile(base.mean(axis=0), (3, 1)))

    def test_factored_path_matches_dense_path(self):
        rng = np.random.default_rng(2)
        b = np.abs(rng.normal(size=(10, 4)))
        b[3] = 0.0  # a zero row must stay zero under both paths
        base = rng.normal(size=(10, 3))
        for mode in ("row", "sym"):
            dense = oracles.propagate_global(
                oracles.build_global_similarity(b, mode=mode), base, 2)
            fact = propagate_global_factored(b, base, 2, mode=mode)
            np.testing.assert_allclose(fact, dense, rtol=1e-10, atol=1e-12)


    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["row", "sym"])
    def test_gram_path_matches_dense_oracle_at_rows_and_in_full(self, layers,
                                                                 mode):
        rng = np.random.default_rng(10 + layers)
        b = rng.integers(0, 4, size=(12, 5)).astype(float)
        b[4] = 0.0      # a node with no pattern neighbour: rowsum zero
        b[:, 2] = 0.0   # a pattern no pair has
        base = rng.normal(size=(12, 3))
        want = oracles.propagate_global(
            oracles.build_global_similarity(b, mode=mode), base, layers)
        full = propagate_global_factored(b, base, layers, mode=mode)
        np.testing.assert_allclose(full, want, rtol=1e-10, atol=1e-12)
        rows = np.asarray([0, 4, 7, 11])
        part = propagate_global_factored(b, base, layers, mode=mode, rows=rows)
        assert part.shape == (4, 3)
        np.testing.assert_allclose(part, want[rows], rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(full[4], 0.0)
        np.testing.assert_array_equal(part[1], 0.0)

    @pytest.mark.parametrize("mode", ["row", "sym"])
    @pytest.mark.parametrize("rows", [None, [1, 2, 6]])
    def test_gram_path_grads_match_finite_differences(self, mode, rows):
        # L = 3: two rounds through the Gram matrix, from the model's
        # B = counts * softplus(global_logits)
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 4, size=(8, 3)).astype(float)
        counts[5] = 0.0
        base = rng.normal(size=(8, 2))
        logits = rng.normal(size=3)
        rows = None if rows is None else np.asarray(rows)
        coeff = rng.normal(size=(8 if rows is None else len(rows), 2))

        def loss(x, z):
            b = ad.mul(counts, ad.softplus(z))
            out = propagate_global_factored(b, x, 3, mode=mode, rows=rows)
            return ad.asum(ad.mul(out, coeff))

        xv, zv = ad.Var(base.copy()), ad.Var(logits.copy())
        ad.backward(loss(xv, zv))
        np.testing.assert_allclose(xv.grad, fd_grad(lambda a: loss(a, logits), base),
                                   rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(zv.grad, fd_grad(lambda a: loss(base, a), logits),
                                   rtol=1e-6, atol=1e-8)

    def test_gram_path_forms_no_full_layer(self, monkeypatch):
        # with rows, every product is p x d, p x p or over the rows: the
        # output is the only table with d columns
        rng = np.random.default_rng(4)
        b = np.abs(rng.normal(size=(20, 3)))
        base = rng.normal(size=(20, 5))
        shapes = []

        def spy(a, c, _fn=ad.matmul):
            out = _fn(a, c)
            shapes.append(ad.val(out).shape)
            return out

        monkeypatch.setattr(ad, "matmul", spy)
        out = propagate_global_factored(ad.Var(b), ad.Var(base), 3,
                                        rows=np.asarray([2, 9]))
        assert out.shape == (2, 5)
        assert (20, 5) not in shapes and (3, 3) in shapes

    @pytest.mark.parametrize("mode", ["row", "sym"])
    def test_gram_path_keeps_float32(self, mode):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 4, size=(9, 3)).astype(np.float32)
        counts[0] = 0.0
        base = ad.Var(rng.normal(size=(9, 4)).astype(np.float32))
        logits = ad.Var(rng.normal(size=3).astype(np.float32))
        for rows in (None, np.asarray([0, 3, 8])):
            base.grad = logits.grad = None
            b = ad.mul(counts, ad.softplus(logits))
            out = propagate_global_factored(b, base, 3, mode=mode, rows=rows)
            assert out.value.dtype == np.float32
            ad.backward(ad.asum(out))
            assert base.grad.dtype == np.float32
            assert logits.grad.dtype == np.float32


class TestEbpFusion:
    def test_average_and_mismatch(self):
        a = np.asarray([[2.0, 0.0]])
        b = np.asarray([[0.0, 2.0]])
        np.testing.assert_allclose(ebp_embeddings(a, b), [[1.0, 1.0]])
        np.testing.assert_allclose(ebp_embeddings(a, a), a)
        np.testing.assert_allclose(ebp_embeddings(a, -a), [[0.0, 0.0]])
        with pytest.raises(ValueError):
            ebp_embeddings(a, np.zeros((2, 2)))


class TestLinearity:
    def test_propagation_linear_in_base(self):
        g = random_multiplex_graph(6, 7, ("a", "b"), 0.4, seed=5)
        bbps = build_all_bbps(g)
        adj = local_adjacency(pattern_union(bbps),
                              np.random.default_rng(3).normal(size=3))
        rng = np.random.default_rng(4)
        x = rng.normal(size=(13, 4))
        y = rng.normal(size=(13, 4))
        fx = propagate_local(adj, x, 2)
        fy = propagate_local(adj, y, 2)
        np.testing.assert_allclose(propagate_local(adj, 2.5 * x, 2), 2.5 * fx,
                                   rtol=1e-9)
        np.testing.assert_allclose(propagate_local(adj, x + y, 2), fx + fy,
                                   rtol=1e-9, atol=1e-12)
