"""Exact-mask pattern construction and the two aggregation channels."""

from contextlib import contextmanager

import numpy as np
import pytest

from chainrec import autodiff as ad
from chainrec.config import RunConfig
from chainrec.graph import (MultiplexBipartiteGraph, make_schema, split_train_test,
                            training_graph)
from chainrec.model import DualChannelModel, param_shapes
from chainrec.patterns import (behavior_patterns, ebp_embeddings,
                               local_adjacency, propagate_global_factored,
                               propagate_local)
from chainrec.sparse import CSRStruct, build_struct, stack_blocks

import oracles
from conftest import make_batch, random_multiplex_graph
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
        assert schema.num_patterns == expected
        assert param_shapes(schema, RunConfig(dim=2), 4)["global_logits"] == (expected,)


def pair_set(pats, p):
    u, v = pats.pairs(p)
    return set(zip(u.tolist(), v.tolist()))


class TestBBPConstruction:
    def test_exact_mask_semantics(self):
        # u1-i1 carries exactly {view, buy}; pattern p has signature p + 1,
        # bit r for relation r: view+buy is 4, all three 6, view only 0
        g = graph_from_pairs(3, 3, {"view": [(1, 1), (2, 1), (2, 2)],
                                    "cart": [(2, 1), (2, 2)],
                                    "buy": [(1, 1), (2, 1), (2, 2)]})
        pats = behavior_patterns(g)
        assert (1, 1 + 3) in pair_set(pats, 4)
        assert (1, 1 + 3) not in pair_set(pats, 0)
        m_all = pair_set(pats, 6)
        assert (1, 1 + 3) not in m_all
        assert (2, 1 + 3) in m_all and (2, 2 + 3) in m_all

    def test_single_relation_graph(self):
        g = graph_from_pairs(2, 2, {"view": [(0, 0), (1, 1)], "cart": [],
                                    "buy": []}, target="buy")
        pats = behavior_patterns(g)
        assert len(pair_set(pats, 0)) == 2
        assert len(pair_set(pats, 4)) == 0

    def test_matches_per_pair_oracle_on_random_graphs(self):
        for seed in range(5):
            g = random_multiplex_graph(8, 8, ("a", "b", "c"), 0.3, seed=seed)
            pats = behavior_patterns(g)
            for p, want in enumerate(oracles.dense_bbps(g)):
                u, v = pats.pairs(p)
                out = np.zeros_like(want)
                out[u, v] = 1.0
                out[v, u] = 1.0
                np.testing.assert_array_equal(out, want)

    def test_edge_pattern_is_pair_signature_minus_one(self):
        g = random_multiplex_graph(7, 9, ("a", "b", "c"), 0.35, seed=6)
        pats = behavior_patterns(g)
        struct = pats.struct
        pairs = {pair for r in g.schema.relations for pair in zip(*g.edges[r])}
        assert struct.nnz == 2 * len(pairs)
        for r, c, p in zip(struct.rows, struct.cols, pats.edge_pattern):
            u, v = min(r, c), max(r, c)
            assert p == oracles.pair_signature(g, u, v) - 1

    def test_partition_property(self):
        g = random_multiplex_graph(10, 12, ("a", "b", "c"), 0.25, seed=1)
        pats = behavior_patterns(g)
        total = np.zeros((g.num_nodes, g.num_nodes))
        for p in range(g.schema.num_patterns):
            u, v = pats.pairs(p)
            total[u, v] += 1.0
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
        pats = behavior_patterns(g)
        vals = local_adjacency(pats)
        struct = pats.struct
        deg = np.bincount(struct.rows, minlength=struct.n)
        assert struct.nnz > 0
        np.testing.assert_allclose(vals,
                                   1.0 / np.sqrt(deg[struct.rows] * deg[struct.cols]))

    def test_empty_patterns_give_zero_matrix(self):
        g = graph_from_pairs(2, 2, {"a": [], "b": []}, target="b")
        pats = behavior_patterns(g)
        assert pats.struct.nnz == 0
        assert local_adjacency(pats).shape == (0,)

    def test_two_node_single_edge_normalizes_to_one(self):
        g = graph_from_pairs(1, 1, {"a": [(0, 0)]})
        pats = behavior_patterns(g)
        vals = local_adjacency(pats)
        # one pattern, weight softmax=1, degrees 1 -> normalized entry 1
        np.testing.assert_allclose(oracles.dense_matrix(pats.struct, vals),
                                   [[0, 1], [1, 0]], atol=1e-12)

    def test_symmetry(self):
        g = random_multiplex_graph(7, 9, ("a", "b"), 0.4, seed=2)
        pats = behavior_patterns(g)
        dense = oracles.dense_matrix(pats.struct, local_adjacency(pats))
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)

    @pytest.mark.parametrize("rels", [("a", "b", "c"), ("a", "b", "c", "d")],
                             ids=["three", "four"])
    def test_degrees_are_counts_times_pattern_weights(self, rels):
        # the weighted degree, summed edge by edge, is each node's count row
        # times the pattern weights, every pattern weighing 1/P
        g = random_multiplex_graph(8, 10, rels, 0.35, seed=len(rels))
        pats = behavior_patterns(g)
        struct = pats.struct
        w = np.full(g.schema.num_patterns, 1.0 / g.schema.num_patterns)
        edge_w = w[pats.edge_pattern]
        deg = np.bincount(struct.rows, weights=edge_w, minlength=struct.n)
        assert struct.nnz > 0 and len(np.unique(pats.edge_pattern)) > 1
        np.testing.assert_allclose(pats.counts @ w, deg, rtol=1e-12, atol=0)
        np.testing.assert_allclose(local_adjacency(pats),
                                   edge_w / np.sqrt(deg[struct.rows] * deg[struct.cols]),
                                   rtol=1e-12, atol=0)

    def test_float32_model_weighs_degrees_in_float32(self):
        g = random_multiplex_graph(6, 6, ("a", "b", "c"), 0.4, seed=0)
        model = DualChannelModel(g, RunConfig(dtype="float32"))
        assert model.patterns.counts is model.counts
        assert model.counts.dtype == np.float32
        assert local_adjacency(model.patterns).dtype == np.float32
        np.testing.assert_array_equal(model.stack.vals[:model.patterns.struct.nnz],
                                      local_adjacency(model.patterns))

    def test_propagate_identity_and_zero(self):
        struct = build_struct(2, np.asarray([0]), np.asarray([1]))
        base = np.asarray([[1.0, 2.0], [3.0, 4.0]])
        empty = build_struct(2, np.empty(0, np.int64), np.empty(0, np.int64))
        # zero adjacency propagates zeros
        np.testing.assert_allclose(propagate_local(stack_blocks([empty], np.empty(0)),
                                                   base, 3), np.zeros((2, 2)))
        # identity adjacency is a fixed point: every layer equals layer 0
        eye_struct = CSRStruct(n=2, indptr=np.asarray([0, 1, 2]),
                               cols=np.asarray([0, 1]), rows=np.asarray([0, 1]))
        np.testing.assert_allclose(
            propagate_local(stack_blocks([eye_struct], np.ones(2)), base, 3), base)
        # normalized single edge swaps rows each hop; mean of swap+original
        out = propagate_local(stack_blocks([struct], np.ones(2)), base, 2)
        np.testing.assert_allclose(out, (base[::-1] + base) / 2)

    def test_star_edges_scale_by_inverse_sqrt_degrees(self):
        # user of degree 2, items of degree 1: each edge is 1/sqrt(2 * 1)
        g = graph_from_pairs(1, 2, {"a": [(0, 0), (0, 1)]})
        pats = behavior_patterns(g)
        norm = oracles.dense_matrix(pats.struct, local_adjacency(pats))
        np.testing.assert_allclose(norm, [[0, 1 / np.sqrt(2), 1 / np.sqrt(2)],
                                          [1 / np.sqrt(2), 0, 0],
                                          [1 / np.sqrt(2), 0, 0]], atol=1e-12)


class TestGlobalChannel:
    def test_count_matrix_counts_neighbors(self):
        g = graph_from_pairs(2, 4, {"a": [(0, 0), (0, 1), (0, 2), (1, 3)]})
        counts = behavior_patterns(g).counts
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
        pats = behavior_patterns(g)
        counts = pats.counts
        brute = np.zeros_like(counts)
        for p in range(g.schema.num_patterns):
            u, v = pats.pairs(p)
            dense = np.zeros((g.num_nodes, g.num_nodes))
            dense[u, v] = 1
            dense[v, u] = 1
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
        dense = oracles.propagate_global(oracles.build_global_similarity(b), base, 2)
        fact = propagate_global_factored(b, base, 2)
        np.testing.assert_allclose(fact, dense, rtol=1e-10, atol=1e-12)


    @pytest.mark.parametrize("layers", [1, 2, 3])
    # "row" is the one value of ``mode``, the keyword perfbench passes
    @pytest.mark.parametrize("mode", ["row"])
    def test_gram_path_matches_dense_oracle_at_rows_and_in_full(self, layers,
                                                                 mode):
        rng = np.random.default_rng(10 + layers)
        b = rng.integers(0, 4, size=(12, 5)).astype(float)
        b[4] = 0.0      # a node with no pattern neighbour: rowsum zero
        b[:, 2] = 0.0   # a pattern no pair has
        base = rng.normal(size=(12, 3))
        want = oracles.propagate_global(
            oracles.build_global_similarity(b), base, layers)
        full = propagate_global_factored(b, base, layers, mode=mode)
        np.testing.assert_allclose(full, want, rtol=1e-10, atol=1e-12)
        rows = np.asarray([0, 4, 7, 11])
        part = propagate_global_factored(b, base, layers, mode=mode, rows=rows)
        assert part.shape == (4, 3)
        np.testing.assert_allclose(part, want[rows], rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(full[4], 0.0)
        np.testing.assert_array_equal(part[1], 0.0)

    @pytest.mark.parametrize("mode", ["row"])
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
        assert ad.val(out).shape == (2, 5)
        assert (20, 5) not in shapes and (3, 3) in shapes

    @pytest.mark.parametrize("mode", ["row"])
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

    @staticmethod
    def scale_fixture(seed):
        # integer counts with a zero count row and an empty pattern column,
        # as a constant ndarray table, and logits of both signs
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 4, size=(9, 4)).astype(float)
        counts[2] = 0.0
        counts[:, 1] = 0.0
        return counts, rng.normal(size=(9, 3)), rng.normal(size=4), rng

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("rows", [None, [0, 2, 5, 8]])
    def test_scale_form_grads_match_finite_differences(self, layers, rows):
        counts, base, logits, rng = self.scale_fixture(20 + layers)
        rows = None if rows is None else np.asarray(rows)
        coeff = rng.normal(size=(9 if rows is None else len(rows), 3))

        def loss(x, z):
            out = propagate_global_factored(counts, x, layers, rows=rows,
                                            scale=ad.softplus(z))
            return ad.asum(ad.mul(out, coeff))

        xv, zv = ad.Var(base.copy()), ad.Var(logits.copy())
        ad.backward(loss(xv, zv))
        np.testing.assert_allclose(xv.grad, fd_grad(lambda a: loss(a, logits), base),
                                   rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(zv.grad, fd_grad(lambda a: loss(base, a), logits),
                                   rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_scale_form_equals_b_form(self, layers):
        counts, base, logits, _ = self.scale_fixture(30 + layers)
        scale = ad.softplus(logits)
        b_form = propagate_global_factored(counts * scale, base, layers)
        got = propagate_global_factored(counts, base, layers, scale=scale)
        np.testing.assert_allclose(got, b_form, rtol=1e-10, atol=0)
        rows = np.asarray([1, 2, 7])
        np.testing.assert_allclose(
            propagate_global_factored(counts, base, layers, rows=rows, scale=scale),
            b_form[rows], rtol=1e-10, atol=0)

    def test_scale_form_keeps_float32(self):
        counts, base, logits, _ = self.scale_fixture(40)
        counts = counts.astype(np.float32)
        base = ad.Var(base.astype(np.float32))
        logits = ad.Var(logits.astype(np.float32))
        for rows in (None, np.asarray([0, 2, 8])):
            base.grad = logits.grad = None
            out = propagate_global_factored(counts, base, 3, rows=rows,
                                            scale=ad.softplus(logits))
            assert out.value.dtype == np.float32
            ad.backward(ad.asum(out))
            assert base.grad.dtype == np.float32
            assert logits.grad.dtype == np.float32

    @pytest.mark.parametrize("rows", [None, [3, 4, 11]])
    def test_constant_table_backward_forms_no_pattern_by_node_array(self, rows):
        # n = 20 nodes, p = 3 patterns, d = 5: of the route's own adjoints,
        # only base's gradient is n x d, and none is p x n
        rng = np.random.default_rng(6)
        counts = rng.integers(0, 3, size=(20, 3)).astype(float)
        base = ad.Var(rng.normal(size=(20, 5)))
        logits = ad.Var(rng.normal(size=3))
        scale = ad.softplus(logits)
        with adjoint_shapes() as shapes:
            out = propagate_global_factored(counts, base, 3, scale=scale,
                                            rows=None if rows is None else np.asarray(rows))
        ad.backward(ad.asum(out))
        assert shapes.count((20, 5)) == 1
        assert (3, 20) not in shapes
        assert base.grad.shape == (20, 5) and logits.grad.shape == (3,)

    def test_training_step_forms_no_pattern_by_node_array(self):
        # the model hands the route its constant count table, so a whole
        # step's backward returns no p x n gradient
        g = random_multiplex_graph(9, 14, ("view", "cart", "buy"), 0.4, seed=8)
        split = split_train_test(g, 0.75, seed=2)
        model = DualChannelModel(training_graph(g, split), RunConfig(dim=4).validate())
        n_pat = model.schema.num_patterns
        assert model.counts.shape == (g.num_nodes, n_pat)
        batch = make_batch(model, split, np.random.default_rng(1))
        with adjoint_shapes() as shapes:
            loss, _ = model.total_loss(model.init_params(0).as_vars(), batch)
        ad.backward(loss)
        assert shapes and (n_pat, g.num_nodes) not in shapes


@contextmanager
def adjoint_shapes():
    """Record the shape of every array returned by the adjoints of the ops
    taped inside the block."""
    shapes, record = [], ad._record

    def spy(out, inputs, *adjoints, fresh=False):
        def watched(adj):
            def run(g):
                res = adj(g)
                if isinstance(res, np.ndarray):
                    shapes.append(res.shape)
                return res
            return run
        return record(out, inputs, *map(watched, adjoints), fresh=fresh)

    ad._record = spy
    try:
        yield shapes
    finally:
        ad._record = record


class TestEbpFusion:
    def test_average(self):
        a = np.asarray([[2.0, 0.0]])
        b = np.asarray([[0.0, 2.0]])
        np.testing.assert_allclose(ebp_embeddings(a, b), [[1.0, 1.0]])
        np.testing.assert_allclose(ebp_embeddings(a, a), a)
        np.testing.assert_allclose(ebp_embeddings(a, -a), [[0.0, 0.0]])


class TestLinearity:
    def test_propagation_linear_in_base(self):
        g = random_multiplex_graph(6, 7, ("a", "b"), 0.4, seed=5)
        pats = behavior_patterns(g)
        stack = stack_blocks([pats.struct], local_adjacency(pats))
        rng = np.random.default_rng(4)
        x = rng.normal(size=(13, 4))
        y = rng.normal(size=(13, 4))
        fx = propagate_local(stack, x, 2)
        fy = propagate_local(stack, y, 2)
        np.testing.assert_allclose(propagate_local(stack, 2.5 * x, 2), 2.5 * fx,
                                   rtol=1e-9)
        np.testing.assert_allclose(propagate_local(stack, x + y, 2), fx + fy,
                                   rtol=1e-9, atol=1e-12)
