"""Ranking, metric closed forms, quadratic-time references, groups."""

import math
import tracemalloc

import numpy as np
import pytest

from chainrec import evaluation
from chainrec.evaluation import evaluate, rank_items, sparsity_groups
from chainrec.graph import (DatasetSplit, MultiplexBipartiteGraph, make_schema,
                            split_train_test)

from conftest import buy_graph, random_multiplex_graph
from oracles import ndcg_at_k, recall_at_k


def reference_recall(ranked, test, k):
    hits = 0
    for item in list(ranked)[:k]:
        if item in set(test):
            hits += 1
    return hits / len(set(test))


def reference_ndcg(ranked, test, k):
    test = set(test)
    dcg = 0.0
    for pos, item in enumerate(list(ranked)[:k], start=1):
        if item in test:
            dcg += 1.0 / math.log2(pos + 1)
    ideal = sum(1.0 / math.log2(pos + 1)
                for pos in range(1, min(len(test), k) + 1))
    return dcg / ideal


class TestRankItems:
    def _table(self, scores):
        # user 0 has embedding [1, 0]; items carry their score in coord 0
        rows = [[1.0, 0.0]] + [[s, 0.0] for s in scores]
        return np.asarray(rows)

    def test_sorts_by_descending_score(self):
        ranked = rank_items(self._table([0.9, 0.1, 0.5]), 1, 0)
        np.testing.assert_array_equal(ranked, [1, 3, 2])

    def test_all_equal_scores_give_ascending_ids(self):
        ranked = rank_items(self._table([0.5, 0.5, 0.5, 0.5]), 1, 0)
        np.testing.assert_array_equal(ranked, [1, 2, 3, 4])

    def test_excluded_item_never_appears(self):
        ranked = rank_items(self._table([0.9, 0.1, 0.5]), 1, 0, exclude=[1])
        assert 1 not in ranked
        np.testing.assert_array_equal(ranked, [3, 2])


class TestMetricClosedForms:
    def test_recall_extremes(self):
        assert recall_at_k([1, 2, 3], [1, 2], 3) == 1.0
        assert recall_at_k([4, 5, 6], [1, 2], 3) == 0.0
        assert recall_at_k([1, 9, 9], [1, 2], 10) == 0.5

    def test_ndcg_extremes_and_hand_value(self):
        assert ndcg_at_k([1], [1], 10) == 1.0
        assert ndcg_at_k([5, 6], [1], 10) == 0.0
        # test {a, b}: a at rank 1, b missing -> 1 / (1 + 1/log2(3))
        got = ndcg_at_k([1, 9, 9, 9], [1, 2], 10)
        assert got == pytest.approx(0.613147, abs=1e-6)

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k([1], [], 5)
        with pytest.raises(ValueError):
            ndcg_at_k([1], [], 5)

    def test_matches_quadratic_reference_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n_items = int(rng.integers(5, 60))
            ranked = rng.permutation(n_items)
            test = rng.choice(n_items, size=int(rng.integers(1, 5)),
                              replace=False)
            k = int(rng.integers(1, 25))
            assert recall_at_k(ranked, test, k) == reference_recall(ranked, test, k)
            assert abs(ndcg_at_k(ranked, test, k)
                       - reference_ndcg(ranked, test, k)) < 1e-10

    def test_monotone_in_k(self):
        rng = np.random.default_rng(1)
        ranked = rng.permutation(40)
        test = [3, 7, 11]
        for metric in (recall_at_k, ndcg_at_k):
            values = [metric(ranked, test, k) for k in range(1, 41)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
            assert all(0.0 <= v <= 1.0 for v in values)


def perfect_embeddings(graph, split):
    """Plant final embeddings that score each user's test items highest:
    one-hot user directions, test items stacked on their users' axes."""
    rng = np.random.default_rng(0)
    d = graph.num_users
    e = rng.normal(size=(graph.num_nodes, d)) * 0.001
    tu, tv = split.test_edges
    for u in np.unique(tu):
        e[u] = np.zeros(d)
        e[u, u] = 1.0
    for u, v in zip(tu, tv):
        e[v] = np.zeros(d)
    for u, v in zip(tu, tv):
        e[v, u] += 10.0
    return e


class TestEvaluate:
    def _setup(self, seed=0):
        graph = random_multiplex_graph(30, 80, ("view", "buy"), 0.12, seed=seed)
        split = split_train_test(graph, 0.7, seed=seed)
        return graph, split

    def test_planted_perfect_model_scores_one(self):
        graph, split = self._setup()
        e = perfect_embeddings(graph, split)
        result = evaluate(e, graph, split, ks=(5, 10))
        assert result.recall(10) >= 0.99

    def test_random_embeddings_hit_hypergeometric_rate(self):
        # 1 test item among 1000 candidates: E[R@10] = 10/1000; averaged
        # over 50 embedding seeds x 500 users the estimate is tight
        pairs = list(enumerate(np.random.default_rng(3).integers(0, 1000, size=500)))
        graph, split = buy_graph(500, 1000, test=pairs[1:], train=pairs[:1])
        rates = []
        for seed in range(50):
            e = np.random.default_rng(seed).normal(size=(graph.num_nodes, 8))
            rates.append(evaluate(e, graph, split, ks=(10,)).recall(10))
        assert abs(np.mean(rates) - 0.01) < 0.005

    def test_users_without_test_items_skipped(self):
        graph, split = self._setup()
        e = np.random.default_rng(0).normal(size=(graph.num_nodes, 4))
        result = evaluate(e, graph, split, ks=(5,))
        assert set(result.users) == set(split.test_edges[0].tolist())

    def test_training_positives_never_ranked(self):
        graph, split = self._setup()
        e = np.random.default_rng(1).normal(size=(graph.num_nodes, 4))
        result = evaluate(e, graph, split, ks=(40,))
        su, sv = split.train_pairs("buy")
        train_of = {}
        for u, v in zip(su, sv):
            train_of.setdefault(int(u), set()).add(int(v))
        for u, top in zip(result.users, result.top_items):
            assert not train_of.get(int(u), set()).intersection(top.tolist())

    def test_ranking_invariant_under_positive_rescale(self):
        graph, split = self._setup()
        e = np.random.default_rng(2).normal(size=(graph.num_nodes, 4))
        a = evaluate(e, graph, split, ks=(10,))
        b = evaluate(3.7 * e, graph, split, ks=(10,))
        for ta, tb in zip(a.top_items, b.top_items):
            np.testing.assert_array_equal(ta, tb)

    def test_k_beyond_catalog_size_is_safe(self):
        graph, split = self._setup()
        e = np.random.default_rng(4).normal(size=(graph.num_nodes, 4))
        result = evaluate(e, graph, split, ks=(10, 10_000))
        assert result.recall(10_000) == 1.0  # every test item retrieved
        assert result.recall(10) <= result.recall(10_000)


def brute_force_evaluate(e, graph, split, ks):
    """The ranking pass one user at a time: a full sort of the catalog per
    user and the scalar metric functions."""
    su, sv = split.train_pairs(graph.schema.target)
    tu, tv = split.test_edges
    users = np.unique(tu)
    tops = [rank_items(e, graph.num_users, u, exclude=sv[su == u])[:max(ks)]
            for u in users]
    per_user = {k: {"recall": [recall_at_k(top, tv[tu == u], k)
                               for u, top in zip(users, tops)],
                    "ndcg": [ndcg_at_k(top, tv[tu == u], k)
                             for u, top in zip(users, tops)]}
                for k in ks}
    return users, tops, per_user


def tie_heavy_case(seed, dtype, nu=9, ni=40):
    """Integer-valued embeddings (exact dot products, many ties) on a graph
    where user 0 can rank two items and user 1 none. Users 0-7 hold 1 to 12
    test items (one of them twice); user 8 holds none."""
    rng = np.random.default_rng(seed)
    tu, tv = [], []
    for u in range(nu - 1):
        items = rng.choice(ni, size=int(rng.integers(1, 13)), replace=False)
        tu += [u] * len(items) + [u]
        tv += list(items) + [items[0]]
    tu, tv = np.asarray(tu, dtype=np.int64), np.asarray(tv, dtype=np.int64)
    train = rng.random((nu, ni)) < 0.3
    train[tu, tv] = False
    train[0], train[0, :2] = True, False
    train[1] = True
    su, sv = np.nonzero(train)
    test = (tu, tv + nu)
    empty = (np.empty(0, np.int64), np.empty(0, np.int64))
    schema = make_schema(("view", "buy"), "buy")
    graph = MultiplexBipartiteGraph(schema=schema, num_users=nu, num_items=ni,
                                    edges={"view": empty, "buy": test})
    split = DatasetSplit(train_edges={"view": empty, "buy": (su, sv + nu)},
                         test_edges=test, seed=0)
    e = rng.integers(-2, 3, size=(nu + ni, 3)).astype(dtype)
    return graph, split, e


class TestChunkRanking:
    """``evaluate`` ranks a chunk at a time behind a group-max screen; its
    top lists and per-user metrics equal the per-user brute force exactly."""

    # 40 items: a k above G skips the screen, and a k of at most G prunes;
    # the default G gives one column per group here
    @pytest.mark.parametrize("groups", [1, 3, 8, evaluation.SCREEN_GROUPS])
    @pytest.mark.parametrize("chunk", [1, 3, 512])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("ks", [(1, 3), (5, 10, 20), (2, 7, 100)])
    def test_matches_brute_force(self, monkeypatch, groups, chunk, dtype, ks):
        monkeypatch.setattr(evaluation, "SCREEN_GROUPS", groups)
        seed = groups + 10 * chunk + len(ks) + (dtype == np.float32)
        graph, split, e = tie_heavy_case(seed, dtype)
        users, tops, per_user = brute_force_evaluate(e, graph, split, ks)
        result = evaluate(e, graph, split, ks=ks, chunk=chunk)
        np.testing.assert_array_equal(result.users, users)
        assert len(result.top_items) == len(tops)
        for got, want in zip(result.top_items, tops):
            np.testing.assert_array_equal(got, want)
        assert len(tops[0]) == 2 and len(tops[1]) == 0
        for k in ks:
            for metric in ("recall", "ndcg"):
                assert result.per_user[k][metric].tolist() == per_user[k][metric]


class TestScoreBuffer:
    """``evaluate`` writes every chunk's scores into one buffer."""

    def test_exclusions_do_not_carry_over_between_chunks(self):
        # user 0 (row 0 of chunk 1) has item 0 as a training positive, and
        # item 0 is the best item of user 2 (row 0 of the shorter chunk 2)
        nu, ni = 3, 6
        graph, split = buy_graph(nu, ni, test=[(0, 1), (1, 2), (2, 0)],
                                  train=[(0, 0), (1, 3)])
        e = np.zeros((nu + ni, 2))
        e[:nu] = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.1]]
        e[nu:] = [[3.0, 0.0], [2.0, 0.5], [0.5, 2.0], [1.0, 1.0], [0.2, 0.1], [0.1, 0.3]]
        result = evaluate(e, graph, split, ks=(1, 3), chunk=2)
        su, sv = split.train_pairs("buy")
        for u, top in zip(result.users, result.top_items):
            full = rank_items(e, nu, u, exclude=sv[su == u])
            np.testing.assert_array_equal(top, full[:3])
        assert result.top_items[2][0] == nu + 0
        assert result.per_user[1]["recall"].tolist() == [1.0, 1.0, 1.0]

    def test_peak_allocation_is_one_score_chunk(self):
        # 20k items: a 64-user chunk of scores (10 MB) dominates the pass
        nu, ni, chunk = 150, 20_000, 64
        rng = np.random.default_rng(0)
        items = rng.integers(ni, size=(nu, 3))
        graph, split = buy_graph(
            nu, ni, test=[(u, int(items[u, 0])) for u in range(nu)],
            train=[(u, int(v)) for u in range(nu) for v in np.unique(items[u, 1:])
                   if v != items[u, 0]])
        e = rng.normal(size=(nu + ni, 8))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            evaluate(e, graph, split, chunk=chunk)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * chunk * ni * e.itemsize


class TestFloat64Scores:
    """A float32 table is scored in float64. User [1, 1] scores item A
    [1, 0] at 1 and item B [1, 2**-24] at 1 + 2**-24, which float32 rounds
    to 1: float32 scores would tie, and A, the lower id, would rank first."""

    def _case(self):
        graph, split = buy_graph(1, 2, test=[(0, 1)], train=[])
        e = np.asarray([[1.0, 1.0], [1.0, 0.0], [1.0, 2.0 ** -24]], dtype=np.float32)
        assert e[0] @ e[1] == e[0] @ e[2]
        return graph, split, e

    def test_evaluate_ranks_b_first(self):
        graph, split, e = self._case()
        result = evaluate(e, graph, split, ks=(1,))
        np.testing.assert_array_equal(result.top_items[0], [2])
        assert result.recall(1) == 1.0

    def test_rank_items_ranks_b_first(self):
        graph, split, e = self._case()
        np.testing.assert_array_equal(rank_items(e, 1, 0), [2, 1])


class TestSparsityGroups:
    def test_boundaries_and_partition(self):
        graph, split = TestEvaluate()._setup(seed=5)
        e = np.random.default_rng(0).normal(size=(graph.num_nodes, 4))
        result = evaluate(e, graph, split, ks=(10,))
        groups = sparsity_groups(result, graph, split)
        labels = list(groups)
        assert labels[:2] == ["[0,4)", "[4,5)"]
        assert sum(g["users"] for g in groups.values()) == len(result.users)
        empty = [g for g in groups.values() if g["users"] == 0]
        for entry in empty:
            assert entry["recall"] is None and entry["ndcg"] is None

    def test_exact_boundary_and_overflow_users(self):
        # user 0: 3 views + 1 train buy = exactly 4 -> [4,5)
        # user 1: 70 views + 1 train buy -> [60,inf) overflow bucket
        from chainrec.graph import MultiplexBipartiteGraph, make_schema
        views_u0 = [(0, i) for i in range(3)]
        views_u1 = [(1, i) for i in range(70)]
        view_pairs = np.asarray(views_u0 + views_u1, dtype=np.int64)
        buy_train = np.asarray([(0, 80), (1, 81)], dtype=np.int64)
        buy_test = np.asarray([(0, 82), (1, 83)], dtype=np.int64)
        nu = 2
        all_buy = np.vstack([buy_train, buy_test])
        graph = MultiplexBipartiteGraph(
            schema=make_schema(("view", "buy"), "buy"), num_users=nu,
            num_items=90,
            edges={"view": (view_pairs[:, 0], view_pairs[:, 1] + nu),
                   "buy": (all_buy[:, 0], all_buy[:, 1] + nu)})
        split = DatasetSplit(
            train_edges={"view": graph.edges["view"],
                         "buy": (buy_train[:, 0], buy_train[:, 1] + nu)},
            test_edges=(buy_test[:, 0], buy_test[:, 1] + nu), seed=0)
        e = np.random.default_rng(0).normal(size=(graph.num_nodes, 4))
        result = evaluate(e, graph, split, ks=(10,))
        groups = sparsity_groups(result, graph, split)
        assert groups["[4,5)"]["users"] == 1
        assert groups["[60,inf)"]["users"] == 1
        assert sum(g["users"] for g in groups.values()) == 2
