"""Ranking, metric closed forms, quadratic-time references, groups."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainrec import backend, evaluation
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
                         test_edges=test)
    e = rng.integers(-2, 3, size=(nu + ni, 3)).astype(dtype)
    return graph, split, e


def set_chunk(monkeypatch, chunk, num_items):
    """Size ``evaluation.CHUNK_BYTES`` so that ``evaluate`` ranks ``chunk``
    users at a time over ``num_items`` items, with ``SCREEN_GROUPS`` as
    already set."""
    per_user = 4 * num_items + 8 * min(evaluation.SCREEN_GROUPS, num_items)
    monkeypatch.setattr(evaluation, "CHUNK_BYTES", chunk * per_user)


def assert_matches_brute_force(monkeypatch, graph, split, e, ks, chunk):
    """``evaluate`` equals the brute force on a tie_heavy_case graph."""
    users, tops, per_user = brute_force_evaluate(e, graph, split, ks)
    set_chunk(monkeypatch, chunk, graph.num_items)
    result = evaluate(e, graph, split, ks=ks)
    np.testing.assert_array_equal(result.users, users)
    assert len(result.top_items) == len(tops)
    for got, want in zip(result.top_items, tops):
        np.testing.assert_array_equal(got, want)
    # fewer rankable items than k (t = -inf): user 0 has two, user 1 none
    assert len(tops[0]) == 2 and len(tops[1]) == 0
    for k in ks:
        for metric in ("recall", "ndcg"):
            assert result.per_user[k][metric].tolist() == per_user[k][metric]


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
        assert_matches_brute_force(monkeypatch, *tie_heavy_case(seed, dtype), ks, chunk)


def interleaved_case(seed, nu=12, ni=40):
    """Test users 0, 2, 3, 6, 7 and 10; users 1, 4, 5, 8, 9 and 11 hold
    training positives but no test edge, so they sit between the test users
    of one chunk. The training pairs come shuffled, not sorted by user."""
    rng = np.random.default_rng(seed)
    tu, tv = [], []
    for u in (0, 2, 3, 6, 7, 10):
        items = rng.choice(ni, size=int(rng.integers(1, 6)), replace=False)
        tu += [u] * len(items)
        tv += list(items)
    tu, tv = np.asarray(tu, dtype=np.int64), np.asarray(tv, dtype=np.int64)
    train = rng.random((nu, ni)) < 0.4
    train[tu, tv] = False
    su, sv = np.nonzero(train)
    shuffle = rng.permutation(len(su))
    su, sv = su[shuffle], sv[shuffle]
    test = (tu, tv + nu)
    empty = (np.empty(0, np.int64), np.empty(0, np.int64))
    graph = MultiplexBipartiteGraph(schema=make_schema(("view", "buy"), "buy"),
                                    num_users=nu, num_items=ni,
                                    edges={"view": empty, "buy": test})
    split = DatasetSplit(train_edges={"view": empty, "buy": (su, sv + nu)},
                         test_edges=test)
    return graph, split, rng.normal(size=(nu + ni, 3))


class TestRangeExclusion:
    """Each chunk excludes the training positives of its users from one
    range of the pairs sorted by user: users between its test users, with
    positives of their own, exclude nothing from it."""

    # 40 items: 8 groups divide the catalog, 7 do not
    @pytest.mark.parametrize("groups", [8, 7])
    @pytest.mark.parametrize("chunk", [1, 2, 3, None])
    def test_matches_brute_force(self, monkeypatch, groups, chunk):
        monkeypatch.setattr(evaluation, "SCREEN_GROUPS", groups)
        graph, split, e = interleaved_case(groups + (chunk or 0))
        su, _ = split.train_pairs("buy")
        assert np.any(np.diff(su) < 0) and np.isin([1, 4, 5, 8, 9], su).all()
        ks = (1, 5, 10)
        users, tops, per_user = brute_force_evaluate(e, graph, split, ks)
        if chunk:
            set_chunk(monkeypatch, chunk, graph.num_items)
        result = evaluate(e, graph, split, ks=ks)
        np.testing.assert_array_equal(result.users, [0, 2, 3, 6, 7, 10])
        np.testing.assert_array_equal(result.users, users)
        for got, want in zip(result.top_items, tops, strict=True):
            np.testing.assert_array_equal(got, want)
        for k in ks:
            for metric in ("recall", "ndcg"):
                assert result.per_user[k][metric].tolist() == per_user[k][metric]


def screen_case(kind, seed, d=4):
    """tie_heavy_case's graph under a table whose float64 dot products are
    exact in any summation order, while float32 rounds them, so the screen
    must keep every item the float64 ranking can place in a top list.

    duplicates: 20-bit integers (items times 2^-20), half the item rows
    repeating another exactly. one-ulp: np.nextafter steps from the float32
    midpoint 1 + 2^-24, which round to either side of it, plus 0 to 15 ulps
    that float32 cannot see. near-duplicates, 1e150, 1e-150, norm-spread:
    items within ±4 of one of four 26-bit integer rows (float32 spacing 4),
    the last three scaled by 2^498, 2^-498 (about 1e±150), and per item
    row by 2^k, norms spread like e^N(0, 3).
    """
    graph, split, _ = tie_heavy_case(seed, np.float64)
    nu, ni = graph.num_users, graph.num_items
    rng = np.random.default_rng(seed)
    if kind == "one-ulp":
        # score 2^j (x0 + 2^8 x1) = 2^j (1 + 2^-24 + (m + c) 2^-52), exact
        users = np.zeros((nu, d))
        users[:, 0] = rng.choice([-1.0, 1.0], nu) * 2.0 ** rng.integers(-3, 4, nu)
        users[:, 1] = users[:, 0] * 2.0 ** 8
        items = rng.normal(size=(ni, d))
        items[:, 0] = 1 + 2.0 ** -24
        for _ in range(2):
            move = rng.random(ni) < 0.5
            items[move, 0] = np.nextafter(items[move, 0],
                                          rng.choice([-np.inf, np.inf], int(move.sum())))
        items[:, 1] = rng.integers(16, size=ni) * 2.0 ** -60
    elif kind == "duplicates":
        users = rng.integers(-2**20, 2**20, size=(nu, d)).astype(np.float64)
        items = rng.integers(-2**20, 2**20, size=(ni, d)) * 2.0 ** -20
        items[ni // 2:] = items[rng.integers(ni // 2, size=ni - ni // 2)]
    else:
        # products of 46 bits, sums of d = 4 terms below 2^48: exact
        users = rng.integers(-2**20, 2**20, size=(nu, d)).astype(np.float64)
        bases = rng.integers(2**25, 2**26, size=(4, d)) * rng.choice([-1, 1], (4, d))
        items = (bases[rng.integers(4, size=ni)]
                 + rng.integers(-4, 5, size=(ni, d))).astype(np.float64)
        users, items = users * 2.0 ** -20, items * 2.0 ** -26
        if kind == "norm-spread":
            items *= 2.0 ** np.round(rng.normal(0, 3 / np.log(2), size=(ni, 1)))
    scale = {"1e150": 2.0 ** 498, "1e-150": 2.0 ** -498}.get(kind, 1.0)
    return graph, split, np.vstack([users, items]) * scale


class TestFloat32Screen:
    """The float32 screen's certified margin keeps exact ties, one-ulp near
    ties, extreme magnitudes and spread norms: top lists and metrics equal
    the float64 brute force, ties in ascending id order."""

    @pytest.mark.parametrize("groups", [1, 3, 8, evaluation.SCREEN_GROUPS])
    @pytest.mark.parametrize("chunk", [1, 5, 512])
    @pytest.mark.parametrize("kind", ["duplicates", "one-ulp", "near-duplicates",
                                      "1e150", "1e-150", "norm-spread"])
    @pytest.mark.parametrize("ks", [(1, 3), (5, 10, 20), (2, 7, 100)])
    def test_matches_brute_force(self, monkeypatch, groups, chunk, kind, ks):
        monkeypatch.setattr(evaluation, "SCREEN_GROUPS", groups)
        seed = groups + 7 * chunk + len(ks)
        assert_matches_brute_force(monkeypatch, *screen_case(kind, seed), ks, chunk)

    @pytest.mark.parametrize("kind", ["one-ulp", "near-duplicates"])
    def test_float32_scores_misorder_the_case(self, kind):
        # some item pair ranks one way in float64 and the other in float32
        graph, split, e = screen_case(kind, seed=0)
        users, items = e[:graph.num_users], e[graph.num_users:]
        s64 = users @ items.T
        s32 = users.astype(np.float32) @ items.astype(np.float32).T
        flips = (s64[:, :, None] > s64[:, None, :]) & (s32[:, :, None] < s32[:, None, :])
        assert flips.any()

    def test_duplicates_case_holds_exact_ties(self):
        graph, _, e = screen_case("duplicates", seed=0)
        items = e[graph.num_users:]
        assert len(np.unique(items, axis=0)) < len(items)

    @pytest.mark.parametrize("users, items", [(498, 498), (-498, -498), (600, -600),
                                              (-600, 600)])
    def test_power_of_two_scaled_tables_rank_as_the_unscaled_one(self, users, items):
        graph, split, e = screen_case("duplicates", seed=3)
        want = evaluate(e, graph, split, ks=(10,)).top_items
        scaled = np.ldexp(e, np.where(np.arange(len(e)) < graph.num_users, users, items)[:, None])
        got = evaluate(scaled, graph, split, ks=(10,)).top_items
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_padding_is_never_a_hit(self):
        # user 1 ranks one item, so its list pads with -1; its padding key
        # 1 * ni - 1 is user 0's test key for item ni - 1
        nu, ni = 2, 3
        graph, split = buy_graph(nu, ni, test=[(0, 2), (1, 0)], train=[(1, 1), (1, 2)])
        e = np.random.default_rng(0).normal(size=(nu + ni, 2))
        result = evaluate(e, graph, split, ks=(3,))
        assert len(result.top_items[1]) == 1
        assert result.per_user[3]["recall"].tolist() == [1.0, 1.0]
        assert result.per_user[3]["ndcg"][1] == 1.0


@st.composite
def margin_tables(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    d = draw(st.integers(1, 80))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # entry exponents within ±spread of shift: float64 products stay finite
    # and may underflow; float32 entries may be subnormal
    if dtype == np.float32:
        spread, shift = draw(st.integers(0, 30)), draw(st.integers(-100, 60))
    else:
        spread, shift = draw(st.integers(0, 240)), draw(st.integers(-540, 240))

    def table(rows):
        x = rng.normal(size=(rows, d)) * 2.0 ** rng.integers(-spread, spread + 1, (rows, d))
        return x * 2.0 ** shift

    a, b = table(m), table(n)
    if draw(st.booleans()):
        # cancellation: remove each item's component along the first user,
        # so its score nearly vanishes against ‖a‖‖b‖
        v = a[0] / np.abs(a[0]).max()
        u = v / np.linalg.norm(v)
        b = b - np.outer(b @ u, u)
    return a.astype(dtype), b.astype(dtype)


# products near 2^-1080: every float64 product underflows
UNDERFLOW = (np.random.default_rng(0).normal(size=(3, 8)) * 2.0 ** -540,
             np.random.default_rng(1).normal(size=(5, 8)) * 2.0 ** -540)


class TestScreenMargin:
    """|s32 - s| <= δ for every entry, in scaled units: s32 from the
    float32 screen tables' product, s the float64 score ``evaluate``
    rescores with. Where the capped underflow term makes δ >= d the row
    keeps every item, and the bound is not needed."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(margin_tables())
    @example(UNDERFLOW)
    def test_float32_score_within_margin_of_float64_score(self, tables):
        a, b = (np.asarray(x, np.float64) for x in tables)
        p = evaluation.pow2_exponents(a)
        q = evaluation.pow2_exponents(b, axis=None)
        a32 = evaluation.screen_table(a, p[:, None])
        b32 = evaluation.screen_table(b, q)
        assert np.all(evaluation.row_norms(a32) < 1 + 2.0 ** -20)
        assert np.all(evaluation.row_norms(b32) < 1 + 2.0 ** -20)
        s32 = np.matmul(a32, b32.T)
        rows, cols = np.divmod(np.arange(a.shape[0] * b.shape[0]), b.shape[0])
        s = backend.spmm_grad_vals(rows, cols, a, b).reshape(s32.shape)
        delta = evaluation.screen_margin(a32, p + q, evaluation.row_norms(b32).max())
        with np.errstate(over="ignore"):
            err = np.abs(s32 - np.ldexp(s, (p + q)[:, None]))
        assert np.all((err <= delta[:, None]) | (delta[:, None] >= a.shape[1]))


class TestScoreBuffer:
    """``evaluate`` writes every chunk's scores into one buffer."""

    def test_exclusions_do_not_carry_over_between_chunks(self, monkeypatch):
        # user 0 (row 0 of chunk 1) has item 0 as a training positive, and
        # item 0 is the best item of user 2 (row 0 of the shorter chunk 2)
        nu, ni = 3, 6
        graph, split = buy_graph(nu, ni, test=[(0, 1), (1, 2), (2, 0)],
                                  train=[(0, 0), (1, 3)])
        e = np.zeros((nu + ni, 2))
        e[:nu] = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.1]]
        e[nu:] = [[3.0, 0.0], [2.0, 0.5], [0.5, 2.0], [1.0, 1.0], [0.2, 0.1], [0.1, 0.3]]
        set_chunk(monkeypatch, 2, ni)
        result = evaluate(e, graph, split, ks=(1, 3))
        su, sv = split.train_pairs("buy")
        for u, top in zip(result.users, result.top_items):
            full = rank_items(e, nu, u, exclude=sv[su == u])
            np.testing.assert_array_equal(top, full[:3])
        assert result.top_items[2][0] == nu + 0
        assert result.per_user[1]["recall"].tolist() == [1.0, 1.0, 1.0]

    def test_peak_allocation_is_one_score_chunk(self, monkeypatch):
        # 20k items: a 64-user chunk of scores (10 MB) dominates the pass
        nu, ni, chunk = 150, 20_000, 64
        rng = np.random.default_rng(0)
        items = rng.integers(ni, size=(nu, 3))
        graph, split = buy_graph(
            nu, ni, test=[(u, int(items[u, 0])) for u in range(nu)],
            train=[(u, int(v)) for u in range(nu) for v in np.unique(items[u, 1:])
                   if v != items[u, 0]])
        e = rng.normal(size=(nu + ni, 8))
        set_chunk(monkeypatch, chunk, ni)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            evaluate(e, graph, split)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * chunk * ni * e.itemsize


    def test_peak_allocation_is_the_float32_score_buffer(self, monkeypatch):
        # 600 users x 20k items: two chunks of 512 share one float32
        # buffer (41 MB). The slack is the (chunk, G) float32 group
        # maxima and their partition (4.2 MB each) plus 4 MB for the float32
        # item table and the survivors; a float64 buffer (82 MB) cannot fit.
        nu, ni, chunk = 600, 20_000, 512
        rng = np.random.default_rng(1)
        items = rng.integers(ni, size=(nu, 3))
        graph, split = buy_graph(
            nu, ni, test=[(u, int(items[u, 0])) for u in range(nu)],
            train=[(u, int(v)) for u in range(nu) for v in np.unique(items[u, 1:])
                   if v != items[u, 0]])
        e = rng.normal(size=(nu + ni, 8))
        buffer = chunk * ni * 4
        slack = 2 * chunk * evaluation.SCREEN_GROUPS * 4 + 4 * 2**20
        set_chunk(monkeypatch, chunk, ni)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            evaluate(e, graph, split)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= buffer + slack


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


class TestNearTies:
    """Half the item rows are copies of others moved one ulp up, so many
    scores lie within an ulp or two of each other, where two float64
    kernels can round a dot product apart. ``rank_items`` scores with the
    kernel ``evaluate`` rescores with, so every top list still agrees (a
    matrix-vector product disagreed for 291 of these 300 users)."""

    def test_rank_items_agrees_with_evaluate_for_every_test_user(self):
        nu, ni, d = 300, 3000, 64
        rng = np.random.default_rng(0)
        e = rng.normal(size=(nu + ni, d))
        src, dst = (rng.choice(ni, size=ni // 2, replace=False) for _ in range(2))
        e[nu + dst] = np.nextafter(e[nu + src], np.inf)
        items = [rng.choice(ni, size=5, replace=False) for _ in range(nu)]
        graph, split = buy_graph(
            nu, ni, test=[(u, int(v)) for u in range(nu) for v in items[u][:2]],
            train=[(u, int(v)) for u in range(nu) for v in items[u][2:]])
        result = evaluate(e, graph, split)
        assert len(result.users) == nu
        su, sv = split.train_pairs("buy")
        for u, top in zip(result.users, result.top_items):
            full = rank_items(e, nu, u, exclude=sv[su == u])
            np.testing.assert_array_equal(top, full[:len(top)])


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
            test_edges=(buy_test[:, 0], buy_test[:, 1] + nu))
        e = np.random.default_rng(0).normal(size=(graph.num_nodes, 4))
        result = evaluate(e, graph, split, ks=(10,))
        groups = sparsity_groups(result, graph, split)
        assert groups["[4,5)"]["users"] == 1
        assert groups["[60,inf)"]["users"] == 1
        assert sum(g["users"] for g in groups.values()) == 2
