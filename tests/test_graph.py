"""Ingestion, schema validation, persistence round-trip, and splitting."""

import numpy as np
import pytest

from chainrec.graph import (MultiplexBipartiteGraph, ParseError, SchemaError,
                            load_graph, load_interactions, make_schema,
                            save_graph, split_train_test, training_graph)

from conftest import random_multiplex_graph

SCHEMA = make_schema(("view", "cart", "buy"), "buy")


def write(tmp_path, text, name="data.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_target_must_be_member_and_last(self):
        with pytest.raises(SchemaError):
            make_schema(("view", "cart"), "buy")
        with pytest.raises(SchemaError):
            make_schema(("view", "buy"), "buy", canonical_order=("buy", "view"))

    def test_duplicates_and_size_rejected(self):
        with pytest.raises(SchemaError):
            make_schema(("view", "view", "buy"), "buy")
        with pytest.raises(SchemaError):
            make_schema(tuple(f"r{i}" for i in range(9)), "r8")

    def test_default_order_puts_target_last(self):
        s = make_schema(("buy", "view", "cart"), "buy")
        assert s.canonical_order == ("view", "cart", "buy")


class TestLoadInteractions:
    def test_direct_construction(self, tmp_path):
        path = write(tmp_path, "uA\tiX\tview\nuA\tiX\tbuy\nuB\tiY\tcart\n")
        g = load_interactions(path, SCHEMA)
        assert (g.num_users, g.num_items) == (2, 2)
        assert g.edge_count("view") == 1 and g.edge_count("buy") == 1
        assert g.edge_count("cart") == 1
        # first-seen order: uA=0, uB=1, iX=0, iY=1
        assert g.user_ids == ["uA", "uB"] and g.item_ids == ["iX", "iY"]
        u, v = g.edges["cart"]
        assert (u[0], v[0]) == (1, 2 + 1)

    def test_empty_file(self, tmp_path):
        g = load_interactions(write(tmp_path, ""), SCHEMA)
        assert g.num_users == 0 and g.num_items == 0
        assert all(g.edge_count(r) == 0 for r in SCHEMA.relations)

    def test_duplicates_collapse(self, tmp_path):
        g = load_interactions(write(tmp_path, "u\ti\tbuy\nu\ti\tbuy\n"), SCHEMA)
        assert g.edge_count("buy") == 1

    def test_unknown_relation_names_line(self, tmp_path):
        path = write(tmp_path, "u\ti\tbuy\nu\ti\tclick\n")
        with pytest.raises(SchemaError, match="line 2"):
            load_interactions(path, SCHEMA)

    def test_malformed_line_names_line(self, tmp_path):
        path = write(tmp_path, "u\ti\tbuy\nu only\n")
        with pytest.raises(ParseError, match="line 2"):
            load_interactions(path, SCHEMA)

    def test_extra_columns_ignored(self, tmp_path):
        g = load_interactions(write(tmp_path, "u\ti\tbuy\t0.5\t0.1\n"), SCHEMA)
        assert g.edge_count("buy") == 1


class TestInvariantsAndPersistence:
    def test_edges_are_user_item(self):
        g = random_multiplex_graph(6, 9, ("view", "cart", "buy"), 0.3, seed=0)
        for r in g.schema.relations:
            u, v = g.edges[r]
            assert np.all(u < g.num_users)
            assert np.all((v >= g.num_users) & (v < g.num_nodes))

    def test_save_load_round_trip(self, tmp_path):
        g = random_multiplex_graph(5, 7, ("view", "cart", "buy"), 0.4, seed=3)
        save_graph(g, tmp_path / "g")
        g2 = load_graph(tmp_path / "g")
        assert (g2.num_users, g2.num_items) == (g.num_users, g.num_items)
        assert g2.schema == g.schema
        for r in g.schema.relations:
            np.testing.assert_array_equal(g2.edges[r][0], g.edges[r][0])
            np.testing.assert_array_equal(g2.edges[r][1], g.edges[r][1])
        assert g2.user_ids == g.user_ids and g2.item_ids == g.item_ids

    def test_degree(self):
        edges = {"view": (np.asarray([0, 0, 0, 0, 0]), np.asarray([2, 3, 4, 5, 6])),
                 "buy": (np.asarray([1]), np.asarray([2]))}
        g = MultiplexBipartiteGraph(schema=make_schema(("view", "buy"), "buy"),
                                    num_users=2, num_items=5, edges=edges)
        # node degrees are the adjacency's row lengths, which the
        # relation channel's 1/sqrt(deg_u deg_v) normalization reads
        view = np.diff(g.adjacency("view").indptr)
        buy = np.diff(g.adjacency("buy").indptr)
        assert view[0] == 5                   # star center
        assert buy[1] == 1
        assert buy[2] == 1                    # item side of a single edge
        assert buy[0] == 0                    # isolated under buy


class TestSplit:
    def _graph(self, n_target=100, seed=0):
        rng = np.random.default_rng(seed)
        pairs = np.sort(rng.choice(20 * 30, size=n_target, replace=False))
        u, v = pairs // 30, pairs % 30 + 20
        edges = {"view": (np.asarray([0]), np.asarray([20])),
                 "buy": (u.astype(np.int64), v.astype(np.int64))}
        return MultiplexBipartiteGraph(schema=make_schema(("view", "buy"), "buy"),
                                       num_users=20, num_items=30, edges=edges)

    def test_counts(self):
        g = self._graph()
        s = split_train_test(g, 0.75, seed=0)
        assert s.train_pairs("buy")[0].shape[0] == 75
        assert s.test_edges[0].shape[0] == 25

    def test_deterministic(self):
        g = self._graph()
        a = split_train_test(g, 0.75, seed=5)
        b = split_train_test(g, 0.75, seed=5)
        np.testing.assert_array_equal(a.test_edges[0], b.test_edges[0])
        np.testing.assert_array_equal(a.test_edges[1], b.test_edges[1])

    def test_partition_disjoint_and_complete(self):
        g = self._graph(n_target=83, seed=2)
        s = split_train_test(g, 0.6, seed=1)
        n = g.num_nodes
        train = set((s.train_pairs("buy")[0] * n + s.train_pairs("buy")[1]).tolist())
        test = set((s.test_edges[0] * n + s.test_edges[1]).tolist())
        full = set((g.edges["buy"][0] * n + g.edges["buy"][1]).tolist())
        assert train.isdisjoint(test)
        assert train | test == full

    def test_size_matches_sortfree_oracle(self):
        # independent RNG-free partition: any deterministic cut of the edge
        # list must produce the same train size as the shuffled cut
        g = self._graph(n_target=97, seed=4)
        s = split_train_test(g, 0.75, seed=9)
        keys = np.sort(g.edges["buy"][0] * g.num_nodes + g.edges["buy"][1])
        n_train_oracle = int(round(0.75 * keys.shape[0]))
        assert s.train_pairs("buy")[0].shape[0] == n_train_oracle

    def test_aux_edges_never_held_out(self):
        g = self._graph()
        s = split_train_test(g, 0.75, seed=0)
        np.testing.assert_array_equal(s.train_pairs("view")[0], g.edges["view"][0])

    def test_zero_target_edges_error(self):
        edges = {"view": (np.asarray([0]), np.asarray([1])),
                 "buy": (np.empty(0, np.int64), np.empty(0, np.int64))}
        g = MultiplexBipartiteGraph(schema=make_schema(("view", "buy"), "buy"),
                                    num_users=1, num_items=1, edges=edges)
        with pytest.raises(ValueError, match="no target"):
            split_train_test(g, 0.5, seed=0)

    def test_bad_ratio(self):
        g = self._graph()
        with pytest.raises(ValueError):
            split_train_test(g, 1.0, seed=0)

    def test_training_graph_holds_out_test_edges(self):
        g = self._graph()
        s = split_train_test(g, 0.75, seed=0)
        tg = training_graph(g, s)
        assert tg.edge_count("buy") == 75
        assert tg.edge_count("view") == g.edge_count("view")
