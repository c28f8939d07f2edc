"""Ingestion, schema validation, graph invariants, and splitting."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chainrec.cli import main
from chainrec.config import RunConfig
from chainrec.graph import (MultiplexBipartiteGraph, ParseError, SchemaError,
                            load_interactions, make_schema, sorted_contains,
                            sorted_unique, split_train_test, training_graph)
from chainrec.model import DualChannelModel

from conftest import random_multiplex_graph
from oracles import load_interactions_reference

SCHEMA = make_schema(("view", "cart", "buy"), "buy")


def write(tmp_path, text, name="data.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_target_must_be_member_and_may_lead_the_order(self):
        with pytest.raises(SchemaError):
            make_schema(("view", "cart"), "buy")
        s = make_schema(("view", "buy"), "buy", canonical_order=("buy", "view"))
        assert s.canonical_order == ("buy", "view")

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


# ids that share prefixes, differ only by trailing NUL bytes, span more than
# one 8-byte word, are multi-byte UTF-8, or hold characters that
# str.splitlines would break a line at
ID_POOL = ["u1", "u10", "u100", "1", "10", "a", "a\x00", "a\x00\x00", "abcdefgh",
           "abcdefgh\x00", "abcdefghi", "abcdefghijklmnopq", "abcdefghijklmnopr",
           "\u00fc", "\u00fc\u00fc", "\u7528\u62377", "x\x0cy", "p\u2028q", "\x85z",
           "\x1cw", " sp", "sp ", "\u00e9t\u00e9-" + "9" * 20]
# lines that str.strip reduces to nothing, so both loaders skip them
BLANK_LINES = ["", " ", "\t", "\t\t", " \t \t ", "\x0c", "\x0b\t\x1c",
               "\u2028\t\x85\t\u3000"]
EXTRA_COLUMNS = ["", "", "\t0.5", "\t", "\tx\ty", "\t\t"]
ENDINGS = ["\n", "\n", "\r\n", "\r"]


def random_tsv(seed, bad_lines=()):
    """Bytes of a random interaction file: valid, duplicate and blank lines
    under mixed line ends, with each of ``bad_lines`` at a random place."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(int(rng.integers(0, 60))):
        kind = rng.random()
        if kind < 0.2:
            lines.append(BLANK_LINES[rng.integers(len(BLANK_LINES))])
        elif kind < 0.3 and lines:
            lines.append(lines[rng.integers(len(lines))])
        else:
            u, i = (ID_POOL[k] for k in rng.integers(len(ID_POOL), size=2))
            rel = SCHEMA.relations[rng.integers(3)]
            lines.append(f"{u}\t{i}\t{rel}" + EXTRA_COLUMNS[rng.integers(len(EXTRA_COLUMNS))])
    for bad in bad_lines:
        lines.insert(int(rng.integers(len(lines) + 1)), bad)
    text = "".join(line + ENDINGS[rng.integers(len(ENDINGS))] for line in lines)
    if rng.random() < 0.3:
        text = text.rstrip("\r\n")
    if rng.random() < 0.2 and not bad_lines:
        # a BOM is part of the first line: an id if it starts with one, a
        # malformed line otherwise
        text = "\ufeff" + text
    return text.encode("utf-8")


def outcome(loader, path, schema=SCHEMA):
    """The loaded graph, or the type and message of the error raised."""
    try:
        return loader(path, schema)
    except (ParseError, SchemaError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(path, schema=SCHEMA):
    got = outcome(load_interactions, path, schema)
    want = outcome(load_interactions_reference, path, schema)
    if isinstance(want, tuple):
        assert got == want
        return want
    assert isinstance(got, MultiplexBipartiteGraph), got
    assert got.user_ids == want.user_ids and got.item_ids == want.item_ids
    assert (got.num_users, got.num_items) == (want.num_users, want.num_items)
    for r in schema.relations:
        for a, b in zip(got.edges[r], want.edges[r]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    return want


class TestBulkLoaderMatchesReference:
    """load_interactions against the line-by-line reference loader."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_files(self, tmp_path, seed):
        path = tmp_path / "data.tsv"
        path.write_bytes(random_tsv(seed))
        want = assert_same_outcome(path)
        if not path.read_bytes().startswith("\ufeff".encode()):
            assert isinstance(want, MultiplexBipartiteGraph)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_files_with_bad_lines(self, tmp_path, seed):
        bad = ["u1\tonly", "u1\t\tbuy", "\ti\tbuy", "u\ti\t", "u\ti\tclick",
               "u\ti\tbuy\x00", "u\ti\tbu", "u\ti\tBuy", "u\ti\t buy",
               "u\ti\tpurchase\t1"]
        rng = np.random.default_rng(1000 + seed)
        path = tmp_path / "data.tsv"
        chosen = [bad[k] for k in rng.integers(len(bad), size=rng.integers(1, 4))]
        path.write_bytes(random_tsv(seed, chosen))
        assert isinstance(assert_same_outcome(path), tuple)

    def test_prefix_and_nul_ids_stay_apart(self, tmp_path):
        ids = ["u1", "u10", "u1\x00", "u1\x00\x00", "abcdefgh", "abcdefgh\x00", "u1"]
        path = write(tmp_path, "".join(f"{u}\t{u}\tbuy\n" for u in ids))
        g = load_interactions(path, SCHEMA)
        assert g.user_ids == ids[:-1] and g.item_ids == ids[:-1]
        assert g.edge_count("buy") == 6
        assert_same_outcome(path)

    def test_line_ends_and_bom(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_bytes("\ufeffa\tx\tbuy\r\nb\ty\tview\rc\tz\tcart".encode())
        g = load_interactions(path, SCHEMA)
        assert g.user_ids == ["\ufeffa", "b", "c"] and g.item_ids == ["x", "y", "z"]
        assert_same_outcome(path)

    def test_whitespace_only_relation_name(self, tmp_path):
        # a relation named by whitespace: its lines load, while lines made
        # of whitespace alone are still skipped
        schema = make_schema(("buy", " "), "buy")
        path = write(tmp_path, "u\ti\t \n \t \t \nu\tj\tbuy\n\t\t \nv\ti\t \t\n")
        g = load_interactions(path, schema)
        assert g.edge_count(" ") == 2 and g.edge_count("buy") == 1
        assert_same_outcome(path, schema)

    def test_multi_byte_relation_names(self, tmp_path):
        schema = make_schema(("\u95b2\u89a7", "\u8cfc\u5165"), "\u8cfc\u5165")
        path = write(tmp_path, "u\ti\t\u95b2\u89a7\nu\ti\t\u8cfc\u5165\t9\n")
        g = load_interactions(path, schema)
        assert g.edge_count("\u95b2\u89a7") == 1 and g.edge_count("\u8cfc\u5165") == 1
        assert_same_outcome(path, schema)
        path = write(tmp_path, "u\ti\t\u8cfc\u5165\u8cfc\n")
        assert isinstance(assert_same_outcome(path, schema), tuple)

    def test_demo_and_retail_like_files(self, tmp_path):
        for name, flags in [("demo", []),
                            ("retail", ["--synth-users", "2200", "--synth-items", "30000",
                                        "--synth-clusters", "200", "--synth-views", "25",
                                        "--synth-carts", "12", "--synth-buys", "8"])]:
            path = tmp_path / f"{name}.tsv"
            assert main(["synth", "--data", str(path), *flags]) == 0
            assert isinstance(assert_same_outcome(path), MultiplexBipartiteGraph)


class TestLoadErrors:
    """The first bad line in file order raises, as the reference does."""

    def test_malformed_line_before_unknown_relation(self, tmp_path):
        path = write(tmp_path, "u\ti\tbuy\nu only\nu\ti\tclick\n")
        with pytest.raises(ParseError, match="^line 2: "):
            load_interactions(path, SCHEMA)
        assert_same_outcome(path)

    def test_unknown_relation_before_malformed_line(self, tmp_path):
        path = write(tmp_path, "u\ti\tbuy\nu\ti\tclick\nu only\n")
        with pytest.raises(SchemaError, match="^line 2: unknown relation 'click'"):
            load_interactions(path, SCHEMA)
        assert_same_outcome(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = write(tmp_path, "\n \t \r\nu\ti\tbuy\r\n\t\t\ru\t\tbuy\n")
        with pytest.raises(ParseError) as info:
            load_interactions(path, SCHEMA)
        assert info.value.line_no == 5
        assert_same_outcome(path)

    def test_undecodable_byte_fails_before_any_line(self, tmp_path):
        # the reference reads in chunks and reports the malformed first
        # line; the bulk loader decodes the whole file first
        path = tmp_path / "data.tsv"
        path.write_bytes(b"u only\n" + b"u\ti\tbuy\n" * 5000 + b"\xff\ti\tbuy\n")
        with pytest.raises(UnicodeDecodeError):
            load_interactions(path, SCHEMA)
        with pytest.raises(ParseError, match="line 1"):
            load_interactions_reference(path, SCHEMA)


class TestInvariantsAndPersistence:
    def test_edges_are_user_item(self):
        g = random_multiplex_graph(6, 9, ("view", "cart", "buy"), 0.3, seed=0)
        for r in g.schema.relations:
            u, v = g.edges[r]
            assert np.all(u < g.num_users)
            assert np.all((v >= g.num_users) & (v < g.num_nodes))

    def test_degree(self):
        edges = {"view": (np.asarray([0, 0, 0, 0, 0]), np.asarray([2, 3, 4, 5, 6])),
                 "buy": (np.asarray([1]), np.asarray([2]))}
        g = MultiplexBipartiteGraph(schema=make_schema(("view", "buy"), "buy"),
                                    num_users=2, num_items=5, edges=edges)
        # node degrees are the row lengths of the relation's block of the
        # model's stack, which its 1/sqrt(deg_u deg_v) normalization reads
        deg = np.diff(DualChannelModel(g, RunConfig()).stack.first.indptr)
        view, buy = deg[g.num_nodes:2 * g.num_nodes], deg[2 * g.num_nodes:]
        assert view[0] == 5                   # star center
        assert buy[1] == 1
        assert buy[2] == 1                    # item side of a single edge
        assert buy[0] == 0                    # isolated under buy


class TestSortedUnique:
    @pytest.mark.parametrize("keys", [
        np.empty(0, np.int64),
        np.full(50, 7, np.int64),
        np.array([-3, 5, -3, 0, 5, -1], np.int64),
        np.random.default_rng(0).integers(-1000, 1000, size=5000),
        np.random.default_rng(1).integers(0, 2**62, size=(40, 30)),
    ], ids=["empty", "all-duplicate", "negative", "random", "2-d"])
    def test_equals_np_unique(self, keys):
        got, want = sorted_unique(keys), np.unique(keys)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestSortedContains:
    @given(keys=st.lists(st.integers(-50, 50), max_size=30),
           query=st.lists(st.integers(-60, 60), max_size=40))
    @example(keys=[], query=[3, 3, -1])
    @example(keys=[4], query=[4, 4, 4, 5])
    def test_equals_np_isin(self, keys, query):
        keys = sorted_unique(np.asarray(keys, np.int64))
        query = np.asarray(query, np.int64)
        got = sorted_contains(keys, query)
        assert got.dtype == bool and got.shape == query.shape
        np.testing.assert_array_equal(got, np.isin(query, keys))

    @pytest.mark.parametrize("n_keys", [0, 1, 200])
    def test_2d_query(self, n_keys):
        rng = np.random.default_rng(n_keys)
        keys = sorted_unique(rng.integers(0, 2**40, size=n_keys))
        query = rng.integers(0, 2**40, size=(30, 20))
        query[::3] = rng.choice(keys, size=query[::3].shape) if n_keys else 0
        got = sorted_contains(keys, query)
        assert got.shape == query.shape
        np.testing.assert_array_equal(got, np.isin(query, keys))


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
