"""Multiplex bipartite graph data model: schemas, ingestion, splits.

Node indexing convention used everywhere in this package: users occupy
rows [0, num_users) and items occupy rows [num_users, num_users+num_items)
of every embedding table and adjacency matrix.  External string ids are
kept in side mappings for reporting only.
"""

from dataclasses import dataclass, field

import numpy as np

from .sparse import CSRStruct, build_struct

# named RNG substreams so toggling one feature never shifts another's draws
RNG_STREAMS = {"split": 0, "init": 1, "negatives": 2, "shuffle": 3, "synth": 4}


def sorted_unique(a) -> np.ndarray:
    """``np.unique`` of an array by one sort and a neighbour compare: numpy
    2.4's hashing ``np.unique`` took 153 ms against 2.9 ms on 198k random
    int64 keys (2-vCPU VM)."""
    a = np.sort(np.ravel(a))
    keep = np.ones(a.shape[0], dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Independent generator for one named substream of the run seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(RNG_STREAMS[name],)))


class ParseError(ValueError):
    """Malformed interaction line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SchemaError(ValueError):
    """Relation schema violation (unknown relation, bad ordering, ...)."""


class SplitError(ValueError):
    """The target relation has no edges to split into train and test."""


@dataclass(frozen=True)
class RelationSchema:
    """The relation vocabulary, the prediction target, and the order that
    sequences every relation chain (the target may sit anywhere in it)."""

    relations: tuple
    target: str
    canonical_order: tuple

    def __post_init__(self):
        rels = tuple(self.relations)
        order = tuple(self.canonical_order)
        if len(set(rels)) != len(rels):
            raise SchemaError(f"duplicate relation names: {rels}")
        if not 1 <= len(rels) <= 8:
            raise SchemaError(f"need 1..8 relations, got {len(rels)}")
        if self.target not in rels:
            raise SchemaError(f"target {self.target!r} not in relations {rels}")
        if sorted(order) != sorted(rels):
            raise SchemaError(f"canonical_order {order} is not a permutation of {rels}")
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "canonical_order", order)

    @property
    def num_patterns(self) -> int:
        """Nonempty relation subsets; pattern p has signature p + 1."""
        return 2 ** len(self.relations) - 1

    @property
    def auxiliaries(self) -> tuple:
        return tuple(r for r in self.relations if r != self.target)


def make_schema(relations, target, canonical_order=None) -> RelationSchema:
    if canonical_order is None:
        canonical_order = [r for r in relations if r != target] + [target]
    return RelationSchema(tuple(relations), target, tuple(canonical_order))


@dataclass
class MultiplexBipartiteGraph:
    """Binary user-item interactions, one symmetric adjacency per relation.

    ``edges[r]`` holds canonical (user, item) pairs with item indices in
    the global range [num_users, num_users+num_items); pairs are unique and
    sorted. Immutable after construction; adjacency structures are cached.
    """

    schema: RelationSchema
    num_users: int
    num_items: int
    edges: dict
    user_ids: list = field(default_factory=list)
    item_ids: list = field(default_factory=list)
    _adj_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        n = self.num_nodes
        for r in self.schema.relations:
            u, v = self.edges.setdefault(r, _empty_edges())
            if u.shape != v.shape:
                raise ValueError(f"relation {r}: ragged edge arrays")
            if u.size and (u.min() < 0 or u.max() >= self.num_users):
                raise ValueError(f"relation {r}: user index out of range")
            if v.size and (v.min() < self.num_users or v.max() >= n):
                raise ValueError(f"relation {r}: item index out of range")

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_items

    def edge_count(self, relation: str) -> int:
        return int(self.edges[relation][0].shape[0])

    def edge_keys(self, relation: str) -> np.ndarray:
        """Sorted int64 keys u*N+v of the relation's (user, item) pairs."""
        u, v = self.edges[relation]
        return u * np.int64(self.num_nodes) + v

    def adjacency(self, relation: str) -> CSRStruct:
        """Symmetric CSR topology of one relation (cached)."""
        if relation not in self._adj_cache:
            u, v = self.edges[relation]
            self._adj_cache[relation] = build_struct(self.num_nodes, u, v)
        return self._adj_cache[relation]


def _empty_edges():
    return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _intern(data: bytes, start, stop) -> tuple:
    """Number the byte strings data[start[k]:stop[k]] in first-seen order;
    return the numbers and the distinct strings decoded.

    One stable sort of fixed-width keys: the length, which keeps strings
    that differ by trailing NUL bytes apart, then the bytes as zero-padded
    big-endian 8-byte words. ``data`` ends with 8 spare bytes for the reads.
    """
    length = stop - start
    words = np.ndarray(len(data) - 7, dtype=">u8", buffer=data, strides=(1,))
    masks = np.array([2**64 - 2**(64 - 8 * k) for k in range(9)], dtype=np.uint64)
    keys = [length]
    for off in range(0, int(length.max(initial=0)), 8):
        keys.append(words[np.minimum(start + off, stop)]
                    & masks[np.clip(length - off, 0, 8)])
    order = np.lexsort(keys)
    new = np.arange(order.shape[0]) == 0
    while keys:  # popped, so each key is freed once compared
        new[1:] |= np.diff(keys.pop()[order]) != 0
    first = order[new]  # the sort is stable, so this is each string's first line
    codes = np.empty_like(order)
    codes[order] = np.argsort(np.argsort(first))[np.cumsum(new) - 1]
    del order, new
    first.sort()
    return codes, [data[a:b].decode("utf-8")
                   for a, b in zip(start[first].tolist(), stop[first].tolist())]


def load_interactions(path, schema: RelationSchema) -> MultiplexBipartiteGraph:
    r"""Parse a TSV interaction file into a multiplex bipartite graph.

    Line format: ``user_id<TAB>item_id<TAB>relation_name``; extra trailing
    fields (e.g. attribute payloads) are tolerated and ignored. Ids become
    dense integers in first-seen order; duplicate (u, v, r) lines collapse.
    The file must be UTF-8 with ``\n``, ``\r\n`` or ``\r`` line ends;
    the first bad line raises naming its number, counting blank lines.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    data.decode("utf-8")  # a UnicodeDecodeError comes before any line is checked
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    # end the last line, and add the 8 spare bytes that _intern reads past it
    data += (b"" if data.endswith(b"\n") else b"\n") + bytes(8)
    buf = np.frombuffer(data, dtype=np.uint8)
    pos = np.int32 if len(data) < 2**30 else np.int64  # position + length < 2**31
    ends = np.flatnonzero(buf == 10).astype(pos)
    starts = np.concatenate(([0], ends + 1))[:-1].astype(pos)
    # the first three tabs of every line; sentinels stand in for missing ones
    tabs = np.append(np.flatnonzero(buf == 9), [len(data)] * 3).astype(pos)
    k = np.searchsorted(tabs, starts)
    t1, t2, t3 = tabs[k], tabs[k + 1], np.minimum(tabs[k + 2], ends)
    del tabs, k
    # two tabs, a user, an item, and no relation longer than every known one
    fast = ((t2 < ends) & (t1 > starts) & (t2 > t1 + 1)
            & (t3 - t2 <= max(len(r.encode()) for r in schema.relations) + 1))

    known = set(schema.relations)
    rel = np.full(ends.shape[0], -1, dtype=np.int8)
    codes, names = _intern(data, t2[fast] + 1, t3[fast])
    # lines of a whitespace-only relation name go by the per-line rules
    rel[fast] = np.array([schema.relations.index(n) if n in known and n.strip() else -1
                          for n in names], dtype=np.int64)[codes]
    del t3, fast, codes
    for i in np.flatnonzero(rel < 0).tolist():
        line = data[starts[i]:ends[i]].decode("utf-8")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 3 or any(not p for p in parts[:3]):
            raise ParseError(i + 1, f"expected 'user<TAB>item<TAB>relation', got {line!r}")
        if parts[2] not in known:
            raise SchemaError(f"line {i + 1}: unknown relation {parts[2]!r} "
                              f"(schema has {sorted(known)})")
        rel[i] = schema.relations.index(parts[2])

    keep = rel >= 0
    rel, starts, t1, t2 = rel[keep], starts[keep], t1[keep], t2[keep]
    users, user_ids = _intern(data, starts, t1)
    items, item_ids = _intern(data, t1 + 1, t2)
    num_users, num_items = len(user_ids), max(len(item_ids), 1)
    keys = users * num_items + items
    edges = {}
    for r, name in enumerate(schema.relations):
        pairs = sorted_unique(keys[rel == r])
        edges[name] = (pairs // num_items, pairs % num_items + num_users)

    return MultiplexBipartiteGraph(schema=schema, num_users=num_users,
                                   num_items=len(item_ids), edges=edges,
                                   user_ids=user_ids, item_ids=item_ids)


@dataclass(frozen=True)
class DatasetSplit:
    """Per-relation training edges plus held-out target-relation test edges."""

    train_edges: dict
    test_edges: tuple
    seed: int

    def train_pairs(self, relation: str) -> tuple:
        return self.train_edges[relation]


def split_train_test(graph: MultiplexBipartiteGraph, ratio: float,
                     seed: int) -> DatasetSplit:
    """Hold out (1-ratio) of target edges for testing, keep all auxiliaries.

    The target-relation edge set is permuted by the 'split' substream of
    ``seed`` and cut at round(ratio * m); auxiliary relations are never
    held out.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    target = graph.schema.target
    u, v = graph.edges[target]
    m = u.shape[0]
    if m == 0:
        raise SplitError(f"graph has no target-relation edges to split "
                         f"(no {target!r} lines)")
    rng = stream_rng(seed, "split")
    perm = rng.permutation(m)
    n_train = int(round(ratio * m))
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    train_edges = {r: graph.edges[r] for r in graph.schema.relations if r != target}
    train_edges[target] = (u[train_idx], v[train_idx])
    return DatasetSplit(train_edges=train_edges,
                        test_edges=(u[test_idx], v[test_idx]), seed=seed)


def training_graph(graph: MultiplexBipartiteGraph,
                   split: DatasetSplit) -> MultiplexBipartiteGraph:
    """The graph the model is allowed to see: all aux edges + train target edges."""
    return MultiplexBipartiteGraph(schema=graph.schema, num_users=graph.num_users,
                                   num_items=graph.num_items,
                                   edges=dict(split.train_edges),
                                   user_ids=graph.user_ids, item_ids=graph.item_ids)
