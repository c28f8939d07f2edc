"""Multiplex bipartite graph data model: schemas, ingestion, splits.

Node indexing convention used everywhere in this package: users occupy
rows [0, num_users) and items occupy rows [num_users, num_users+num_items)
of every embedding table and adjacency matrix.  External string ids are
kept in side mappings for reporting only.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .sparse import CSRStruct, build_struct

# named RNG substreams so toggling one feature never shifts another's draws
RNG_STREAMS = {"split": 0, "init": 1, "negatives": 2, "shuffle": 3, "synth": 4}


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
    """The relation vocabulary, the prediction target, and the chain order."""

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
        if order[-1] != self.target:
            raise SchemaError(f"canonical_order must end at target {self.target!r}, got {order}")
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "canonical_order", order)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def target_index(self) -> int:
        return self.relations.index(self.target)

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


def _canonical_edges(pairs) -> tuple:
    """Unique (u, v) pairs sorted by (u, v)."""
    if not pairs:
        return _empty_edges()
    arr = np.asarray(sorted(set(pairs)), dtype=np.int64)
    return arr[:, 0], arr[:, 1]


def load_interactions(path, schema: RelationSchema) -> MultiplexBipartiteGraph:
    """Parse a TSV interaction file into a multiplex bipartite graph.

    Line format: ``user_id<TAB>item_id<TAB>relation_name``; extra trailing
    fields (e.g. attribute payloads) are tolerated and ignored. Ids become
    dense integers in first-seen order; duplicate (u, v, r) lines collapse.
    """
    user_index, item_index = {}, {}
    user_ids, item_ids = [], []
    raw = {r: [] for r in schema.relations}
    known = set(schema.relations)
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) < 3 or any(not p for p in parts[:3]):
                raise ParseError(line_no, f"expected 'user<TAB>item<TAB>relation', got {line!r}")
            uid, iid, rel = parts[0], parts[1], parts[2]
            if rel not in known:
                raise SchemaError(f"line {line_no}: unknown relation {rel!r} "
                                  f"(schema has {sorted(known)})")
            if uid not in user_index:
                user_index[uid] = len(user_ids)
                user_ids.append(uid)
            if iid not in item_index:
                item_index[iid] = len(item_ids)
                item_ids.append(iid)
            raw[rel].append((user_index[uid], item_index[iid]))

    num_users, num_items = len(user_ids), len(item_ids)
    edges = {}
    for r in schema.relations:
        u, v = _canonical_edges(raw[r])
        edges[r] = (u, v + num_users)

    return MultiplexBipartiteGraph(schema=schema, num_users=num_users,
                                   num_items=num_items, edges=edges,
                                   user_ids=user_ids, item_ids=item_ids)


def save_graph(graph: MultiplexBipartiteGraph, out_dir) -> None:
    """Write one edge-list file per relation plus a key-value metadata file."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "meta.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"num_users={graph.num_users}\n")
        fh.write(f"num_items={graph.num_items}\n")
        fh.write(f"relations={','.join(graph.schema.relations)}\n")
        fh.write(f"target={graph.schema.target}\n")
        fh.write(f"canonical_order={','.join(graph.schema.canonical_order)}\n")
        for r in graph.schema.relations:
            fh.write(f"edges_{r}={graph.edge_count(r)}\n")
    for name, ids in (("users.txt", graph.user_ids), ("items.txt", graph.item_ids)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.writelines(f"{x}\n" for x in ids)
    for r in graph.schema.relations:
        u, v = graph.edges[r]
        with open(os.path.join(out_dir, f"edges_{r}.tsv"), "w", encoding="utf-8") as fh:
            for a, b in zip(u, v - graph.num_users):
                fh.write(f"{a}\t{b}\n")


def load_graph(in_dir) -> MultiplexBipartiteGraph:
    """Inverse of :func:`save_graph`; round-trips edge sets exactly."""
    meta = {}
    with open(os.path.join(in_dir, "meta.txt"), "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition("=")
            meta[key] = value
    schema = RelationSchema(tuple(meta["relations"].split(",")), meta["target"],
                            tuple(meta["canonical_order"].split(",")))
    num_users = int(meta["num_users"])
    num_items = int(meta["num_items"])

    def read_lines(name):
        path = os.path.join(in_dir, name)
        with open(path, "r", encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh if line != "\n"]

    user_ids = read_lines("users.txt")
    item_ids = read_lines("items.txt")
    edges = {}
    for r in schema.relations:
        pairs = []
        for line in read_lines(f"edges_{r}.tsv"):
            a, b = line.split("\t")
            pairs.append((int(a), int(b) + num_users))
        edges[r] = _canonical_edges(pairs)
    return MultiplexBipartiteGraph(schema=schema, num_users=num_users,
                                   num_items=num_items, edges=edges,
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
