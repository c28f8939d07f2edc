"""Full-ranking top-K evaluation: Recall@K, NDCG@K, and the
interaction-count group breakdown.

Every test user is ranked against the whole item catalog (training
positives removed), scores are float64 dot products of final embeddings
(a float32 table is upcast once per call), and ties break by ascending
item id.

Users are ranked a chunk at a time. Training positives score -inf, and an
exact screen keeps each row's candidates: the columns fall into G strided
groups (group j holds columns j, j + G, ...), and t is the row's k-th
largest group maximum. The k groups with the largest maxima each hold a
distinct item scoring at least t, so every top-k item, ties included,
scores at least t. The entries of at least t, in groups whose maximum is
at least t, are sorted in one lexsort per chunk. Exact for finite scores.
"""

from dataclasses import dataclass

import numpy as np

from .graph import DatasetSplit, MultiplexBipartiteGraph

SPARSITY_BUCKETS = ((0, 4), (4, 5), (5, 6), (6, 7), (7, 10), (10, 60), (60, None))

# G of the top-k screen: more groups hold fewer columns each but make a
# larger (chunk, G) table of maxima to partition. On the retail-like graph
# (30k items, k 40, chunk 512) 2048 left about 40 candidates per user and
# ranked as fast as 1024 or 4096, and faster than 512 or 8192.
SCREEN_GROUPS = 2048


def rank_items(e_final: np.ndarray, num_users: int, user: int,
               exclude=()) -> np.ndarray:
    """All items ordered by descending score (ascending id on ties),
    with excluded items removed. Returns global item indices."""
    e_final = np.asarray(e_final, dtype=np.float64)
    items = np.arange(num_users, e_final.shape[0])
    scores = e_final[items] @ e_final[user]
    if len(exclude):
        keep = ~np.isin(items, np.asarray(list(exclude)))
        items, scores = items[keep], scores[keep]
    order = np.lexsort((items, -scores))
    return items[order]


_LOG2 = np.log(2.0)


@dataclass
class RankingResult:
    """Per-user top lists and metrics plus the per-K aggregates."""

    users: np.ndarray                 # evaluated users (>= 1 test item)
    top_items: list                   # per user: global item ids, top max(ks)
    per_user: dict                    # k -> {"recall": array, "ndcg": array}
    aggregates: dict                  # k -> {"recall": float, "ndcg": float}
    ks: tuple

    def recall(self, k: int) -> float:
        return self.aggregates[k]["recall"]

    def ndcg(self, k: int) -> float:
        return self.aggregates[k]["ndcg"]


def _top_lists(scores: np.ndarray, width: int):
    """Each row's first ``width`` column ids by (-score, id), -inf entries
    left out: a (rows, width) matrix padded with -1, and the row lengths."""
    c, n = scores.shape
    g = min(SCREEN_GROUPS, n)
    q, r = divmod(n, g)
    gmax = scores[:, :q * g].reshape(c, q, g).max(axis=1)
    if r:
        np.maximum(gmax[:, :r], scores[:, q * g:], out=gmax[:, :r])
    t = (np.partition(gmax, g - width, axis=1)[:, g - width] if width <= g
         else np.full(c, -np.inf))
    rows, groups = np.nonzero(gmax >= t[:, None])
    cols = groups[:, None] + g * np.arange(q + (r > 0))
    inside = cols < n
    rows, cols = np.broadcast_to(rows[:, None], cols.shape)[inside], cols[inside]
    vals = scores[rows, cols]
    keep = (vals >= t[rows]) & (vals > -np.inf)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.lexsort((cols, -vals, rows))
    rows, cols = rows[order], cols[order]
    counts = np.bincount(rows, minlength=c)
    rank = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    top = np.full((c, width), -1)
    first = rank < width
    top[rows[first], rank[first]] = cols[first]
    return top, np.minimum(counts, width)


def evaluate(e_final: np.ndarray, graph: MultiplexBipartiteGraph,
             split: DatasetSplit, ks=(5, 10, 20, 40),
             chunk: int = 512) -> RankingResult:
    """Rank the full catalog for every user with test interactions.

    Training positives of the target relation are excluded from each
    user's candidate list; users without test items are skipped. Metrics
    are bit-identical to the scalar references in ``tests/oracles.py``.
    """
    ks = tuple(sorted(ks))
    e_final = np.asarray(e_final, dtype=np.float64)
    num_users, num_items = graph.num_users, graph.num_items
    width = min(ks[-1], num_items)
    tu, tv = split.test_edges
    users = np.unique(tu).astype(np.int64)
    # distinct (user position, item) test edges as sorted integer keys
    test_keys = np.unique(np.searchsorted(users, tu) * num_items + (tv - num_users))
    n_test = np.bincount(test_keys // num_items, minlength=len(users))
    su, sv = split.train_pairs(graph.schema.target)
    # gains ln 2 / ln(rank + 1), summed from rank 1 up
    gains = np.array([_LOG2 / np.log(r + 1.0) for r in range(1, width + 1)])
    ideal = np.cumsum(gains)
    top_lists = []
    per_user = {k: {"recall": np.zeros(len(users)), "ndcg": np.zeros(len(users))}
                for k in ks}

    # one score buffer for every chunk, so no two chunks are ever live
    buf = np.empty((min(chunk, len(users)), num_items), e_final.dtype)
    for start in range(0, len(users), chunk):
        batch = users[start:start + chunk]
        stop = start + len(batch)
        scores = np.matmul(e_final[batch], e_final[num_users:].T, out=buf[:len(batch)])
        excluded = np.isin(su, batch)
        scores[np.searchsorted(batch, su[excluded]), sv[excluded] - num_users] = -np.inf
        top, lengths = _top_lists(scores, width)
        keys = np.arange(start, stop)[:, None] * num_items + top
        hits = np.isin(keys, test_keys) & (top >= 0)
        n_hits = np.cumsum(hits, axis=1)
        dcg = np.cumsum(np.where(hits, gains, 0.0), axis=1)
        n = n_test[start:stop]
        for k in ks:
            j = min(k, width) - 1
            per_user[k]["recall"][start:stop] = n_hits[:, j] / n
            per_user[k]["ndcg"][start:stop] = dcg[:, j] / ideal[np.minimum(n, k) - 1]
        top_lists.extend(row[:m] for row, m in zip(top + num_users, lengths))

    aggregates = {k: {"recall": float(per_user[k]["recall"].mean()) if len(users) else 0.0,
                      "ndcg": float(per_user[k]["ndcg"].mean()) if len(users) else 0.0}
                  for k in ks}
    return RankingResult(users=users, top_items=top_lists, per_user=per_user,
                         aggregates=aggregates, ks=ks)


def headline_k(ks) -> int:
    """The k of the group breakdown and early stopping: 10, else the least of ``ks``."""
    return 10 if 10 in ks else min(ks)


def _bucket_label(lo, hi) -> str:
    return f"[{lo},{hi})" if hi is not None else f"[{lo},inf)"


def sparsity_groups(result: RankingResult, graph: MultiplexBipartiteGraph,
                    split: DatasetSplit) -> dict:
    """Mean metrics at :func:`headline_k` per user group, bucketed by the
    user's number of training interactions summed over every relation.

    The six standard buckets plus an explicit [60,inf) overflow so the
    group counts always partition the evaluated users.
    """
    k = headline_k(result.ks)
    counts = np.zeros(graph.num_users, dtype=np.int64)
    for r in graph.schema.relations:
        u, _ = split.train_pairs(r)
        counts += np.bincount(u, minlength=graph.num_users)

    groups = {}
    for lo, hi in SPARSITY_BUCKETS:
        label = _bucket_label(lo, hi)
        if hi is None:
            sel = counts[result.users] >= lo
        else:
            sel = (counts[result.users] >= lo) & (counts[result.users] < hi)
        n = int(sel.sum())
        entry = {"users": n, "recall": None, "ndcg": None}
        if n:
            entry["recall"] = float(result.per_user[k]["recall"][sel].mean())
            entry["ndcg"] = float(result.per_user[k]["ndcg"][sel].mean())
        groups[label] = entry
    return groups
