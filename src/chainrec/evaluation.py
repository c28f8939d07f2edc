"""Full-ranking top-K evaluation: Recall@K, NDCG@K, and the
interaction-count group breakdown.

Every test user is ranked against the whole item catalog (training
positives removed), by float64 dot products of final embeddings (a
float32 table is upcast once per call), and ties break by ascending
item id.

Users are ranked a chunk at a time: a float32 screen keeps every item
that can reach a row's top k, and only those are scored in float64 and
sorted. The screen's product and its (chunk, items) buffer are float32,
half the bytes of float64 in every pass over them.

Tables. A chunk's user rows a are scaled by 2^p, one power of two per
row, and the item table b by 2^q, one for the whole table, so that every
scaled row norm is below 1 (exact, and nothing can overflow), then cast
to float32: â, b̂. One sgemm gives s32 = fl32(â·b̂). Let s = fl64(a·b) 2^(p+q)
be the float64 score in the same units, and u = 2^-24.

Margin. With d the width and γ_n = nu/(1 - nu), every entry of a row
has |s32 - s| <= δ, where

    δ = 2(d + 2)u ‖â‖ max_j ‖b̂_j‖ + d 2^-120 + d 2^min(p+q-1020, 0).

The error splits three ways, with Σ|â_i||b̂_i| <= ‖â‖‖b̂‖ (Cauchy-Schwarz):
- the casts: â_i = x_i(1 + α_i) + σ_i for x = a 2^p, |α_i| <= u and
  |σ_i| <= 2^-149, and alike for b̂, so
  |â·b̂ - x·y| <= 2u/(1 - u)² Σ|â_i||b̂_i| + 4d 2^-149;
- the sgemm, in any summation order, with or without FMA:
  |s32 - â·b̂| <= γ_d Σ|â_i||b̂_i| + d 2^-125, the last term for underflow,
  gradual or flushed to zero;
- the float64 score: |s - x·y| <= γ'_d Σ|x_i||y_i| + d 2^(p+q-1021), where
  γ'_d is γ_d at u' = 2^-53, the last term again for underflow.
The relative terms sum to at most γ_{d+2}, which is at most 2(d + 2)u
while (d + 2)u <= 1/2; the factor 2 also covers the float64 rounding of
the norms and of t - 2δ below. The float32 underflow terms sum to less
than d 2^-120. The float64 one is capped at d: scaled scores lie in
[-1, 1], so a row whose margin reaches d keeps all its items, and the
bound is needed only where the cap does not bind.

Screen. The columns fall into G strided groups (group j holds columns j,
j + G, ...), and t is the row's k-th largest group maximum of s32 (-inf
if fewer than k groups, or k items, are left). The k groups with the
largest maxima each hold a distinct item with s32 >= t, so s >= t - δ:
the row's k-th best s is at least t - δ, and every top-k item, ties
included, has s >= t - δ and so s32 >= t - 2δ. The entries of at least
t - 2δ (one float32 step below it), in groups whose maximum reaches it,
are rescored in float64 from the unscaled tables and sorted once per
chunk by (row, -s, id). Exact for finite scores, with respect to that
float64 score; :func:`rank_items`, the brute force, scores with the same
kernel, while another float64 kernel (a matrix-vector product, say) may
round a dot product differently in its last bit and order items within
an ulp or two differently.
"""

from dataclasses import dataclass

import numpy as np

from . import backend
from .graph import DatasetSplit, MultiplexBipartiteGraph, sorted_unique

SPARSITY_BUCKETS = ((0, 4), (4, 5), (5, 6), (6, 7), (7, 10), (10, 60), (60, None))

# G of the top-k screen: more groups hold fewer columns each but make a
# larger (chunk, G) table of maxima to partition. On the retail-like graph
# (30k items, k 40, chunk 512) 2048 left about 40 candidates per user and
# ranked as fast as 1024 or 4096, and faster than 512 or 8192.
SCREEN_GROUPS = 2048


def rank_items(e_final: np.ndarray, num_users: int, user: int,
               exclude=()) -> np.ndarray:
    """All items ordered by descending score (ascending id on ties),
    with excluded items removed. Returns global item indices. Scores come
    from the kernel :func:`evaluate` rescores with, so the two agree on
    near ties too."""
    e_final = np.asarray(e_final, dtype=np.float64)
    items = np.arange(num_users, e_final.shape[0])
    scores = backend.spmm_grad_vals(np.full(items.shape[0], user), items,
                                    e_final, e_final)
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


def pow2_exponents(x: np.ndarray, axis=1):
    """Per row of ``x`` (one for all rows with ``axis=None``), the e for
    which every ‖x_row 2^e‖ < 1: max|x| < 2^m (frexp), a row norm is at
    most √d max|x|, and √d <= 2^h."""
    h = (x.shape[1] - 1).bit_length() + 1 >> 1
    _, m = np.frexp(np.maximum(x.max(axis=axis, initial=0.0),
                               -x.min(axis=axis, initial=0.0)))
    return -(m.astype(np.int64) + h)


def screen_table(x: np.ndarray, e) -> np.ndarray:
    """``x`` 2^e in float32, scaled in float64 first so nothing overflows."""
    out = np.empty(x.shape, np.float32)
    # int32 exponents: numpy's int64 ldexp loop was 6x slower
    np.ldexp(x, np.asarray(e, np.intc), out=out)
    return out


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, summed in float64."""
    return np.sqrt(np.einsum("ij,ij->i", x, x, dtype=np.float64))


def screen_margin(users: np.ndarray, exps: np.ndarray, item_norm: float) -> np.ndarray:
    """δ per row of the float32 screen table ``users`` whose rows are
    scaled by 2^exps in all (user and item exponents summed), against
    item rows of norm at most ``item_norm`` (module docstring)."""
    d = users.shape[1]
    return (2 * (d + 2) * 2.0 ** -24 * row_norms(users) * item_norm + d * 2.0 ** -120
            + np.ldexp(float(d), np.minimum(exps - 1020, 0)))


def _screen(scores: np.ndarray, width: int, margin: np.ndarray):
    """(rows, cols) of the entries of float32 ``scores`` that can reach their
    row's first ``width`` by float64 score, -inf entries left out."""
    c, n = scores.shape
    g = min(SCREEN_GROUPS, n)
    q, r = divmod(n, g)
    gmax = scores[:, :q * g].reshape(c, q, g).max(axis=1)
    if r:
        np.maximum(gmax[:, :r], scores[:, q * g:], out=gmax[:, :r])
    # copied out, so the partitioned (c, G) table is freed at once
    t = (np.partition(gmax, g - width, axis=1)[:, g - width].copy() if width <= g
         else np.float32(-np.inf))
    # the float32 step below the rounded float64 floor keeps all it keeps
    floor32 = np.nextafter((t - 2 * margin).astype(np.float32), np.float32(-np.inf))
    rows, groups = np.nonzero(gmax >= floor32[:, None])
    cols = groups[:, None] + g * np.arange(q + (r > 0))
    inside = cols < n
    rows, cols = np.broadcast_to(rows[:, None], cols.shape)[inside], cols[inside]
    vals = scores[rows, cols]
    keep = (vals >= floor32[rows]) & (vals > -np.inf)
    return rows[keep], cols[keep]


def _top_lists(rows, cols, vals, c: int, width: int):
    """Each row's first ``width`` column ids by (-vals, id): a (c, width)
    matrix padded with -1, and the row lengths."""
    # numpy sorts complex numbers by (real, imag), so (-vals, id) is one
    # key; a stable sort by row, a radix sort on the narrowest row type,
    # then groups the rows: half the time of lexsort((cols, -vals, rows))
    # on a chunk's 17k-25k survivors.
    order = np.argsort(-vals + 1j * cols, kind="stable")
    order = order[np.argsort(rows[order].astype(np.min_scalar_type(c)), kind="stable")]
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
    users = sorted_unique(tu).astype(np.int64)
    # distinct (user position, item) test edges as sorted integer keys
    test_keys = sorted_unique(np.searchsorted(users, tu) * num_items + (tv - num_users))
    n_test = np.bincount(test_keys // num_items, minlength=len(users))
    su, sv = split.train_pairs(graph.schema.target)
    # gains ln 2 / ln(rank + 1), summed from rank 1 up
    gains = np.array([_LOG2 / np.log(r + 1.0) for r in range(1, width + 1)])
    ideal = np.cumsum(gains)
    top_lists = []
    per_user = {k: {"recall": np.zeros(len(users)), "ndcg": np.zeros(len(users))}
                for k in ks}

    items = e_final[num_users:]
    item_exp = pow2_exponents(items, axis=None)
    items32 = screen_table(items, item_exp)
    item_norm = row_norms(items32).max(initial=0.0)
    # one float32 score buffer for every chunk, so no two chunks are ever live
    buf = np.empty((min(chunk, len(users)), num_items), np.float32)
    for start in range(0, len(users), chunk):
        batch = users[start:start + chunk]
        stop = start + len(batch)
        u64 = e_final[batch]
        user_exp = pow2_exponents(u64)
        u32 = screen_table(u64, user_exp[:, None])
        scores = np.matmul(u32, items32.T, out=buf[:len(batch)])
        excluded = np.isin(su, batch)
        scores[np.searchsorted(batch, su[excluded]), sv[excluded] - num_users] = -np.inf
        rows, cols = _screen(scores, width, screen_margin(u32, user_exp + item_exp, item_norm))
        vals = backend.spmm_grad_vals(rows, cols, u64, items)
        top, lengths = _top_lists(rows, cols, vals, len(batch), width)
        keys = np.arange(start, stop)[:, None] * num_items + top
        found = test_keys[np.minimum(np.searchsorted(test_keys, keys), len(test_keys) - 1)]
        hits = (found == keys) & (top >= 0)
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
