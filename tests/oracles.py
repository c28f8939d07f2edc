"""Independent straight-line references used by the test suite.

Everything here is dense numpy written directly from the model definition,
with no imports from the library's numeric modules, so these functions stay
independent of the code paths they check. The reference loader takes only
the graph's container and exception classes from the library, and the
reference sampler only its named generator streams and batch container.
The one exception is the per-operator propagation below: it applies the
tape's ``spmm`` to one CSR operator at a time, the reference that the
stacked paths must match bit for bit.
"""

import numpy as np

from chainrec import autodiff as ad
from chainrec.graph import (MultiplexBipartiteGraph, ParseError, SchemaError,
                            stream_rng)
from chainrec.model import TrainBatch


def dense_adjacency(graph, relation):
    n = graph.num_nodes
    a = np.zeros((n, n))
    u, v = graph.edges[relation]
    a[u, v] = 1.0
    a[v, u] = 1.0
    return a


def sym_normalize(a):
    deg = a.sum(axis=1)
    inv = np.zeros_like(deg)
    inv[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    return a * inv[:, None] * inv[None, :]


def dense_matrix(struct, values):
    """Dense copy of a CSR struct with ndarray per-edge values."""
    out = np.zeros((struct.n, struct.n))
    out[struct.rows, struct.cols] = values
    return out


def propagate_layers(struct, vals, base, num_layers):
    """Layers 1..L of propagation through one CSR operator with per-edge
    ``vals`` from layer 0 ``base``, one ``autodiff.spmm`` per layer."""
    layers, h = [], base
    for _ in range(num_layers):
        h = ad.spmm(struct, vals, h)
        layers.append(h)
    return layers


def lightgcn_propagate(struct, vals, base, num_layers):
    """Sum of layers 0..L of :func:`propagate_layers`, one ``add_n``."""
    return ad.add_n([base, *propagate_layers(struct, vals, base, num_layers)])


def relation_propagation(graph, relation, base, layers):
    """Sum of layers 0..L of sym-normalized propagation under one relation."""
    norm = sym_normalize(dense_adjacency(graph, relation))
    h = base.copy()
    acc = base.copy()
    for _ in range(layers):
        h = norm @ h
        acc += h
    return acc


def local_propagation(bbps, logits, base, layers):
    """Mean of layers 1..L through the sym-normalized softmax-weighted sum
    of the dense pattern matrices."""
    w = _softmax(logits)
    m_loc = sym_normalize(sum(w[p] * bbps[p] for p in range(len(bbps))))
    h = base.copy()
    acc = np.zeros_like(base)
    for _ in range(layers):
        h = m_loc @ h
        acc += h
    return acc / layers


def build_global_similarity(b_matrix):
    """Dense pattern-similarity matrix B B^T with each row divided by its
    sum; rows of zeros stay zero."""
    s = b_matrix @ b_matrix.T
    rowsum = s.sum(axis=1)
    inv = np.zeros_like(rowsum)
    inv[rowsum != 0] = 1.0 / rowsum[rowsum != 0]
    return s * inv[:, None]


def propagate_global(sim, base, layers):
    """L rounds of dense similarity propagation; the final layer only."""
    h = base.copy()
    for _ in range(layers):
        h = sim @ h
    return h


def pair_signature(graph, u, v):
    """Bit r set iff relation r connects (u, v)."""
    sig = 0
    for r_idx, rel in enumerate(graph.schema.relations):
        eu, ev = graph.edges[rel]
        if np.any((eu == u) & (ev == v)):
            sig |= 1 << r_idx
    return sig


def dense_bbps(graph):
    """All exact-mask pattern matrices by per-pair brute force."""
    n = graph.num_nodes
    n_pat = 2 ** len(graph.schema.relations) - 1
    mats = [np.zeros((n, n)) for _ in range(n_pat)]
    for u in range(graph.num_users):
        for v in range(graph.num_users, n):
            sig = pair_signature(graph, u, v)
            if sig:
                mats[sig - 1][u, v] = 1.0
                mats[sig - 1][v, u] = 1.0
    return mats


def _softmax(x):
    e = np.exp(x - np.max(x))
    return e / e.sum()


def _softplus(x):
    return np.logaddexp(0.0, x)


# the weighting encoders' LeakyReLU slope
LEAKY_SLOPE = 0.01


def _leaky(x):
    return np.where(x > 0, x, LEAKY_SLOPE * x)


def _cos(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b) / (na * nb)


def infonce_reference(anchor_rows, other_rows, tau):
    """Literal per-user evaluation of the batch contrastive loss."""
    n = anchor_rows.shape[0]
    total = 0.0
    for i in range(n):
        sims = np.array([_cos(anchor_rows[i], other_rows[j]) / tau
                         for j in range(n)])
        m = sims.max()
        total += -(sims[i] - m - np.log(np.exp(sims - m).sum()))
    return total


def oracle_embeddings(train_graph, cfg, tensors):
    """Full forward from raw parameter tensors, straight-line dense, chain
    step by chain step: one base table shared by every channel, and
    row-normalized global similarity."""
    schema = train_graph.schema
    rels = schema.relations
    n_rel = len(rels)
    n_users = train_graph.num_users
    base = tensors["base"]
    layers = cfg.layers

    bbps = dense_bbps(train_graph)

    # local channel
    h_loc = local_propagation(bbps, tensors["local_logits"], base, layers)

    # global channel
    counts = np.stack([bbps[p].sum(axis=1) for p in range(len(bbps))], axis=1)
    b_mat = counts * _softplus(tensors["global_logits"])[None, :]
    h_glo = propagate_global(build_global_similarity(b_mat), base, layers)
    h_ebp = 0.5 * (h_loc + h_glo)

    # per-relation propagation, layers 0..L summed
    rel_emb = {rel: relation_propagation(train_graph, rel, base, layers)
               for rel in rels}
    e_r = sum(rel_emb[rel] for rel in rels)

    # chains from masks containing the target with >= 2 relations
    order = schema.canonical_order
    t_bit = 1 << rels.index(schema.target)
    chains = []
    for sig in range(1, 2 ** n_rel):
        if not sig & t_bit or bin(sig).count("1") < 2:
            continue
        present = {rels[r] for r in range(n_rel) if sig & (1 << r)}
        chains.append((sig, tuple(r for r in order if r in present)))

    chain_steps = []
    for i, (sig, seq) in enumerate(chains):
        steps = [rel_emb[seq[0]]]
        cur = rel_emb[seq[0]]
        for j in range(len(seq) - 1):
            wu = tensors[f"chain{i}.user{j}"]
            wv = tensors[f"chain{i}.item{j}"]
            nxt = np.vstack([cur[:n_users] @ wu.T, cur[n_users:] @ wv.T])
            steps.append(nxt)
            cur = nxt
        chain_steps.append(steps)
    e_c = sum(t for steps in chain_steps for t in steps) if chain_steps \
        else np.zeros_like(base)
    final = (h_ebp + e_r + e_c) / 3.0
    return {"rel": rel_emb, "chains": chains, "chain_steps": chain_steps,
            "e_c": e_c, "final": final}


def oracle_total_loss(train_graph, cfg, tensors, batch):
    """Full forward (:func:`oracle_embeddings`) + loss from raw parameter
    tensors, straight-line dense."""
    schema = train_graph.schema
    base = tensors["base"]
    d = base.shape[1]
    emb = oracle_embeddings(train_graph, cfg, tensors)
    rel_emb, chains, chain_steps = emb["rel"], emb["chains"], emb["chain_steps"]
    e_c, final = emb["e_c"], emb["final"]
    rels = schema.relations

    # contrastive losses, target anchored
    target = schema.target
    bu = batch.users
    rcl = {}
    for rel in rels:
        if rel == target:
            continue
        rcl[rel] = infonce_reference(rel_emb[target][bu], rel_emb[rel][bu], cfg.tau)

    def bpr(table, trip, extra_reg):
        u, p_, n_ = trip
        core = 0.0
        for a, b, c in zip(u, p_, n_):
            margin = float(table[a] @ table[b]) - float(table[a] @ table[c])
            core += np.logaddexp(0.0, -margin)
        reg = sum(float(base[i] @ base[i]) for i in np.concatenate([u, p_, n_]))
        reg += sum(float((t * t).sum()) for t in extra_reg)
        return core + cfg.l2 * reg

    # per-chain ranking losses and encoder weights
    active = [i for i in range(len(chains)) if i in batch.chain_triples]
    chain_losses, raw_means = [], []
    for i in active:
        sig, seq = chains[i]
        extra = [tensors[f"chain{i}.user{j}"] for j in range(len(seq) - 1)]
        extra += [tensors[f"chain{i}.item{j}"] for j in range(len(seq) - 1)]
        chain_losses.append(bpr(chain_steps[i][-1], batch.chain_triples[i], extra))
        loss_sum = sum(rcl[rel] for rel in seq if rel != target)
        raws = []
        for u in bu:
            feat = np.concatenate([np.full(d, loss_sum), e_c[u], final[u]])
            raws.append(float(_leaky(feat @ tensors["enc_chain.w"]
                                     + tensors["enc_chain.b"])))
        raw_means.append(np.mean(raws))
    loss_chains = 0.0
    if active:
        w_c = _softmax(np.asarray(raw_means)) * len(active)
        loss_chains = float(np.dot(w_c, np.asarray(chain_losses)))

    # weighted contrastive term
    aux = [r for r in rels if r != target]
    loss_rcl = 0.0
    if aux:
        means = []
        for rel in aux:
            raws = []
            for u in bu:
                feat = rcl[rel] * np.concatenate([rel_emb[rel][u], final[u]])
                raws.append(float(_leaky(feat @ tensors["enc_rel.w"]
                                         + tensors["enc_rel.b"])))
            means.append(np.mean(raws))
        w_r = _softmax(np.asarray(means)) * len(aux)
        loss_rcl = float(np.dot(w_r, np.asarray([rcl[rel] for rel in aux])))

    loss_final = bpr(final, (batch.users, batch.pos, batch.neg), [])
    return loss_chains + cfg.mu1 * loss_rcl + cfg.mu2 * loss_final


# ranking metrics of one ranked list, which evaluation.evaluate matches bit for bit
_LOG2 = np.log(2.0)


def recall_at_k(ranked, test_items, k: int) -> float:
    """|top-k intersect test| / |test| (denominator never capped at k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    test = set(test_items)
    if not test:
        raise ValueError("empty test set")
    hits = sum(1 for it in list(ranked)[:k] if it in test)
    return hits / len(test)


def ndcg_at_k(ranked, test_items, k: int) -> float:
    """Binary-gain DCG@k over ideal DCG at min(|test|, k) positions."""
    if k < 1:
        raise ValueError("k must be >= 1")
    test = set(test_items)
    if not test:
        raise ValueError("empty test set")
    dcg = 0.0
    for rank, item in enumerate(list(ranked)[:k], start=1):
        if item in test:
            dcg += _LOG2 / np.log(rank + 1.0)
    ideal = sum(_LOG2 / np.log(r + 1.0) for r in range(1, min(len(test), k) + 1))
    return dcg / ideal


# the line-by-line TSV loader that graph.load_interactions replaced; the
# bulk loader must build the same graph and raise the same first error
def _canonical_edges(pairs) -> tuple:
    """Unique (u, v) pairs sorted by (u, v)."""
    if not pairs:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    arr = np.asarray(sorted(set(pairs)), dtype=np.int64)
    return arr[:, 0], arr[:, 1]


def load_interactions_reference(path, schema) -> MultiplexBipartiteGraph:
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


# the per-user-set sampler that training.TripleSampler replaced, which drew
# each negative in its own loop; the block sampler must give its batches and
# leave its generator states
def _draw_negative(positives: set, num_users: int, num_items: int,
                   rng: np.random.Generator, cap: int = 100) -> int:
    """Uniform item with no interaction in the context; rejection sampling
    with a bounded number of tries, then an exhaustive scan."""
    if len(positives) >= num_items:
        raise ValueError(f"a user has interacted with all {num_items} items")
    for _ in range(cap):
        item = num_users + int(rng.integers(num_items))
        if item not in positives:
            return item
    allowed = np.setdiff1d(np.arange(num_users, num_users + num_items),
                           np.asarray(sorted(positives), dtype=np.int64),
                           assume_unique=True)
    return int(allowed[rng.integers(allowed.shape[0])])


def _positives_by_user(u: np.ndarray, v: np.ndarray) -> dict:
    table = {}
    for a, b in zip(u, v):
        table.setdefault(int(a), set()).add(int(b))
    return table


class ReferenceSampler:
    """Precomputed positive sets per context; draws per-step triples."""

    def __init__(self, model, split, seed: int, neg_cap: int = 100):
        self.num_users = model.graph.num_users
        self.num_items = model.graph.num_items
        self.neg_cap = neg_cap
        self.rng = stream_rng(seed, "negatives")
        self.shuffle_rng = stream_rng(seed, "shuffle")
        tu, tv = split.train_pairs(model.schema.target)
        self.target_u = tu
        self.target_v = tv
        self.target_pos = _positives_by_user(tu, tv)
        self.chain_edges = {}
        self.chain_pos = {}
        for i, chain in enumerate(model.chains):
            u, v = model.patterns.pairs(chain.pattern)
            if u.size:
                self.chain_edges[i] = (u, v)
                self.chain_pos[i] = _positives_by_user(u, v)

    def negatives(self, users, pos_of) -> np.ndarray:
        out = np.empty(len(users), dtype=np.int64)
        for t, u in enumerate(users):
            out[t] = _draw_negative(pos_of[int(u)], self.num_users,
                                    self.num_items, self.rng, self.neg_cap)
        return out

    def batch_for(self, idx: np.ndarray) -> TrainBatch:
        users = self.target_u[idx]
        neg = self.negatives(users, self.target_pos)
        chain_triples = {}
        for i, (cu_all, cv_all) in self.chain_edges.items():
            pick = self.rng.integers(cu_all.shape[0], size=len(idx))
            cu, cp = cu_all[pick], cv_all[pick]
            chain_triples[i] = (cu, cp, self.negatives(cu, self.chain_pos[i]))
        return TrainBatch(users=users, pos=self.target_v[idx], neg=neg,
                          chain_triples=chain_triples)

    def epoch_batches(self, batch_size: int):
        perm = self.shuffle_rng.permutation(self.target_u.shape[0])
        for start in range(0, perm.shape[0], batch_size):
            yield self.batch_for(perm[start:start + batch_size])

    def get_state(self) -> dict:
        return {"negatives": self.rng.bit_generator.state,
                "shuffle": self.shuffle_rng.bit_generator.state}
