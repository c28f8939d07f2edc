"""Independent straight-line references used by the test suite.

Everything here is dense numpy written directly from the model definition,
with no imports from the library's numeric modules, so these functions stay
independent of the code paths they check.
"""

import numpy as np


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


def dense_matrix(adj):
    """Dense copy of a SparseMatrix whose values are an ndarray."""
    out = np.zeros((adj.struct.n, adj.struct.n))
    out[adj.struct.rows, adj.struct.cols] = adj.values
    return out


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


def build_global_similarity(b_matrix, mode="row"):
    """Dense pattern-similarity matrix norm(B B^T).

    ``mode='row'`` divides each row by its sum, ``mode='sym'`` applies
    1/sqrt(rowsum) on both sides; rows of zeros stay zero.
    """
    s = b_matrix @ b_matrix.T
    rowsum = s.sum(axis=1)
    inv = np.zeros_like(rowsum)
    if mode == "row":
        inv[rowsum != 0] = 1.0 / rowsum[rowsum != 0]
        return s * inv[:, None]
    if mode == "sym":
        inv[rowsum > 0] = 1.0 / np.sqrt(rowsum[rowsum > 0])
        return s * inv[:, None] * inv[None, :]
    raise ValueError(f"unknown normalization mode {mode!r}")


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


def _leaky(x, slope):
    return np.where(x > 0, x, slope * x)


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


def oracle_total_loss(train_graph, cfg, tensors, batch):
    """Full forward + loss from raw parameter tensors, straight-line dense.

    Default settings of the two remaining variants only: a shared base
    table (``separate_base`` off) and row-normalized global similarity
    (``glo_norm = row``).
    """
    schema = train_graph.schema
    rels = schema.relations
    n_rel = len(rels)
    n_users = train_graph.num_users
    base = tensors["base"]
    d = base.shape[1]
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
            feat = np.concatenate([np.full(d, loss_sum * cfg.mu_scale),
                                   e_c[u], final[u]])
            raws.append(float(_leaky(feat @ tensors["enc_chain.w"]
                                     + tensors["enc_chain.b"], cfg.leaky_slope)))
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
                                         + tensors["enc_rel.b"], cfg.leaky_slope)))
            means.append(np.mean(raws))
        w_r = _softmax(np.asarray(means)) * len(aux)
        loss_rcl = float(np.dot(w_r, np.asarray([rcl[rel] for rel in aux])))

    loss_final = bpr(final, (batch.users, batch.pos, batch.neg), [])
    return loss_chains + cfg.mu1 * loss_rcl + cfg.mu2 * loss_final
