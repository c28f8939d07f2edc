import numpy as np
import pytest

from chainrec.config import RunConfig
from chainrec.graph import (MultiplexBipartiteGraph, make_schema,
                            split_train_test, training_graph)
from chainrec.model import DualChannelModel, TrainBatch


def random_multiplex_graph(num_users, num_items, relations, edge_prob, seed,
                           target=None, order=None):
    """Random multiplex bipartite graph built directly from Bernoulli draws."""
    rng = np.random.default_rng(seed)
    schema = make_schema(relations, target or relations[-1], order)
    edges = {}
    for r in relations:
        mask = rng.random((num_users, num_items)) < edge_prob
        u, v = np.nonzero(mask)
        edges[r] = (u.astype(np.int64), v.astype(np.int64) + num_users)
    return MultiplexBipartiteGraph(schema=schema, num_users=num_users,
                                   num_items=num_items, edges=edges,
                                   user_ids=[f"u{i}" for i in range(num_users)],
                                   item_ids=[f"i{i}" for i in range(num_items)])


def relation_matrix(graph, relation):
    """One relation's propagation matrix, as DualChannelModel builds it."""
    return DualChannelModel(graph, RunConfig()).rel_adj[relation]


def make_batch(model, split, rng, size=6):
    """Hand-rolled batch: fixed triples for every context, no sampler."""
    tu, tv = split.train_pairs(model.schema.target)
    idx = rng.integers(tu.shape[0], size=size)
    users, pos = tu[idx], tv[idx]
    neg = model.graph.num_users + rng.integers(model.graph.num_items, size=size)
    chain_triples = {}
    for i, chain in enumerate(model.chains):
        u, v = model.patterns.pairs(chain.pattern)
        if u.size == 0:
            continue
        pick = rng.integers(u.size, size=size)
        cn = model.graph.num_users + rng.integers(model.graph.num_items, size=size)
        chain_triples[i] = (u[pick], v[pick], cn)
    return TrainBatch(users=users, pos=pos, neg=neg, chain_triples=chain_triples)


@pytest.fixture
def tiny_setup():
    """N=10 (4 users, 6 items), 3 relations, d=4: every loss term active."""
    graph = random_multiplex_graph(4, 6, ("view", "cart", "buy"), 0.5, seed=7)
    cfg = RunConfig(dim=4, layers=2, l2=1e-3, mu1=0.2, mu2=0.5, tau=0.25,
                    mu_scale=0.7, seed=3).validate()
    split = split_train_test(graph, 0.75, seed=cfg.seed)
    model = DualChannelModel(training_graph(graph, split), cfg)
    params = model.init_params(cfg.seed)
    batch = make_batch(model, split, np.random.default_rng(11), size=6)
    assert batch.chain_triples, "fixture must exercise chain losses"
    return graph, split, model, params, batch, cfg
