import numpy as np
import pytest

from chainrec import autodiff as ad
from chainrec.config import RunConfig
from chainrec.graph import (DatasetSplit, MultiplexBipartiteGraph, make_schema,
                            split_train_test, training_graph)
from chainrec.model import DualChannelModel, TrainBatch
from chainrec.relations import propagate_block


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


def buy_graph(nu, ni, test, train):
    """A view/buy graph whose buy edges are ``test`` (held out) and ``train``,
    each a list of (user, item) with item ids from 0."""
    def edges(pairs):
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        return pairs[:, 0], pairs[:, 1] + nu
    empty = (np.empty(0, np.int64), np.empty(0, np.int64))
    graph = MultiplexBipartiteGraph(schema=make_schema(("view", "buy"), "buy"),
                                    num_users=nu, num_items=ni,
                                    edges={"view": empty, "buy": edges(test + train)})
    split = DatasetSplit(train_edges={"view": empty, "buy": edges(train)},
                         test_edges=edges(test))
    return graph, split


def relation_table(graph, relation, base, layers):
    """One relation's table at every node, layers 0..L summed, as a float64
    DualChannelModel's inference pass computes it from that relation's block
    of the model's stack (the dense oracles it is checked against are
    float64)."""
    stack = DualChannelModel(graph, RunConfig(dtype="float64")).stack
    block = 1 + graph.schema.relations.index(relation)
    return ad.add_n([base, *propagate_block(stack, base, layers, block)])


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


def _tiny(relations, edge_prob, seed):
    graph = random_multiplex_graph(4, 6, relations, edge_prob, seed=seed)
    # float64: the fixtures feed the straight-line oracle and the
    # finite-difference checks, whose tolerances assume it
    cfg = RunConfig(dim=4, layers=2, l2=1e-3, mu1=0.2, mu2=0.5, tau=0.25,
                    seed=3, relations=relations,
                    target=relations[-1], dtype="float64").validate()
    split = split_train_test(graph, 0.75, seed=cfg.seed)
    model = DualChannelModel(training_graph(graph, split), cfg)
    params = model.init_params(cfg.seed)
    batch = make_batch(model, split, np.random.default_rng(11), size=6)
    assert batch.chain_triples, "fixture must exercise chain losses"
    return graph, split, model, params, batch, cfg


@pytest.fixture
def tiny_setup():
    """N=10 (4 users, 6 items), 3 relations, d=4: every loss term active."""
    return _tiny(("view", "cart", "buy"), 0.5, seed=7)


@pytest.fixture
def tiny_setup_four():
    """As tiny_setup with four relations: 7 chains, every one drawing
    triples, and 26 parameter tensors; five stacked sparse operators."""
    setup = _tiny(("tips", "neutral", "dislike", "like"), 0.6, seed=2)
    model, params, batch = setup[2], setup[3], setup[4]
    assert len(params.tensors) == 26 and model.stack.blocks == 5
    assert sorted(batch.chain_triples) == list(range(len(model.chains))) == list(range(7))
    return setup
