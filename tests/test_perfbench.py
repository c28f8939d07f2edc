"""The benchmark's self-test, run with the suite, so that a rename or a
deletion in chainrec that breaks the benchmark's wrappers fails here, and
guards that the inference forward and a training step still call the
names they wrap."""

import os
import subprocess
import sys

import numpy as np
import pytest

from chainrec import autodiff, contrastive, model, patterns
from chainrec.config import RunConfig
from chainrec.graph import split_train_test, training_graph
from chainrec.model import DualChannelModel

from conftest import make_batch, random_multiplex_graph

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest passed" in proc.stdout


# (module, attribute) that perfbench's traced run swaps for a timing
# wrapper and that the inference forward must call through its module
INFERENCE_HOOKS = [(patterns, "propagate_local"), (patterns, "propagate_global_factored"),
                   (model, "chain_forward"), (model, "chain_embedding"),
                   (model, "final_embedding"), (autodiff, "spmm")]


SCHEMAS = pytest.mark.parametrize("rels", [("view", "cart", "buy"),
                                           ("tips", "neutral", "dislike", "like")],
                                  ids=["three", "four"])


def read_spans():
    with open(os.path.join(ROOT, "perfbench", "spans.py"), encoding="utf-8") as fh:
        return fh.read()


@SCHEMAS
def test_inference_forward_calls_every_wrapped_hook(rels, monkeypatch):
    # a forward that stops calling one of them leaves its traced span at 0
    spans = read_spans()
    cfg = RunConfig(dim=4, layers=3, relations=rels, target=rels[-1]).validate()
    net = DualChannelModel(random_multiplex_graph(6, 9, rels, 0.4, seed=3), cfg)
    calls = {}
    for owner, name in INFERENCE_HOOKS:
        assert f'({owner.__name__.rsplit(".", 1)[1]}, "{name}"' in spans, name

        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    net.final_embeddings(net.init_params(0))
    assert calls == {"propagate_local": 1, "propagate_global_factored": 1,
                     # once per chain, then once per relation that starts one
                     "chain_forward": len(net.chains),
                     "chain_embedding": len({c.relations[0] for c in net.chains}),
                     "final_embedding": 1,
                     "spmm": cfg.layers * (len(rels) + 1)}


# contrastive names that perfbench's traced run wraps and that a training
# step must call through the module
TRAINING_HOOKS = ("infonce_terms", "chain_knowledge", "relation_knowledge",
                  "encode_weight", "normalize_weights")


@SCHEMAS
def test_training_step_calls_every_wrapped_contrastive_name(rels, monkeypatch):
    # a step that bypasses one of them leaves contrastive.forward short
    spans = read_spans()
    cfg = RunConfig(dim=4, layers=2, relations=rels, target=rels[-1]).validate()
    graph = random_multiplex_graph(6, 9, rels, 0.4, seed=3)
    split = split_train_test(graph, 0.75, seed=0)
    net = DualChannelModel(training_graph(graph, split), cfg)
    batch = make_batch(net, split, np.random.default_rng(5), size=4)
    calls = dict.fromkeys(TRAINING_HOOKS, 0)
    for name in TRAINING_HOOKS:
        assert f'(contrastive, "{name}"' in spans, name

        def counted(*args, _fn=getattr(contrastive, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(contrastive, name, counted)
    net.total_loss(net.init_params(0).as_vars(), batch)
    n_aux, n_chains = len(rels) - 1, len(batch.chain_triples)
    assert n_chains
    assert calls == {"infonce_terms": n_aux, "relation_knowledge": n_aux,
                     "chain_knowledge": n_chains,
                     "encode_weight": n_chains + n_aux, "normalize_weights": 2}
