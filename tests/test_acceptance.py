"""Acceptance suite: every release criterion at its stated tolerance.

One criterion per test, each printing a single [PASS]/[FAIL] line (run with
``pytest -s tests/test_acceptance.py`` to see them as they happen). The
desk-scale real-dataset reproduction (criterion 8) needs the Retail
interaction file, which is not redistributable with this repository; point
CHAINREC_RETAIL at a prepared TSV to enable it, otherwise it reports SKIP.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from chainrec import autodiff as ad
from chainrec.cli import main as cli_main
from chainrec.config import RunConfig
from chainrec.evaluation import evaluate
from chainrec.graph import (load_interactions, make_schema, split_train_test,
                            training_graph)
from chainrec.model import DualChannelModel, bpr
from chainrec.patterns import behavior_patterns
from chainrec.synth import write_synthetic
from chainrec.training import backward, train

import oracles
import paired_study
from conftest import buy_graph, make_batch, random_multiplex_graph


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {name} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _pattern_corpus():
    """200 random multiplex graphs, N <= 60, |R| in 2..4, p in {.1,.3,.5}."""
    combos = [(r, p) for r in (2, 3, 4) for p in (0.1, 0.3, 0.5)]
    rng = np.random.default_rng(2024)
    for seed in range(200):
        n_rel, p = combos[seed % len(combos)]
        rels = tuple(f"r{i}" for i in range(n_rel))
        nu = int(rng.integers(5, 26))
        ni = int(rng.integers(5, min(35, 60 - nu)))
        yield random_multiplex_graph(nu, ni, rels, p, seed=seed)


def test_criterion_01_bbp_oracle_equivalence():
    t0 = time.time()
    mismatches = 0
    pairs_checked = 0
    for g in _pattern_corpus():
        rels = g.schema.relations
        edge_sets = {r: set(zip(g.edges[r][0].tolist(), g.edges[r][1].tolist()))
                     for r in rels}
        pats = behavior_patterns(g)
        by_sig = {p + 1: set(zip(*(a.tolist() for a in pats.pairs(p))))
                  for p in range(g.schema.num_patterns)}
        for u in range(g.num_users):
            for v in range(g.num_users, g.num_nodes):
                sig = 0
                for ri, r in enumerate(rels):
                    if (u, v) in edge_sets[r]:
                        sig |= 1 << ri
                pairs_checked += 1
                for s, got in by_sig.items():
                    if ((u, v) in got) != (s == sig):
                        mismatches += 1
    elapsed = time.time() - t0
    report(1, "BBP oracle equivalence",
           mismatches == 0 and elapsed < 10.0,
           f"(200 graphs, {pairs_checked} pairs, {mismatches} mismatches, "
           f"{elapsed:.1f}s)")


def test_criterion_02_partition_property():
    bad = 0
    for g in _pattern_corpus():
        pats = behavior_patterns(g)
        n = g.num_nodes
        coverage = np.zeros(n * n, dtype=np.int64)
        for p in range(g.schema.num_patterns):
            u, v = pats.pairs(p)
            coverage[(u * n + v).astype(np.int64)] += 1
        union = np.zeros(n * n, dtype=np.int64)
        for r in g.schema.relations:
            u, v = g.edges[r]
            union[(u * n + v).astype(np.int64)] = 1
        if not np.array_equal(coverage > 0, union > 0):
            bad += 1
        if np.any(coverage > 1):
            bad += 1
    report(2, "pattern partition property", bad == 0,
           "(sum of masks == union indicator; one mask per interacting pair)")


def test_criterion_03_propagation_oracles():
    # each channel through model.embeddings (one stacked operator for the
    # local and relation channels) at every row and at a row subset,
    # against a dense reference built from the edges
    worst = 0.0
    for seed in range(12):
        rels = ("a", "b", "c") if seed % 2 == 0 else ("a", "b", "c", "d")
        g = random_multiplex_graph(18, 22, rels, 0.2, seed=seed)
        layers = 1 + seed % 4
        cfg = RunConfig(dim=5, layers=layers, relations=rels, target="c",
                        dtype="float64").validate()
        model = DualChannelModel(g, cfg)
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(g.num_nodes, 5))
        logits = np.random.default_rng(seed + 1).normal(size=g.schema.num_patterns)
        p = {**model.init_params(seed).tensors, "base": base,
             "local_logits": logits, "global_logits": logits}
        rows = np.sort(rng.choice(g.num_nodes, size=9, replace=False))
        dense = oracles.dense_bbps(g)
        counts = np.stack([m.sum(axis=1) for m in dense], axis=1)
        sim = oracles.build_global_similarity(counts * np.logaddexp(0.0, logits))
        want = {"h_loc": oracles.local_propagation(dense, logits, base, layers),
                "h_glo": oracles.propagate_global(sim, base, layers)}
        want.update({r: oracles.relation_propagation(g, r, base, layers) for r in rels})
        for at, emb in ((slice(None), model.embeddings(p, np.arange(g.num_nodes),
                                                       np.arange(0))),
                        (rows, model.embeddings(p, rows, np.arange(0)))):
            for key, ref in want.items():
                got = emb["rel"][key] if key in rels else emb[key]
                err = np.abs(got - ref[at])
                if key != "h_glo":
                    err = err / (np.abs(ref[at]) + 1e-12)
                worst = max(worst, np.max(err))
    report(3, "propagation matches dense normalized-matrix-power references",
           worst < 1e-8, f"(worst deviation {worst:.2e}: relative for the "
           f"relation and local channels, absolute for the global one)")


def _gradient_check(model, params, batch):
    """Worst relative gap between analytic and central finite-difference
    gradients over every parameter coordinate."""
    grads, _ = backward(model, params, batch)
    assert set(grads) == set(params.tensors)
    h = 1e-4
    worst = 0.0
    n_coords = 0
    for name, g in grads.items():
        flat = params.tensors[name].reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            lp = float(ad.val(model.total_loss(params.tensors, batch)[0]))
            flat[i] = old - h
            lm = float(ad.val(model.total_loss(params.tensors, batch)[0]))
            flat[i] = old
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(gf[i] - fd) / max(abs(gf[i]), abs(fd), 1e-3))
            n_coords += 1
    return worst, n_coords


def test_criterion_04_gradient_correctness(tiny_setup):
    _, _, model, params, batch, _ = tiny_setup
    t0 = time.time()
    worst, n_coords = _gradient_check(model, params, batch)
    elapsed = time.time() - t0
    report(4, "analytic gradients match central finite differences",
           worst < 1e-4 and elapsed < 60.0,
           f"({n_coords} coordinates, max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_04_gradient_correctness_four_relations(tiny_setup_four):
    _, _, model, params, batch, _ = tiny_setup_four
    t0 = time.time()
    worst, n_coords = _gradient_check(model, params, batch)
    elapsed = time.time() - t0
    report(4, "analytic gradients match central finite differences, "
              "four relations", worst < 1e-4 and elapsed < 60.0,
           f"({len(params.tensors)} tensors, {n_coords} coordinates, "
           f"max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_05_loss_closed_forms(tiny_setup):
    from chainrec.contrastive import infonce_terms
    n = 9
    table = np.tile(np.asarray([0.3, -1.2, 0.8, 2.0]), (n, 1))
    nce = float(np.sum(infonce_terms(table, table, tau=0.1)))
    ok_nce = abs(nce - n * math.log(n)) < 1e-6

    # a one-column table with a unit user row: each triple scores s[t]
    # for both its positive and its negative item
    s = np.asarray([0.7, -1.1, 4.0])
    table = np.concatenate([[1.0], s])[:, None]
    items = 1 + np.arange(3)
    ok_bpr = abs(float(bpr(table, np.zeros(3, dtype=np.int64), items, items))
                 - 3 * math.log(2.0)) < 1e-9

    graph, split, model, params, batch, cfg = tiny_setup
    got, _ = model.total_loss(params.tensors, batch)
    want = oracles.oracle_total_loss(model.graph, cfg, params.tensors, batch)
    diff = abs(float(ad.val(got)) - want)
    ok_dual = diff < 1e-10 * max(1.0, abs(want))
    report(5, "loss closed forms and dual implementation",
           ok_nce and ok_bpr and ok_dual,
           f"(InfoNCE n*log n diff {abs(nce - n*math.log(n)):.1e}; "
           f"BPR ln2 ok={ok_bpr}; dual diff {diff:.1e})")


def _ranked_case(ranked, test):
    """One user whose 1-d table ranks items 0..n-1 as ``ranked``, with
    ``test`` as their held-out buy edges and no training edge."""
    table = np.ones((1 + len(ranked), 1))
    table[1 + np.asarray(ranked), 0] = np.arange(len(ranked), 0, -1)
    return (table, *buy_graph(1, len(ranked), [(0, t) for t in test], []))


def test_criterion_06_metric_oracles():
    # the scalar oracles and the shipped evaluate against the definitions
    rng = np.random.default_rng(7)
    recall_exact = True
    ndcg_worst = 0.0
    for _ in range(1000):
        n_items = int(rng.integers(5, 80))
        ranked = rng.permutation(n_items)
        test = rng.choice(n_items, size=int(rng.integers(1, 6)), replace=False)
        k = int(rng.integers(1, 50))
        hits = sum(1 for it in ranked[:k] if it in set(test.tolist()))
        dcg = sum(1.0 / math.log2(pos + 1)
                  for pos, it in enumerate(ranked[:k], start=1)
                  if it in set(test.tolist()))
        ideal = sum(1.0 / math.log2(pos + 1)
                    for pos in range(1, min(len(test), k) + 1))
        shipped = evaluate(*_ranked_case(ranked, test), ks=(k,))
        for recall, ndcg in ((oracles.recall_at_k(ranked, test, k),
                              oracles.ndcg_at_k(ranked, test, k)),
                             (shipped.recall(k), shipped.ndcg(k))):
            recall_exact &= recall == hits / len(test)
            ndcg_worst = max(ndcg_worst, abs(ndcg - dcg / ideal))
    # test {1, 2}: 1 at rank 1, 2 below the cut -> 1 / (1 + 1/log2(3))
    hands = [oracles.ndcg_at_k([1, 5, 5, 5], [1, 2], 10),
             evaluate(*_ranked_case([1, 5, 0, 3, 4, 6, 7, 8, 9, 10, 2], [1, 2]),
                      ks=(10,)).ndcg(10)]
    ok_hand = all(abs(hand - 0.613147) < 1e-6 for hand in hands)
    report(6, "ranking metric oracles and evaluate",
           recall_exact and ndcg_worst < 1e-10 and ok_hand,
           f"(1000 instances each; ndcg worst {ndcg_worst:.1e}; "
           f"hand NDCG@10 {hands[0]:.6f} and {hands[1]:.6f})")


def test_criterion_07_synthetic_end_to_end(tmp_path):
    t0 = time.time()
    cfg = RunConfig(synth_users=500, synth_items=500, cascade=1.0,
                    epochs=50, eval_every=5, patience=100, seed=0,
                    out=str(tmp_path / "synth_run")).validate()
    data = tmp_path / "synthetic.tsv"
    write_synthetic(cfg, data)
    graph = load_interactions(data, make_schema(cfg.relations, cfg.target))
    split = split_train_test(graph, cfg.ratio, cfg.seed)

    model = DualChannelModel(training_graph(graph, split), cfg)
    raw_table = model.init_params(cfg.seed).tensors["base"]
    untrained = evaluate(raw_table, graph, split, ks=(10,)).recall(10)

    result = train(graph, split, cfg)
    elapsed = time.time() - t0
    report(7, "planted-cascade training",
           result.best_metric >= 0.9 and untrained <= 0.05 and elapsed < 300.0,
           f"(trained R@10 {result.best_metric:.3f} at epoch "
           f"{result.best_epoch}; untrained {untrained:.3f}; {elapsed:.0f}s)")


def test_criterion_08_retail_reproduction(tmp_path):
    path = os.environ.get("CHAINREC_RETAIL", "")
    if not path or not os.path.exists(path):
        print("[SKIP] criterion 8: desk-scale Retail reproduction "
              "(set CHAINREC_RETAIL to the prepared view/cart/buy TSV; "
              "the dataset is not redistributable with this repository)")
        pytest.skip("Retail dataset not available in this environment")
    t0 = time.time()
    cfg = RunConfig(data=path, relations=("view", "cart", "buy"), target="buy",
                    seed=0, out=str(tmp_path / "retail_run")).validate()
    graph = load_interactions(path, make_schema(cfg.relations, cfg.target))
    counts_ok = (graph.num_users, graph.num_items) == (2174, 30113)
    split = split_train_test(graph, cfg.ratio, cfg.seed)
    model = DualChannelModel(training_graph(graph, split), cfg)
    untrained = evaluate(model.init_params(cfg.seed).tensors["base"], graph,
                         split, ks=(10,)).recall(10)
    result = train(graph, split, cfg)
    elapsed = time.time() - t0
    report(8, "desk-scale Retail reproduction",
           counts_ok and result.best_metric >= 0.038
           and result.best_metric > untrained and elapsed < 3600.0,
           f"(users/items {graph.num_users}/{graph.num_items}; "
           f"R@10 {result.best_metric:.4f} >= 0.038 and > untrained "
           f"{untrained:.4f}; {elapsed:.0f}s)")


CHAIN_ORDERS = [  # the six study configurations on view/cart/buy
    ("C1", "buy,view,cart"),
    ("C2", "buy,cart,view"),
    ("C3", "view,buy,cart"),
    ("C4", "cart,buy,view"),
    ("C5", "cart,view,buy"),
    ("C6", "view,cart,buy"),
]


def test_criterion_09_relation_order_study(tmp_path):
    arms = [arg for label, order in CHAIN_ORDERS
            for arg in ("--arm", label, f"order={order}")]
    code = paired_study.main([str(tmp_path), "--set", "synth_users=200",
                              "synth_items=200", "synth_clusters=20", "dim=16",
                              "batch=64", "--split-seed", "0", "--seeds", "0",
                              "--epochs", "8", *arms])
    study = json.loads((tmp_path / "paired_study.json").read_text())
    by_label = {run["arm"]: run["recall_at_10"] for run in study["runs"]}
    direction = "C6 >= C1" if by_label["C6"] >= by_label["C1"] else "C6 < C1"
    # the directional claim is reported, not asserted (training stochasticity)
    report(9, "relation-order study harness",
           code == 0 and sorted(by_label) == [label for label, _ in CHAIN_ORDERS],
           f"(all six orders ran; {direction}: C6={by_label['C6']:.3f} "
           f"C1={by_label['C1']:.3f}; table at {tmp_path / 'paired_study.md'})")


def test_criterion_10_determinism(tmp_path):
    data = tmp_path / "det.tsv"
    write_synthetic(RunConfig(synth_users=80, synth_items=80,
                              synth_clusters=8, seed=2).validate(), data)
    logs = []
    for run in ("a", "b"):
        out = tmp_path / f"det_{run}"
        code = cli_main(["train", "--data", str(data), "--out", str(out),
                         "--dim", "8", "--epochs", "3", "--eval-every", "1",
                         "--batch", "32", "--seed", "11"])
        assert code == 0
        logs.append((out / "metrics.jsonl").read_bytes())
    report(10, "byte-identical metrics logs for identical seeds",
           logs[0] == logs[1], f"({len(logs[0])} bytes compared)")
