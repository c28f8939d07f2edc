"""scripts/paired_study.py: one split for every arm and seed, the JSON's
shape, the markdown table and the sign test."""

import json

import numpy as np
import pytest

from chainrec import load_interactions, make_schema, split_train_test, training

import paired_study

TINY = ["synth_users=40", "synth_items=30", "synth_clusters=4", "synth_views=8",
        "synth_carts=5", "synth_buys=4", "dim=8", "batch=32"]


def test_two_arms_two_seeds_share_one_split(tmp_path, monkeypatch, capsys):
    seen = []

    def spy(graph, split, cfg, **kwargs):
        seen.append((split, cfg.seed, cfg.dtype, cfg.epochs))
        return train(graph, split, cfg, **kwargs)

    train = training.train
    monkeypatch.setattr(training, "train", spy)
    out = tmp_path / "study"
    assert paired_study.main([str(out), "--set", *TINY, "--split-seed", "3",
                              "--seeds", "1,2", "--epochs", "2",
                              "--arm", "f64", "dtype=float64",
                              "--arm", "f32", "dtype=float32"]) == 0

    # every run trained on the split of --split-seed, and only the seed and
    # the arm's overrides told the runs apart
    assert [(s, d, e) for _, s, d, e in seen] == [
        (1, "float64", 2), (1, "float32", 2), (2, "float64", 2), (2, "float32", 2)]
    graph = load_interactions(out / "synthetic.tsv",
                              make_schema(("view", "cart", "buy"), "buy"))
    want = split_train_test(graph, 0.75, 3)
    for split, *_ in seen:
        assert split is seen[0][0]
        for got, ref in zip(split.test_edges, want.test_edges):
            np.testing.assert_array_equal(got, ref)
        for r in ("view", "cart", "buy"):
            for got, ref in zip(split.train_pairs(r), want.train_pairs(r)):
                np.testing.assert_array_equal(got, ref)

    report = json.loads((out / "paired_study.json").read_text())
    assert report["seeds"] == [1, 2] and report["epochs"] == 2
    assert report["split_seed"] == 3
    assert [a["name"] for a in report["arms"]] == ["f64", "f32"]
    assert report["split"]["test_edges"] == want.test_edges[0].size
    runs = {(r["arm"], r["seed"]): r for r in report["runs"]}
    assert sorted(runs) == [("f32", 1), ("f32", 2), ("f64", 1), ("f64", 2)]
    for run in runs.values():
        assert run["epoch"] == 2
        assert 0.0 <= run["recall_at_10"] <= 1.0 and 0.0 <= run["ndcg_at_10"] <= 1.0
        assert run["s_per_epoch"] > 0.0
    ref, other = report["summary"]["f64"], report["summary"]["f32"]
    assert set(ref) == set(other) == {"recall_at_10", "ndcg_at_10"}
    assert set(ref["recall_at_10"]) == {"median"}
    diffs = [runs["f32", s]["recall_at_10"] - runs["f64", s]["recall_at_10"]
             for s in (1, 2)]
    entry = other["recall_at_10"]
    assert entry["diff_median"] == pytest.approx(np.median(diffs))
    assert entry["wins"] + entry["losses"] + entry["ties"] == 2
    table = (out / "paired_study.md").read_text()
    assert table.count("\n| f32 |") == 2 and table in capsys.readouterr().out


def test_order_arms_train_under_their_own_schema_on_one_split(tmp_path, monkeypatch):
    seen = []

    def spy(graph, split, cfg, **kwargs):
        seen.append((graph.schema.canonical_order, split))
        return train(graph, split, cfg, **kwargs)

    train = training.train
    monkeypatch.setattr(training, "train", spy)
    assert paired_study.main([str(tmp_path), "--set", *TINY, "--seeds", "1,2",
                              "--epochs", "1", "--arm", "C6",
                              "--arm", "C1", "order=buy,view,cart",
                              "--arm", "C3", "order=view,buy,cart"]) == 0
    # C6 keeps the default order; every run trains on the one split
    assert [order for order, _ in seen] == [
        ("view", "cart", "buy"), ("buy", "view", "cart"), ("view", "buy", "cart")] * 2
    assert all(split is seen[0][1] for _, split in seen)


@pytest.mark.parametrize("order", ["view,buy", "view,cart,buy,like", "view,view,buy"])
def test_order_arm_that_is_no_permutation_exits_before_training(tmp_path, monkeypatch,
                                                                capsys, order):
    calls = []
    monkeypatch.setattr(training, "train", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "study"
    with pytest.raises(SystemExit) as exc:
        paired_study.main([str(out), "--set", *TINY, "--arm", "a",
                           "--arm", "b", f"order={order}"])
    assert exc.value.code == 2 and calls == [] and not out.exists()
    assert "not a permutation" in capsys.readouterr().err


def test_arm_may_not_change_the_split(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        paired_study.main([str(tmp_path), "--arm", "a", "--arm", "b", "ratio=0.5"])
    assert exc.value.code == 2 and "ratio" in capsys.readouterr().err


@pytest.mark.parametrize("wins,losses,p", [(0, 0, 1.0), (5, 5, 1.0), (10, 0, 2 / 1024),
                                           (9, 1, 22 / 1024), (1, 3, 10 / 16)])
def test_sign_test(wins, losses, p):
    assert paired_study.sign_test_p(wins, losses) == pytest.approx(p)
