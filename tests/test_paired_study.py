"""scripts/paired_study.py: one split for every arm and seed, the JSON's
shape, the markdown table and the sign test."""

import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from chainrec import load_interactions, make_schema, split_train_test

import paired_study

CHECKOUT = Path(paired_study.__file__).resolve().parents[1]
TINY = ["synth_users=40", "synth_items=30", "synth_clusters=4", "synth_views=8",
        "synth_carts=5", "synth_buys=4", "dim=8", "batch=32"]


def test_two_arms_two_seeds_share_one_split(tmp_path, capsys):
    out = tmp_path / "study"
    assert paired_study.main([str(out), "--set", *TINY, "--split-seed", "3",
                              "--seeds", "1,2", "--epochs", "2", "--jobs", "2",
                              "--arm", "f64", "dtype=float64",
                              "--arm", "f32", "dtype=float32"]) == 0

    # every run trained on the split of --split-seed, and only the seed and
    # the arm's overrides told the runs apart
    graph = load_interactions(out / "synthetic.tsv",
                              make_schema(("view", "cart", "buy"), "buy"))
    want = paired_study.split_hashes(split_train_test(graph, 0.75, 3),
                                     ("view", "cart", "buy"))
    report = json.loads((out / "paired_study.json").read_text())
    assert report["seeds"] == [1, 2] and report["epochs"] == 2
    assert report["split_seed"] == 3 and report["jobs"] == 2
    assert [a["name"] for a in report["arms"]] == ["f64", "f32"]
    assert [t["name"] for t in report["trees"]] == ["checkout"]
    assert report["split"]["test_edges"] == 40
    runs = {(r["arm"], r["seed"]): r for r in report["runs"]}
    assert sorted(runs) == [("f32", 1), ("f32", 2), ("f64", 1), ("f64", 2)]
    for (arm, seed), run in runs.items():
        assert run["train_seed"] == seed
        assert {k: run[k] for k in want} == want
        assert run["applied"] == {"dtype": {"f32": "float32", "f64": "float64"}[arm]}
        assert run["epoch"] == 2 and run["final_bpr_epoch4"] is None
        assert 0.0 <= run["recall_at_10"] <= 1.0 and 0.0 <= run["ndcg_at_10"] <= 1.0
        assert run["s_per_epoch"] > 0.0
    ref, other = (report["summary"]["checkout"][a] for a in ("f64", "f32"))
    assert set(ref) == set(other) == {"recall_at_10", "ndcg_at_10"}
    assert set(ref["recall_at_10"]) == {"median"}
    diffs = [runs["f32", s]["recall_at_10"] - runs["f64", s]["recall_at_10"]
             for s in (1, 2)]
    entry = other["recall_at_10"]
    assert entry["diff_median"] == pytest.approx(np.median(diffs))
    assert entry["wins"] + entry["losses"] + entry["ties"] == 2
    table = (out / "paired_study.md").read_text()
    assert table.count("\n| checkout | f32 |") == 3 and "under that load" in table
    assert table in capsys.readouterr().out


def test_order_arms_train_under_their_own_schema_on_one_split(tmp_path):
    assert paired_study.main([str(tmp_path), "--set", *TINY, "--seeds", "1,2",
                              "--epochs", "1", "--jobs", "2", "--arm", "C6",
                              "--arm", "C1", "order=buy,view,cart",
                              "--arm", "C3", "order=view,buy,cart"]) == 0
    runs = json.loads((tmp_path / "paired_study.json").read_text())["runs"]
    # C6 keeps the default order; every run of both seeds trains on the one split
    assert [(r["arm"], r["order"], r["seed"], r["train_seed"]) for r in runs] == [
        (arm, order, seed, seed) for seed in (1, 2) for arm, order in (
            ("C6", ["view", "cart", "buy"]), ("C1", ["buy", "view", "cart"]),
            ("C3", ["view", "buy", "cart"]))]
    assert len({(r["train_sha256"], r["test_sha256"]) for r in runs}) == 1


@pytest.mark.parametrize("order", ["view,buy", "view,cart,buy,like", "view,view,buy"])
def test_order_arm_that_is_no_permutation_exits_before_training(tmp_path, monkeypatch,
                                                                capsys, order):
    calls = []
    monkeypatch.setattr(paired_study, "launch", lambda *args: calls.append(args))
    out = tmp_path / "study"
    with pytest.raises(SystemExit) as exc:
        paired_study.main([str(out), "--set", *TINY, "--arm", "a",
                           "--arm", "b", f"order={order}"])
    assert exc.value.code == 2 and calls == [] and not out.exists()
    assert "not a permutation" in capsys.readouterr().err


def test_a_failed_run_cancels_the_runs_not_yet_started(tmp_path, monkeypatch, capsys):
    started = []

    def launch(tree, spec):
        key = (spec["overrides"]["dtype"], spec["overrides"]["seed"])
        started.append(key)
        if key == ("float64", 1):
            raise RuntimeError("a run failed: boom")
        # the reference's first run is still going when the second one fails
        time.sleep(0.6 if key == ("float32", 1) else 0.2)
        return {"recall_at_10": 0.0, "ndcg_at_10": 0.0, "s_per_epoch": 1.0}

    monkeypatch.setattr(paired_study, "launch", launch)
    out = tmp_path / "study"
    assert paired_study.main([str(out), "--set", *TINY, "--seeds", "1,2,3,4,5",
                              "--jobs", "2", "--arm", "a", "dtype=float32",
                              "--arm", "b", "dtype=float64"]) == 1
    # of the ten runs, the two first and at most the one a free worker took
    # before the failure was seen; none waits for the first run to end
    assert started[:2] in ([("float32", 1), ("float64", 1)],
                           [("float64", 1), ("float32", 1)])
    assert len(started) <= 3
    assert "boom" in capsys.readouterr().err
    assert not (out / "paired_study.json").exists()


def test_arm_may_not_change_the_split(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        paired_study.main([str(tmp_path), "--arm", "a", "--arm", "b", "ratio=0.5"])
    assert exc.value.code == 2 and "ratio" in capsys.readouterr().err


@pytest.mark.parametrize("wins,losses,p", [(0, 0, 1.0), (5, 5, 1.0), (10, 0, 2 / 1024),
                                           (9, 1, 22 / 1024), (1, 3, 10 / 16)])
def test_sign_test(wins, losses, p):
    assert paired_study.sign_test_p(wins, losses) == pytest.approx(p)


def test_same_checkout_as_two_trees_gives_identical_runs(tmp_path, capsys):
    out = tmp_path / "study"
    assert paired_study.main([str(out), "--set", *TINY, "--seeds", "1",
                              "--epochs", "1", "--jobs", "2",
                              "--tree", f"a={CHECKOUT}", "--tree", f"b={CHECKOUT}"]) == 0
    report = json.loads((out / "paired_study.json").read_text())
    a, b = report["runs"]
    assert (a["tree"], b["tree"]) == ("a", "b") and a["arm"] == b["arm"] == "default"
    assert a["chainrec"] == b["chainrec"] == str(CHECKOUT / "src" / "chainrec")
    same = ("recall_at_10", "ndcg_at_10", "train_sha256", "test_sha256", "order")
    assert {k: a[k] for k in same} == {k: b[k] for k in same}
    entry = report["summary"]["b"]["default"]["recall_at_10"]
    assert entry["diff_median"] == 0.0 and entry["ties"] == 1
    assert "\n| b | default | recall_at_10 |" in capsys.readouterr().out


def test_trees_that_split_differently_exit_1(tmp_path, capsys):
    # a copy of this checkout whose split draws from another seed
    other = tmp_path / "other"
    shutil.copytree(CHECKOUT / "src", other / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(other / "src" / "chainrec" / "__init__.py", "a", encoding="utf-8") as fh:
        fh.write("\n_split = split_train_test\n\n\n"
                 "def split_train_test(graph, ratio, seed):\n"
                 "    return _split(graph, ratio, seed + 1)\n")
    out = tmp_path / "study"
    assert paired_study.main([str(out), "--set", *TINY, "--seeds", "1",
                              "--epochs", "1", "--jobs", "2",
                              "--tree", f"a={CHECKOUT}", "--tree", f"b={other}"]) == 1
    assert "different splits" in capsys.readouterr().err
    a, b = json.loads((out / "paired_study.json").read_text())["runs"]
    assert a["train_sha256"] != b["train_sha256"] and a["test_sha256"] != b["test_sha256"]


@pytest.mark.parametrize("args, message", [
    (["--tree", "a=."], "two trees or two arms"),
    (["--tree", "a=.", "--tree", "a=."], "given twice"),
    (["--tree", "a=.", "--tree", "b=no/such/tree"], "no src/chainrec"),
    (["--arm", "a", "--arm", "b", "--jobs", "0"], "--jobs")],
    ids=["one-tree-one-arm", "tree-twice", "no-tree", "no-jobs"])
def test_trees_and_jobs_are_checked_before_any_run(tmp_path, monkeypatch, capsys,
                                                   args, message):
    monkeypatch.chdir(CHECKOUT)
    monkeypatch.setattr(paired_study, "launch", lambda *a: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exc:
        paired_study.main([str(tmp_path / "study"), *args])
    assert exc.value.code == 2 and message in capsys.readouterr().err
