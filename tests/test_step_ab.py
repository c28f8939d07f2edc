"""scripts/step_ab.py: two trees' training steps interleaved in one process."""

import importlib
import os
import sys

import pytest

import chainrec
import step_ab
from chainrec.config import make_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_same_checkout_twice_gives_identical_losses(capsys):
    # the two module sets train the same model on the same batches; nothing
    # is asserted about time
    result = step_ab.main(["--tree", f"a={ROOT}", "--tree", f"b={ROOT}",
                           "--graph", "tiny", "--steps", "4", "--warmup", "1"])
    a, b = result["losses"]["a"], result["losses"]["b"]
    assert len(a) == 4 and a == b
    assert result["median_ms"].keys() == {"a", "b"}
    assert 0.0 <= result["won"] <= 1.0
    assert result["identical"] and result["parts"] == {}
    out = capsys.readouterr().out
    assert "median paired ratio" in out and "BLAS threads" in out
    assert "loss sequences byte-identical: yes" in out
    # the suite's own chainrec is the one it imported before
    assert sys.modules["chainrec"] is chainrec


def test_different_losses_are_reported(monkeypatch, capsys):
    load, loaded = step_ab.load_tree, []

    def load_tree(path):
        mods = load(path)
        loaded.append(mods)
        if len(loaded) == 2:   # the second tree reports every loss one higher
            backward = mods.training.backward

            def shifted(*args):
                grads, breakdown = backward(*args)
                return grads, {**breakdown, "total": breakdown["total"] + 1.0}

            monkeypatch.setattr(mods.training, "backward", shifted)
        return mods

    monkeypatch.setattr(step_ab, "load_tree", load_tree)
    result = step_ab.main(["--tree", f"a={ROOT}", "--tree", f"b={ROOT}",
                           "--graph", "tiny", "--steps", "2", "--warmup", "0"])
    assert not result["identical"]
    assert "loss sequences byte-identical: NO" in capsys.readouterr().out


def test_eval_phase_ranks_the_same_checkout_identically(capsys):
    result = step_ab.main(["--tree", f"a={ROOT}", "--tree", f"b={ROOT}", "--phase", "eval",
                           "--graph", "tiny", "--steps", "3", "--warmup", "1"])
    assert result["phase"] == "eval" and result["identical"]
    assert result["median_ms"].keys() == {"a", "b"} and "losses" not in result
    assert result["parts"].keys() == {"forward", "ranking"}
    for part in result["parts"].values():
        assert part["median_ms"].keys() == {"a", "b"} and 0.0 <= part["won"] <= 1.0
    out = capsys.readouterr().out
    assert "phase eval" in out and "rankings byte-identical: yes" in out
    assert "forward: median" in out and "ranking: median" in out


def test_four_relation_graph_steps_identically():
    result = step_ab.main(["--tree", f"a={ROOT}", "--tree", f"b={ROOT}",
                           "--graph", "four", "--steps", "2", "--warmup", "0"])
    assert result["graph"] == "four" and result["identical"]
    assert len(result["losses"]["a"]) == 2


def test_each_tree_gets_its_own_modules():
    a, b = step_ab.load_tree(ROOT), step_ab.load_tree(ROOT)
    assert a.model is not b.model and a.model is not sys.modules["chainrec.model"]
    assert a.training.DualChannelModel is a.model.DualChannelModel


@pytest.mark.parametrize("argv", [["--tree", "a=."], ["--tree", "a=.", "--tree", "a=."],
                                  ["--tree", "noequals", "--tree", "b=."]])
def test_two_named_trees_are_required(argv):
    with pytest.raises(SystemExit) as exc:
        step_ab.main(argv)
    assert exc.value.code == 2


def test_graphs_are_perfbench_graphs(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    held = {k: sys.modules.pop(k) for k in ("workloads", "spans") if k in sys.modules}
    try:
        graphs = importlib.import_module("workloads").GRAPHS
        assert "four" not in graphs
        assert step_ab.GRAPHS == {**graphs, "four": step_ab.FOUR}
    finally:
        for k in ("workloads", "spans"):
            sys.modules.pop(k, None)
        sys.modules.update(held)


def test_four_has_the_yelp_schema_at_demo_size():
    yelp = make_config(os.path.join(ROOT, "configs", "yelp.cfg"))
    four = make_config(overrides=step_ab.FOUR)
    assert (four.relations, four.target) == (yelp.relations, yelp.target)
    assert four.schema_order == yelp.schema_order
    assert step_ab.GRAPHS["demo"] == {}   # demo size: the synth defaults


def test_an_unknown_graph_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        step_ab.main(["--tree", "a=.", "--tree", "b=.", "--graph", "huge"])
    assert exc.value.code == 2
    assert "invalid choice: 'huge'" in capsys.readouterr().err
