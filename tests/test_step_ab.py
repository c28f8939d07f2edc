"""scripts/step_ab.py: two trees' training steps interleaved in one process."""

import os
import sys

import pytest

import chainrec
import step_ab

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
    out = capsys.readouterr().out
    assert "median paired ratio" in out and "BLAS threads" in out
    # the suite's own chainrec is the one it imported before
    assert sys.modules["chainrec"] is chainrec


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
