"""Command-line surface: subcommands, exit codes, run-directory contents."""

import csv
import hashlib
import json
import os

import numpy as np
import pytest

from chainrec.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def synth_file(tmp_path):
    data = tmp_path / "synthetic.tsv"
    code = run_cli("synth", "--data", str(data), "--synth-users", "40",
                   "--synth-items", "30", "--synth-clusters", "4",
                   "--synth-views", "8", "--synth-carts", "5",
                   "--synth-buys", "4", "--seed", "1")
    assert code == 0
    return data


def train_args(data, out, extra=()):
    return ["train", "--data", str(data), "--out", str(out),
            "--dim", "8", "--epochs", "2", "--batch", "32",
            "--eval-every", "1", "--patience", "10", "--seed", "7",
            *extra]


# every array of the shared base table: the tensor names still agree with
# each other, but not with the model's
ALL_OF_BASE = {"param/base", "adam_m/base", "adam_v/base"}


def joined(keys):
    return ",".join(sorted(keys))


# every retired key at a value under which an earlier version dropped it
# and ran unchanged
RETIRED_AT_KEPT_VALUES = (
    ("attributes", "a.tsv"), ("workers", "4"), ("chain_score", "laststep"),
    ("per_user_weights", "true"), ("neg_cap", "7"), ("raw_local_adj", "false"),
    ("separate_base", "False"), ("glo_norm", "row"), ("mu_scale", "1"),
    ("leaky_slope", "0.01"), ("chain_order", "buy,view,cart"))

# the run state that every checkpoint's meta must hold
META_KEYS = ("num_users", "num_items", "epoch", "best_epoch", "best_metric", "bad_rounds")


class TestSynth:
    def test_writes_parseable_dataset(self, synth_file):
        from chainrec.graph import load_interactions, make_schema
        g = load_interactions(synth_file, make_schema(("view", "cart", "buy"),
                                                      "buy"))
        assert g.num_users == 40
        assert g.edge_count("buy") > 0
        assert os.path.exists(str(synth_file) + ".manifest.json")

    def test_full_cascade_keeps_targets_inside_views(self, synth_file):
        lines = synth_file.read_text().strip().splitlines()
        held = {}
        for line in lines:
            u, i, r = line.split("\t")
            held.setdefault(r, set()).add((u, i))
        assert held["buy"] <= held["view"]   # strength 1.0: no stray targets
        assert held["cart"] <= held["view"]  # auxiliaries nest

    def test_fixed_seed_reproduces_bytes(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for path in (a, b):
            assert run_cli("synth", "--data", str(path), "--synth-users", "15",
                           "--synth-items", "20", "--seed", "3") == 0
        assert a.read_bytes() == b.read_bytes()


    # sha256 of the TSV and manifest that ``synth --seed 0`` wrote before
    # the synth_zipf option existed; exponent 0 must keep every draw
    DEFAULT_TSV_SHA256 = "7c03078c7f32f47ae273b2746c94869539700c99b9c7da38b849b83004d9d941"
    DEFAULT_MANIFEST_SHA256 = "9c44b52e4a6f2e9600f0f889b705e8cf1506873abf24220a92800d67e635c657"

    @pytest.mark.parametrize("extra", [(), ("--synth-zipf", "0")])
    def test_default_output_is_unchanged(self, tmp_path, extra):
        data = tmp_path / "default.tsv"
        assert run_cli("synth", "--data", str(data), "--seed", "0", *extra) == 0
        manifest = tmp_path / "default.tsv.manifest.json"
        assert hashlib.sha256(data.read_bytes()).hexdigest() == self.DEFAULT_TSV_SHA256
        assert (hashlib.sha256(manifest.read_bytes()).hexdigest()
                == self.DEFAULT_MANIFEST_SHA256)

    def test_zipf_concentrates_views_on_few_items(self, tmp_path):
        top_share = {}
        for zipf in ("0", "1.0"):
            data = tmp_path / f"zipf{zipf}.tsv"
            # pools of 50 items, 10 views per user
            assert run_cli("synth", "--data", str(data), "--seed", "4",
                           "--synth-clusters", "10", "--synth-zipf", zipf) == 0
            held = {}
            for line in data.read_text().splitlines():
                u, i, r = line.split("\t")
                held.setdefault(r, set()).add((u, i))
            assert held["buy"] <= held["view"] and held["cart"] <= held["view"]
            views = np.unique([i for _, i in held["view"]], return_counts=True)[1]
            # share of all views that go to the 5% most viewed items
            views = np.sort(views)[::-1]
            top_share[zipf] = views[:25].sum() / views.sum()
        assert top_share["1.0"] > 1.5 * top_share["0"]

    @pytest.mark.parametrize("argv,key", [
        (["--synth-users", "-3"], "synth_users"),
        (["--synth-items", "-1"], "synth_items"),
        (["--synth-clusters", "-1"], "synth_clusters"),
        (["--synth-views", "-1"], "synth_views"),
        (["--synth-carts", "-2"], "synth_carts"),
        (["--synth-buys", "-1"], "synth_buys"),
        (["--cascade", "-1"], "cascade"),
        (["--cascade", "1.5"], "cascade"),
        (["--relations", "buy", "--target", "buy"], "two relations"),
        (["--synth-zipf", "inf"], "synth_zipf"),
        (["--synth-zipf", "nan"], "synth_zipf"),
        (["--seed", "-1"], "seed"),
    ])
    def test_bad_generator_input_exits_one(self, tmp_path, capsys, argv, key):
        data = tmp_path / "bad.tsv"
        assert run_cli("synth", "--data", str(data), *argv) == 1
        assert_one_error_line(capsys, key)
        assert not data.exists()

    def test_negative_zipf_exits_one(self, tmp_path, capsys):
        data = tmp_path / "bad.tsv"
        assert run_cli("synth", "--data", str(data), "--synth-zipf", "-1") == 1
        assert "synth_zipf" in capsys.readouterr().err
        assert not data.exists()


class TestTrain:
    def test_smoke_writes_run_directory(self, synth_file, tmp_path):
        out = tmp_path / "run"
        assert run_cli(*train_args(synth_file, out)) == 0
        for name in ("config.txt", "metrics.jsonl", "checkpoint.npz", "best.npz"):
            assert (out / name).exists(), name
        records = [json.loads(line) for line in
                   (out / "metrics.jsonl").read_text().splitlines()]
        assert {r["type"] for r in records} >= {"loss", "eval"}

    def test_missing_dataset_exits_one(self, tmp_path):
        assert run_cli("train", "--data", str(tmp_path / "nope.tsv")) == 1

    def test_bad_config_value_exits_one(self, synth_file, tmp_path):
        assert run_cli("train", "--data", str(synth_file), "--out",
                       str(tmp_path / "x"), "--lr", "-1") == 1

    def test_same_seed_gives_byte_identical_metrics(self, synth_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*train_args(synth_file, out_a)) == 0
        assert run_cli(*train_args(synth_file, out_b)) == 0
        assert (out_a / "metrics.jsonl").read_bytes() == \
            (out_b / "metrics.jsonl").read_bytes()

    def test_csv_flag_writes_flat_table(self, synth_file, tmp_path):
        out = tmp_path / "run"
        assert run_cli(*train_args(synth_file, out, extra=["--csv", "true"])) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,metric,k,value,group"
        assert len(lines) > 1

    def test_csv_group_rows_carry_the_group_k(self, synth_file, tmp_path):
        # without a 10 in ks the groups are scored at the smallest k
        out = tmp_path / "run"
        assert run_cli(*train_args(synth_file, out,
                                   extra=["--ks", "5,20", "--csv", "true"])) == 0
        # the group label holds a comma of its own, "[10,60)", so it is quoted
        with open(out / "metrics.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows and all(len(r) == 5 for r in rows)
        assert "[10,60)" in {r[4] for r in rows}
        groups = [r for r in rows if r[4]]
        assert groups and {r[2] for r in groups} == {"5"}
        assert {r[2] for r in rows if not r[4]} == {"5", "20"}
        records = [json.loads(line) for line in
                   (out / "metrics.jsonl").read_text().splitlines()]
        last = [r for r in records if r["type"] == "eval"][-1]
        recall = {r[4]: float(r[3]) for r in groups
                  if r[0] == str(last["epoch"]) and r[1] == "recall"}
        assert recall == {label: g["recall"] for label, g in last["groups"].items()
                          if g["recall"] is not None}

    def test_resume_continues_to_target_epochs(self, synth_file, tmp_path):
        out1 = tmp_path / "r1"
        assert run_cli(*train_args(synth_file, out1)) == 0
        out2 = tmp_path / "r2"
        args = train_args(synth_file, out2,
                          extra=["--resume", str(out1 / "checkpoint.npz"),
                                 "--epochs", "4"])
        assert run_cli(*args) == 0
        records = [json.loads(line) for line in
                   (out2 / "metrics.jsonl").read_text().splitlines()]
        epochs = [r["epoch"] for r in records if r["type"] == "loss"]
        assert epochs == [3, 4]

    @pytest.mark.parametrize("leg", ["repeated_flags", "resume_out_epochs"])
    def test_resume_restores_exactly(self, synth_file, tmp_path, leg):
        # 2 epochs + resume for 2 must land on the same parameters as an
        # uninterrupted 4-epoch run (params, optimizer and RNG state all
        # round-trip through the checkpoint). The second leg may repeat the
        # first's flags or take every key but out and epochs from the
        # checkpoint
        straight = tmp_path / "straight"
        assert run_cli(*train_args(synth_file, straight,
                                   extra=["--epochs", "4"])) == 0
        part1 = tmp_path / "part1"
        assert run_cli(*train_args(synth_file, part1)) == 0  # 2 epochs
        ckpt = part1 / "checkpoint.npz"
        part2 = tmp_path / "part2"
        resume = ["--resume", str(ckpt), "--epochs", "4"]
        if leg == "resume_out_epochs":
            assert run_cli("train", "--out", str(part2), *resume) == 0
        else:
            assert run_cli(*train_args(synth_file, part2, extra=resume)) == 0
        a = np.load(straight / "checkpoint.npz")
        b = np.load(part2 / "checkpoint.npz")
        keys = [k for k in a.files if k.startswith("param/")]
        assert keys
        for k in keys:
            np.testing.assert_array_equal(a[k], b[k])
        assert ((straight / "config.txt").read_text().replace(str(straight), "")
                == (part2 / "config.txt").read_text().replace(str(part2), "")
                .replace(f"resume = {ckpt}", "resume = "))

    @pytest.mark.parametrize("first_leg", ["stops_in_first_leg", "stops_in_second_leg"])
    def test_resume_keeps_early_stopping_and_the_best_parameters(self, tmp_path,
                                                                first_leg):
        # lr 0.05 stops this demo run early, and reaches logits whose softplus
        # gradient once overflowed. A resume carries the best metric, the
        # patience count and the best parameters on, so it stops where the
        # uninterrupted run stops and writes that run's best.npz, whether the
        # first leg had already stopped (12 epochs) or stops one epoch short
        data = tmp_path / "demo.tsv"
        assert run_cli("synth", "--data", str(data), "--seed", "0") == 0
        flags = ["--data", str(data), "--seed", "3", "--dim", "8", "--lr", "0.05",
                 "--patience", "2"]
        straight, part1, part2 = tmp_path / "straight", tmp_path / "part1", tmp_path / "part2"
        assert run_cli("train", *flags, "--out", str(straight), "--epochs", "14") == 0
        records = [json.loads(line) for line in
                   (straight / "metrics.jsonl").read_text().splitlines()]
        stop = [r["epoch"] for r in records if r["type"] == "early_stop"]
        assert stop and stop[0] < 14
        epochs = 12 if first_leg == "stops_in_first_leg" else stop[0] - 1
        assert run_cli("train", *flags, "--out", str(part1), "--epochs", str(epochs)) == 0
        assert run_cli("train", "--out", str(part2), "--epochs", "14", "--resume",
                       str(part1 / "checkpoint.npz")) == 0
        legs = [json.loads(line) for run in (part1, part2)
                for line in (run / "metrics.jsonl").read_text().splitlines()]
        assert legs == records
        for name in ("checkpoint.npz", "best.npz"):
            a, b = np.load(straight / name), np.load(part2 / name)
            assert a.files == b.files
            for k in set(a.files) - {"__config__"}:  # which names the run directory
                np.testing.assert_array_equal(a[k], b[k], err_msg=f"{name} {k}")

    def test_checkpoint_meta_holds_sizes_and_epochs(self, synth_file, tmp_path):
        from chainrec.checkpoint import load_checkpoint
        out = tmp_path / "run"
        assert run_cli(*train_args(synth_file, out)) == 0
        meta = load_checkpoint(out / "checkpoint.npz")["meta"]
        assert meta == {"num_users": 40, "num_items": meta["num_items"], "epoch": 2,
                        "best_epoch": meta["best_epoch"],
                        "best_metric": meta["best_metric"], "bad_rounds": meta["bad_rounds"]}

    @pytest.mark.parametrize("flag, value", [("--layers", "3"), ("--seed", "0"),
                                             ("--order", "cart,buy,view"),
                                             ("--ratio", "0.5"), ("--dim", "16"),
                                             ("--checkpoint", "x.npz")])
    def test_resume_flag_changing_a_checkpoint_key_exits_one(self, synth_file, tmp_path,
                                                             capsys, flag, value):
        # each of these once trained on under another model or split, where
        # the first leg's test edges could become training edges, and exited 0
        part1 = tmp_path / "part1"
        assert run_cli(*train_args(synth_file, part1)) == 0
        capsys.readouterr()
        part2 = tmp_path / "part2"
        assert run_cli("train", "--out", str(part2), "--resume",
                       str(part1 / "checkpoint.npz"), "--epochs", "4", flag, value) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {flag[2:]} is ")
        assert not part2.exists()

    def test_resume_config_file_changing_a_checkpoint_key_exits_one(
            self, synth_file, tmp_path, capsys):
        part1 = tmp_path / "part1"
        assert run_cli(*train_args(synth_file, part1)) == 0
        cfg = tmp_path / "resume.cfg"
        cfg.write_text("epochs = 4\nlayers = 1\n", encoding="utf-8")
        capsys.readouterr()
        part2 = tmp_path / "part2"
        assert run_cli("train", "--config", str(cfg), "--out", str(part2),
                       "--resume", str(part1 / "checkpoint.npz")) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: layers is 1 here but 2 in the checkpoint")
        assert captured.err.count("\n") == 1
        assert not part2.exists()

    def test_resume_under_another_seed_and_split_exits_one(self, synth_file, tmp_path,
                                                           capsys):
        # the leaking resume: another seed and ratio would re-split the data,
        # and layers, not repeated, comes from the checkpoint
        part1 = tmp_path / "part1"
        assert run_cli(*train_args(synth_file, part1, extra=["--seed", "0",
                                                            "--layers", "3"])) == 0
        capsys.readouterr()
        part2 = tmp_path / "part2"
        assert run_cli("train", "--data", str(synth_file), "--out", str(part2),
                       "--resume", str(part1 / "checkpoint.npz"), "--seed", "4",
                       "--ratio", "0.5", "--epochs", "3") == 1
        assert_one_error_line(capsys, "seed is 4 here but 0 in the checkpoint",
                              "ratio is 0.5 here but 0.75 in the checkpoint")
        assert not part2.exists()
        assert run_cli("train", "--out", str(part2), "--resume",
                       str(part1 / "checkpoint.npz"), "--epochs", "3") == 0
        saved = (part2 / "config.txt").read_text()
        assert "layers = 3\n" in saved and "seed = 0\n" in saved
        assert f"out = {part2}\n" in saved

    @pytest.mark.parametrize("epochs", [None, "1", "2"])
    def test_resume_with_no_epoch_left_exits_one(self, synth_file, tmp_path, capsys,
                                                 epochs):
        # None inherits the checkpoint's epochs, 2, which it has trained
        part1 = tmp_path / "part1"
        assert run_cli(*train_args(synth_file, part1)) == 0
        capsys.readouterr()
        part2 = tmp_path / "part2"
        flags = [] if epochs is None else ["--epochs", epochs]
        assert run_cli("train", "--out", str(part2), "--resume",
                       str(part1 / "checkpoint.npz"), *flags) == 1
        assert_one_error_line(capsys, f"epochs is {epochs or 2}", "at epoch 2",
                              "--epochs above 2")
        assert not part2.exists()

    def test_resume_from_a_stale_best_checkpoint_exits_one(self, synth_file, tmp_path,
                                                           capsys):
        # best.npz holds the best epoch's parameters but the last epoch's Adam
        # state and sampler RNG: with its best epoch before the last, it
        # cannot continue the run. When the last epoch is the best, it can
        part1 = tmp_path / "part1"
        assert run_cli(*train_args(synth_file, part1)) == 0
        from chainrec.checkpoint import load_checkpoint
        best = load_checkpoint(part1 / "best.npz")
        epoch = best["meta"]["epoch"]
        stale = with_meta(part1 / "best.npz", tmp_path / "stale.npz",
                          {"epoch": epoch - 1, "best_epoch": epoch - 1})
        capsys.readouterr()
        part2 = tmp_path / "part2"
        resume = ["train", "--out", str(part2), "--epochs", "4", "--resume"]
        assert run_cli(*resume, str(stale)) == 1
        assert_one_error_line(capsys, f"epoch {epoch - 1}'s parameters",
                              f"step {best['state'].t}", "checkpoint.npz")
        assert not part2.exists()
        if epoch == 2:
            assert run_cli(*resume, str(part1 / "best.npz")) == 0

    def test_resume_into_its_own_run_directory_exits_one(self, synth_file, tmp_path,
                                                         capsys):
        part1 = tmp_path / "part1"
        assert run_cli(*train_args(synth_file, part1)) == 0
        before = (part1 / "metrics.jsonl").read_bytes()
        capsys.readouterr()
        assert run_cli("train", "--out", str(part1), "--epochs", "4", "--resume",
                       str(part1 / "checkpoint.npz")) == 1
        assert_one_error_line(capsys, "out", "--out")
        assert (part1 / "metrics.jsonl").read_bytes() == before

    @pytest.mark.parametrize("drop", [{"adam_m/base"}, {"adam_v/base"}, {"__adam_t__"},
                                      {"__rng__"}, ALL_OF_BASE], ids=joined)
    def test_resume_from_incomplete_checkpoint_exits_one(self, synth_file,
                                                         tmp_path, capsys, drop):
        part1 = tmp_path / "part1"
        assert run_cli(*train_args(synth_file, part1)) == 0
        bad = without_keys(part1 / "checkpoint.npz", tmp_path / "bad.npz", drop)
        capsys.readouterr()
        part2 = tmp_path / "part2"
        assert run_cli(*train_args(synth_file, part2,
                                   extra=["--resume", str(bad),
                                          "--epochs", "4"])) == 1
        assert_one_error_line(capsys, *{key.rpartition("/")[2] for key in drop})
        assert not part2.exists()

    def test_resume_from_nonfinite_checkpoint_exits_one(self, synth_file, tmp_path,
                                                        capsys):
        part1 = tmp_path / "part1"
        assert run_cli(*train_args(synth_file, part1)) == 0
        bad = with_nan(part1 / "checkpoint.npz", tmp_path / "bad.npz", "base")
        capsys.readouterr()
        part2 = tmp_path / "part2"
        assert run_cli(*train_args(synth_file, part2,
                                   extra=["--resume", str(bad),
                                          "--epochs", "4"])) == 1
        assert_one_error_line(capsys, "non-finite", "base")
        assert not part2.exists()

    def test_resume_with_other_tensor_names_exits_one(self, synth_file, tmp_path,
                                                      capsys):
        # a checkpoint that holds its base table under three other names, as
        # the retired one-base-table-per-channel variant wrote it
        part1 = tmp_path / "part1"
        assert run_cli(*train_args(synth_file, part1)) == 0
        capsys.readouterr()
        with np.load(part1 / "checkpoint.npz") as data:
            arrays = dict(data)
        for kind in ("param", "adam_m", "adam_v"):
            base = arrays.pop(f"{kind}/base")
            for name in ("base_global", "base_local", "base_relation"):
                arrays[f"{kind}/{name}"] = base
        odd = tmp_path / "odd.npz"
        np.savez(odd, **arrays)
        part2 = tmp_path / "part2"
        resume = ["--resume", str(odd), "--epochs", "4"]
        assert run_cli(*train_args(synth_file, part2, extra=resume)) == 1
        assert_one_error_line(capsys, "base (checkpoint none, model (70, 8))",
                              "base_global (checkpoint (70, 8), model none)",
                              "base_local", "base_relation")
        assert not part2.exists()

    def test_resume_from_a_checkpoint_with_local_logits_exits_one(self, synth_file,
                                                                  tmp_path, capsys):
        # a checkpoint written while the local pattern weights were learned
        # holds their logits and Adam moments
        part1 = tmp_path / "part1"
        assert run_cli(*train_args(synth_file, part1)) == 0
        capsys.readouterr()
        with np.load(part1 / "checkpoint.npz") as data:
            arrays = dict(data)
        for kind in ("param", "adam_m", "adam_v"):
            arrays[f"{kind}/local_logits"] = np.zeros_like(arrays[f"{kind}/global_logits"])
        old = tmp_path / "old.npz"
        np.savez(old, **arrays)
        part2 = tmp_path / "part2"
        resume = ["--resume", str(old), "--epochs", "4"]
        assert run_cli(*train_args(synth_file, part2, extra=resume)) == 1
        assert_one_error_line(capsys, "local_logits (checkpoint (7,), model none)")
        assert not part2.exists()

    @pytest.mark.parametrize("saved,other", [("float32", "float64"),
                                             ("float64", "float32")])
    def test_resume_in_another_dtype_exits_one(self, synth_file, tmp_path, capsys,
                                               saved, other):
        # a resume takes dtype from the checkpoint: it runs in the saved dtype
        # without --dtype, and a --dtype that differs is refused
        part1 = tmp_path / "part1"
        assert run_cli(*train_args(synth_file, part1, extra=["--dtype", saved])) == 0
        assert np.load(part1 / "checkpoint.npz")["param/base"].dtype == saved
        capsys.readouterr()
        part2 = tmp_path / "part2"
        resume = ["--resume", str(part1 / "checkpoint.npz"), "--epochs", "4"]
        assert run_cli(*train_args(synth_file, part2,
                                   extra=resume + ["--dtype", other])) == 1
        assert_one_error_line(capsys, f"dtype is {other!r} here but {saved!r}")
        assert not part2.exists()
        assert run_cli(*train_args(synth_file, part2, extra=resume)) == 0
        assert f"dtype = {saved}\n" in (part2 / "config.txt").read_text()
        assert np.load(part2 / "checkpoint.npz")["param/base"].dtype == saved

    def test_config_file_plus_flag_override(self, synth_file, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"data = {synth_file}\ndim = 8\nepochs = 1\n"
                            f"batch = 16\nout = {tmp_path / 'byfile'}\n")
        assert run_cli("train", "--config", str(cfg_file), "--epochs", "2") == 0
        saved = (tmp_path / "byfile" / "config.txt").read_text()
        assert "epochs = 2" in saved  # flag wins over file

    @pytest.mark.parametrize("flag,value,key", [
        ("--eval-every", "0", "eval_every"),
        ("--eval-every", "-1", "eval_every"),
        ("--ks", "0", "ks"),
        ("--ks", "10,-5", "ks"),
        ("--ks", ",", "ks"),
        ("--ks", "a,b", "ks"),
        ("--ks", "10,10,5", "ks"),
        ("--dim", "abc", "dim"),
        ("--lr", "fast", "lr"),
        ("--csv", "maybe", "csv"),
        ("--csv", "2", "csv"),
        ("--epochs", "0", "epochs"),
        ("--epochs", "-3", "epochs"),
        ("--patience", "0", "patience"),
        ("--patience", "-3", "patience"),
        ("--l2", "-1", "l2"),
        ("--mu1", "-0.1", "mu1"),
        ("--mu2", "-0.5", "mu2"),
        ("--seed", "-1", "seed"),
        ("--tau", "nan", "tau"),
        ("--lr", "inf", "lr"),
    ])
    def test_bad_value_exits_one_before_training(self, synth_file, tmp_path,
                                                 capsys, flag, value, key):
        out = tmp_path / "run"
        assert run_cli(*train_args(synth_file, out, extra=[flag, value])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert key in err
        assert not out.exists()

    def test_unknown_config_key_exits_one(self, synth_file, tmp_path):
        cfg_file = tmp_path / "broken.cfg"
        cfg_file.write_text("nonsense_key = 1\n")
        assert run_cli("train", "--config", str(cfg_file)) == 1

    def test_retired_keys_exit_one_naming_the_key(self, synth_file, tmp_path,
                                                  capsys):
        # a retired key is no key at any value, even the one an earlier
        # version dropped it at: no flag, and unknown at its config line
        for key, value in RETIRED_AT_KEPT_VALUES:
            dashed = key.replace("_", "-")
            old = tmp_path / f"{key}.cfg"
            old.write_text(f"data = {synth_file}\n{key} = {value}\n")
            for want, argv in ((f"--{dashed}", ["--data", str(synth_file), f"--{dashed}", value]),
                               (f"{old}:2: unknown key {key!r}", ["--config", str(old)])):
                assert run_cli("train", "--out", str(tmp_path / "x"), *argv) == 1
                assert_one_error_line(capsys, want)
        assert not (tmp_path / "x").exists()

    def test_output_root_env_var(self, synth_file, tmp_path, monkeypatch):
        monkeypatch.setenv("CHAINREC_OUT", str(tmp_path / "root"))
        assert run_cli("train", "--data", str(synth_file), "--dim", "4",
                       "--epochs", "1", "--batch", "32", "--seed", "3") == 0
        assert (tmp_path / "root" / "run-seed3" / "metrics.jsonl").exists()

    def test_runtime_abort_exits_two(self, synth_file, tmp_path, monkeypatch):
        from chainrec import cli
        from chainrec.model import TrainingAbort

        def explode(*args, **kwargs):
            raise TrainingAbort("non-finite loss term 'final_bpr'")

        monkeypatch.setattr(cli, "run_training", explode)
        assert run_cli("train", "--data", str(synth_file),
                       "--out", str(tmp_path / "x")) == 2


def write_tsv(path, lines):
    path.write_text("".join("\t".join(line.split()) + "\n" for line in lines))
    return path


# 3 buy edges: ratio 0.9 keeps round(2.7) = 3 for training, holds out none;
# ratio 0.1 keeps round(0.3) = 0 for training
THREE_BUYS = ["u0 i0 view", "u0 i1 view", "u1 i1 view", "u1 i2 view",
              "u2 i0 view", "u0 i0 cart", "u1 i1 cart",
              "u0 i0 buy", "u1 i1 buy", "u2 i2 buy"]


class TestDataErrors:
    """Data the run cannot use ends with a one-line message and an exit code."""

    def one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    def test_no_target_edges_exits_one(self, tmp_path, capsys):
        data = write_tsv(tmp_path / "d.tsv", ["u0 i0 view", "u1 i1 cart"])
        assert run_cli("train", "--data", str(data),
                       "--out", str(tmp_path / "x")) == 1
        assert "no target-relation edges" in self.one_line_error(capsys)

    def test_user_with_every_item_exits_one(self, tmp_path, capsys):
        # with seed 0 the held-out buy edge is not u0's, so u0's training
        # positives cover both items and no negative exists for u0
        data = write_tsv(tmp_path / "d.tsv",
                         ["u0 i0 view", "u0 i1 view", "u0 i0 buy", "u0 i1 buy",
                          "u1 i0 buy", "u2 i1 buy"])
        assert run_cli("train", "--data", str(data), "--out", str(tmp_path / "x"),
                       "--dim", "4", "--epochs", "1", "--ratio", "0.75",
                       "--seed", "0") == 1
        err = self.one_line_error(capsys)
        assert "no negative item" in err and "user u0 has 'buy'" in err

    def test_split_with_no_test_users_exits_one(self, tmp_path, capsys):
        data = write_tsv(tmp_path / "d.tsv", THREE_BUYS)
        out = tmp_path / "run"
        assert run_cli("train", "--data", str(data), "--out", str(out),
                       "--ratio", "0.9", "--dim", "4", "--epochs", "1") == 1
        err = self.one_line_error(capsys)
        assert "ratio 0.9" in err and "3 target edges" in err
        assert not (out / "metrics.jsonl").exists()
        # evaluate takes the ratio from the checkpoint, and refuses the same
        # split when the checkpoint's config holds it
        assert run_cli("train", "--data", str(data), "--out", str(out),
                       "--ratio", "0.5", "--dim", "4", "--epochs", "1") == 0
        from chainrec.checkpoint import load_checkpoint, save_checkpoint
        ckpt = load_checkpoint(out / "best.npz")
        text = ckpt["config_text"].replace("ratio = 0.5", "ratio = 0.9")
        save_checkpoint(tmp_path / "at09.npz", ckpt["params"], ckpt["state"], text,
                        ckpt["meta"], ckpt["rng"])
        capsys.readouterr()
        assert run_cli("evaluate", "--data", str(data),
                       "--checkpoint", str(tmp_path / "at09.npz")) == 1
        err = self.one_line_error(capsys)
        assert "ratio 0.9" in err and "3 target edges" in err

    def test_split_with_no_training_target_edge_exits_one(self, tmp_path, capsys):
        data = write_tsv(tmp_path / "d.tsv", THREE_BUYS)
        out = tmp_path / "run"
        assert run_cli("train", "--data", str(data), "--out", str(out),
                       "--ratio", "0.1", "--dim", "4", "--epochs", "1") == 1
        err = self.one_line_error(capsys)
        assert "ratio 0.1" in err and "3 target edges" in err and "training" in err
        assert not out.exists()


class TestUnreadableData:
    """A dataset path that cannot be read as text ends with one line
    naming it, for every command that reads the dataset."""

    @pytest.fixture(params=["directory", "not_utf8"])
    def bad_data(self, request, tmp_path):
        path = tmp_path / "data.tsv"
        if request.param == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"u0\ti0\tbuy\n\xff\xfe\tview\n")
        return path

    def test_train_exits_one(self, bad_data, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(*train_args(bad_data, out)) == 1
        assert_one_error_line(capsys, "cannot read dataset", str(bad_data))
        assert not out.exists()

    def test_evaluate_exits_one(self, bad_data, synth_file, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run_cli(*train_args(synth_file, run_dir)) == 0
        capsys.readouterr()
        assert run_cli("evaluate", "--data", str(bad_data),
                       "--checkpoint", str(run_dir / "best.npz")) == 1
        assert_one_error_line(capsys, "cannot read dataset", str(bad_data))

    def test_undecodable_byte_wins_over_an_earlier_bad_line(self, tmp_path, capsys):
        # the whole file is decoded before any line is checked, so a
        # malformed first line is not what gets reported
        data = tmp_path / "data.tsv"
        data.write_bytes(b"u only\n" + b"u0\ti0\tbuy\n" * 5000 + b"u1\t\xff\tbuy\n")
        assert run_cli(*train_args(data, tmp_path / "run")) == 1
        assert_one_error_line(capsys, "cannot read dataset", str(data))
        assert not (tmp_path / "run").exists()


class TestUnreadableConfig:
    """A --config path that cannot be read as text ends with one line
    naming it, for train and evaluate alike."""

    @pytest.fixture(params=["directory", "not_utf8"])
    def bad_config(self, request, tmp_path):
        path = tmp_path / "run.cfg"
        if request.param == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"dim = 8\n\xff\xfe = 1\n")
        return path

    def test_train_exits_one(self, bad_config, synth_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(*train_args(synth_file, out),
                       "--config", str(bad_config)) == 1
        assert_one_error_line(capsys, "cannot read config file", str(bad_config))
        assert not out.exists()

    def test_evaluate_exits_one(self, bad_config, synth_file, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run_cli(*train_args(synth_file, run_dir)) == 0
        capsys.readouterr()
        assert run_cli("evaluate", "--data", str(synth_file), "--config",
                       str(bad_config), "--checkpoint", str(run_dir / "best.npz")) == 1
        assert_one_error_line(capsys, "cannot read config file", str(bad_config))


def with_meta(ckpt_path, out_path, entries):
    """Copy of a checkpoint whose metadata also holds, or now holds,
    ``entries``."""
    from chainrec.checkpoint import load_checkpoint, save_checkpoint
    ckpt = load_checkpoint(ckpt_path)
    save_checkpoint(out_path, ckpt["params"], ckpt["state"], ckpt["config_text"],
                    {**ckpt["meta"], **entries}, ckpt["rng"], ckpt["best"])
    return out_path


def without_keys(ckpt_path, out_path, drop):
    """Copy of a checkpoint file without the arrays named in ``drop``."""
    with np.load(ckpt_path) as data:
        kept = {k: data[k] for k in data.files if k not in drop}
    np.savez(out_path, **kept)
    return out_path


def with_nan(ckpt_path, out_path, name):
    """Copy of a checkpoint file with one NaN in parameter ``name``."""
    with np.load(ckpt_path) as data:
        arrays = dict(data)
    arrays[f"param/{name}"].flat[0] = np.nan
    np.savez(out_path, **arrays)
    return out_path


def from_checkpoint(command, data, ckpt, out):
    """The command line that evaluates ``ckpt`` on ``data``, or resumes it
    into ``out`` for 4 epochs."""
    if command == "evaluate":
        return ["evaluate", "--data", str(data), "--checkpoint", str(ckpt)]
    return ["train", "--out", str(out), "--epochs", "4", "--resume", str(ckpt)]


def assert_one_error_line(capsys, *words):
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    for word in words:
        assert word in captured.err


class TestEvaluate:
    @pytest.fixture
    def run_dir(self, synth_file, tmp_path):
        out = tmp_path / "run"
        assert run_cli(*train_args(synth_file, out)) == 0
        return out

    def test_prints_metrics_and_group_table(self, run_dir, synth_file, capsys):
        code = run_cli("evaluate", "--data", str(synth_file),
                       "--checkpoint", str(run_dir / "best.npz"))
        assert code == 0
        out = capsys.readouterr().out
        for k in (5, 10, 20, 40):
            assert f"R@{k} " in out and f"N@{k} " in out
        assert "group,users,recall@10,ndcg@10" in out
        assert "[0,4)" in out

    def test_ks_flag_filters_rows(self, run_dir, synth_file, capsys):
        code = run_cli("evaluate", "--data", str(synth_file),
                       "--checkpoint", str(run_dir / "best.npz"), "--ks", "10")
        assert code == 0
        out = capsys.readouterr().out
        assert "R@10 " in out and "R@20" not in out

    def test_checkpoint_with_a_repeated_cutoff_needs_ks(self, run_dir, synth_file,
                                                        tmp_path, capsys):
        # an earlier version wrote ks = 10,10,5 and printed R@10 twice
        from chainrec.checkpoint import load_checkpoint, save_checkpoint
        ckpt = load_checkpoint(run_dir / "best.npz")
        text = ckpt["config_text"].replace("ks = 5,10,20,40", "ks = 10,10,5")
        assert "ks = 10,10,5" in text
        old = tmp_path / "old.npz"
        save_checkpoint(old, ckpt["params"], ckpt["state"], text, ckpt["meta"], ckpt["rng"])
        capsys.readouterr()
        args = ("evaluate", "--data", str(synth_file), "--checkpoint", str(old))
        assert run_cli(*args) == 1
        assert_one_error_line(capsys, "ks", "10,10,5")
        assert run_cli(*args, "--ks", "10,5") == 0
        out = capsys.readouterr().out
        assert out.count("R@10 ") == 1 and "R@5 " in out

    def test_group_header_names_the_group_k(self, run_dir, synth_file, capsys):
        code = run_cli("evaluate", "--data", str(synth_file),
                       "--checkpoint", str(run_dir / "best.npz"), "--ks", "5,20")
        assert code == 0
        out = capsys.readouterr().out
        assert "group,users,recall@5,ndcg@5" in out and "@10" not in out

    def test_checkpoint_with_local_logits_exits_one(self, synth_file, capsys):
        # best.npz of a train_args run written by ede8f01, the last commit
        # whose default dtype was float64: a format-1 checkpoint, which holds
        # learned local pattern logits and the weighting encoders, neither of
        # which the model has any more, so it cannot be scored as it was
        # trained
        ckpt = os.path.join(os.path.dirname(__file__), "data",
                            "float64_default_best.npz")
        assert run_cli("evaluate", "--data", str(synth_file), "--checkpoint", ckpt) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "format-1 checkpoint, which predates format 2" in captured.err

    @pytest.mark.parametrize("command", ["evaluate", "resume"])
    @pytest.mark.parametrize("key", META_KEYS)
    def test_checkpoint_missing_a_meta_key_exits_one(self, run_dir, synth_file, tmp_path,
                                                     capsys, key, command):
        from chainrec.checkpoint import load_checkpoint, save_checkpoint
        ckpt = load_checkpoint(run_dir / "checkpoint.npz")
        assert sorted(ckpt["meta"]) == sorted(META_KEYS)
        bad = tmp_path / "bad.npz"
        save_checkpoint(bad, ckpt["params"], ckpt["state"], ckpt["config_text"],
                        {k: v for k, v in ckpt["meta"].items() if k != key}, ckpt["rng"],
                        ckpt["best"])
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli(*from_checkpoint(command, synth_file, bad, out)) == 1
        assert_one_error_line(capsys, f"lacks meta key {key}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "resume"])
    @pytest.mark.parametrize("version, words", [
        (1, "format-1 checkpoint, which predates format 2"),
        (3, "checkpoint version 3 is newer than supported 2")], ids=["older", "newer"])
    def test_checkpoint_of_another_format_exits_one(self, run_dir, synth_file, tmp_path,
                                                    capsys, version, words, command):
        # the version alone decides: the tensors and meta are this format's
        with np.load(run_dir / "checkpoint.npz") as data:
            arrays = dict(data)
        arrays["__version__"] = np.asarray(version)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli(*from_checkpoint(command, synth_file, bad, out)) == 1
        assert_one_error_line(capsys, words)
        assert not out.exists()

    def test_corrupted_checkpoint_exits_one(self, synth_file, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not a checkpoint")
        assert run_cli("evaluate", "--data", str(synth_file),
                       "--checkpoint", str(bad)) == 1

    @pytest.mark.parametrize("drop", [{"__config__"}, {"__meta__"}, {"__rng__"},
                                      {"__adam_t__"}, {"adam_m/base"}, {"param/base"},
                                      ALL_OF_BASE], ids=joined)
    def test_checkpoint_missing_a_key_exits_one(self, run_dir, synth_file,
                                                tmp_path, capsys, drop):
        bad = without_keys(run_dir / "best.npz", tmp_path / "bad.npz", drop)
        capsys.readouterr()
        assert run_cli("evaluate", "--data", str(synth_file),
                       "--checkpoint", str(bad)) == 1
        assert_one_error_line(capsys, *{key.rpartition("/")[2] for key in drop})

    def test_checkpoint_with_a_misshapen_tensor_exits_one(self, run_dir, synth_file,
                                                          tmp_path, capsys):
        with np.load(run_dir / "best.npz") as data:
            arrays = dict(data)
        arrays["param/chain0.user0"] = arrays["param/chain0.user0"][:-1]
        np.savez(tmp_path / "bad.npz", **arrays)
        capsys.readouterr()
        assert run_cli("evaluate", "--data", str(synth_file),
                       "--checkpoint", str(tmp_path / "bad.npz")) == 1
        assert_one_error_line(capsys, "chain0.user0 (checkpoint (7, 8), model (8, 8))")

    def test_checkpoint_with_a_nonfinite_parameter_exits_one(self, run_dir,
                                                             synth_file, tmp_path,
                                                             capsys):
        bad = with_nan(run_dir / "best.npz", tmp_path / "bad.npz", "chain0.user0")
        capsys.readouterr()
        out = tmp_path / "eval_run"
        assert run_cli("evaluate", "--data", str(synth_file), "--checkpoint",
                       str(bad), "--csv", "true", "--out", str(out)) == 1
        assert_one_error_line(capsys, "non-finite", "chain0.user0")
        assert not out.exists()

    def test_dimension_mismatch_reports_diff(self, run_dir, synth_file, capsys):
        code = run_cli("evaluate", "--data", str(synth_file),
                       "--checkpoint", str(run_dir / "best.npz"),
                       "--dim", "16")
        assert code == 1
        assert "dim" in capsys.readouterr().err

    def test_data_of_another_size_exits_one(self, run_dir, tmp_path, capsys):
        other = tmp_path / "other.tsv"
        assert run_cli("synth", "--data", str(other), "--synth-users", "41",
                       "--synth-items", "30", "--seed", "1") == 0
        capsys.readouterr()
        assert run_cli("evaluate", "--data", str(other),
                       "--checkpoint", str(run_dir / "best.npz")) == 1
        assert_one_error_line(capsys, "trained on 40 users", "the data has 41")

    def test_missing_checkpoint_flag_exits_one(self, synth_file):
        assert run_cli("evaluate", "--data", str(synth_file)) == 1

    @pytest.mark.parametrize("flag, value", [("--layers", "3"), ("--seed", "0"),
                                             ("--order", "cart,buy,view"),
                                             ("--ratio", "0.5")])
    def test_flag_changing_a_checkpoint_key_exits_one(self, run_dir, synth_file,
                                                      capsys, flag, value):
        # each of these once re-scored the checkpoint under another model
        # or split and exited 0
        capsys.readouterr()
        assert run_cli("evaluate", "--data", str(synth_file), "--checkpoint",
                       str(run_dir / "best.npz"), flag, value) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {flag[2:]} is ")

    def test_config_file_changing_a_checkpoint_key_exits_one(self, run_dir,
                                                             synth_file, tmp_path,
                                                             capsys):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("layers = 1\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli("evaluate", "--data", str(synth_file), "--config", str(cfg),
                       "--checkpoint", str(run_dir / "best.npz")) == 1
        assert_one_error_line(capsys, "layers", "checkpoint")

    def test_repeating_checkpoint_keys_and_setting_evaluation_keys_is_allowed(
            self, run_dir, synth_file, tmp_path, capsys):
        ckpt = str(run_dir / "best.npz")
        assert run_cli("evaluate", "--data", str(synth_file), "--checkpoint", ckpt) == 0
        plain = capsys.readouterr().out
        # the trained values, as flags and as a config file
        cfg = tmp_path / "same.cfg"
        cfg.write_text("layers = 2\nrelations = view,cart,buy\n", encoding="utf-8")
        assert run_cli("evaluate", "--data", str(synth_file), "--checkpoint", ckpt,
                       "--layers", "2", "--seed", "7", "--dim", "8",
                       "--config", str(cfg)) == 0
        assert capsys.readouterr().out == plain
        out = tmp_path / "eval_run"
        assert run_cli("evaluate", "--data", str(synth_file), "--checkpoint", ckpt,
                       "--ks", "10", "--csv", "true", "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert "R@10 " in printed and "R@5 " not in printed
        assert printed.splitlines()[0] in plain
        assert (out / "eval_metrics.csv").exists() and not (out / "metrics.csv").exists()

    def test_evaluating_keeps_the_training_metrics_csv(self, synth_file, tmp_path):
        # the checkpoint's config names the run directory and csv = true,
        # so evaluate writes its rows there, next to the training table
        out = tmp_path / "run"
        assert run_cli(*train_args(synth_file, out, extra=["--csv", "true"])) == 0
        trained = (out / "metrics.csv").read_bytes()
        assert run_cli("evaluate", "--data", str(synth_file),
                       "--checkpoint", str(out / "best.npz")) == 0
        assert (out / "metrics.csv").read_bytes() == trained
        rows = (out / "eval_metrics.csv").read_text().splitlines()
        assert rows[0] == "epoch,metric,k,value,group" and len(rows) > 1

    def test_bad_ks_exits_one(self, run_dir, synth_file, capsys):
        assert run_cli("evaluate", "--data", str(synth_file),
                       "--checkpoint", str(run_dir / "best.npz"), "--ks", "0") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "ks" in captured.err


class TestInspectPatterns:
    def test_three_relations_emit_seven_masks_three_chains(self, synth_file,
                                                           capsys):
        assert run_cli("inspect-patterns", "--data", str(synth_file)) == 0
        out = capsys.readouterr().out
        blocks = out.strip().split("\n\n")
        mask_rows = blocks[0].splitlines()
        chain_rows = blocks[1].splitlines()
        assert mask_rows[0] == "mask_bits,edge_count,b_column_sum"
        assert len(mask_rows) == 1 + 7
        assert chain_rows[0] == "chain_index,relations"
        assert len(chain_rows) == 1 + 3
        # column sums count both endpoints of every pattern edge
        for row in mask_rows[1:]:
            bits, edges, colsum = row.split(",")
            assert int(colsum) == 2 * int(edges)

    def test_figure_style_fixture(self, tmp_path, capsys):
        data = tmp_path / "fig.tsv"
        data.write_text("u1\ti1\tview\nu1\ti1\tbuy\n"
                        "u2\ti1\tview\nu2\ti1\tcart\nu2\ti1\tbuy\n")
        # u1-i1 is exactly view & buy, u2-i1 all three; bit r of a mask is
        # relation r
        masks = ("mask_bits,edge_count,b_column_sum\n100,0,0\n010,0,0\n"
                 "110,0,0\n001,0,0\n101,1,2\n011,0,0\n111,1,2\n\n"
                 "chain_index,relations\n")
        assert run_cli("inspect-patterns", "--data", str(data)) == 0
        assert capsys.readouterr().out == (
            masks + "0,view->buy\n1,cart->buy\n2,view->cart->buy\n")
        # an order may lead with the target: same patterns, resequenced chains
        assert run_cli("inspect-patterns", "--data", str(data),
                       "--order", "buy,view,cart") == 0
        assert capsys.readouterr().out == (
            masks + "0,buy->view\n1,buy->cart\n2,buy->view->cart\n")

    def test_single_relation_dataset(self, tmp_path, capsys):
        data = tmp_path / "single.tsv"
        data.write_text("u1\ti1\tbuy\nu2\ti2\tbuy\n")
        assert run_cli("inspect-patterns", "--data", str(data),
                       "--relations", "buy", "--target", "buy") == 0
        out = capsys.readouterr().out
        blocks = out.strip().split("\n\n")
        mask_rows = blocks[0].splitlines()[1:]
        assert len(mask_rows) == 1
        assert mask_rows[0] == "1,2,4"
        assert len(blocks) == 1 or blocks[1].splitlines()[1:] == []


class TestHelp:
    @pytest.mark.parametrize("cmd", ["train", "evaluate", "inspect-patterns",
                                     "synth"])
    def test_help_exits_zero(self, cmd):
        with pytest.raises(SystemExit) as exc:
            run_cli(cmd, "--help")
        assert exc.value.code == 0


class TestMalformedCommandLine:
    @pytest.mark.parametrize("argv", [
        [], ["frobnicate"], ["train", "--dim"], ["evaluate", "--checkpoint"],
        ["inspect-patterns", "--data"], ["synth", "--seed"]])
    def test_exits_one_with_one_line(self, argv, capsys):
        assert run_cli(*argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
