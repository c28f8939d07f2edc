"""Paired-seed study: train arms of config overrides, in one or more source
trees, on one fixed split with the same training seeds, and compare each
tree and arm with the first tree's first arm, pair by pair.

    python scripts/paired_study.py out_dir \\
        [--tree parent=../parent --tree change=.] \\
        [--arm float64 dtype=float64 --arm float32 dtype=float32] \\
        [--data data.tsv] [--set KEY=VALUE ...] \\
        [--split-seed 0] [--seeds 1,2,3,4,5] [--epochs 10] [--jobs 1]

A tree is a checkout whose ``src/chainrec`` the runs import; with no
``--tree``, the runs use this checkout. ``--set`` overrides apply to every
arm, and an arm is a name followed by its own overrides; with no ``--arm``,
one arm, ``default``, has none. The reference is the first tree's first
arm, and there must be something to compare with it: two trees, or two
arms.

The graph is read from ``--data``, or else generated once, by this
checkout's ``chainrec.synth``, from the ``--set`` config with
``--split-seed`` as its seed. Each (tree, arm, seed) run is a subprocess
that imports ``chainrec`` from the tree's ``src/``, builds the train/test
split from ``--split-seed`` and runs ``training.train`` on it with the seed
as the training seed. ``--jobs N`` runs N subprocesses at once; each run's
wall seconds per epoch are then measured under that load. Each run is
scored once, at its last epoch, so no epoch is chosen by test.

An arm may set ``order``, the chain order: it trains on the graph under its
own schema, on the same split, so the relation-order study is six arms.

Writes out_dir/paired_study.json and out_dir/paired_study.md. Per run the
JSON holds R@10, N@10, wall seconds per epoch (the one evaluation pass
included), the training seed as the run's config read it, the epoch-4
``final_bpr`` (a retail-like run above 2.0 is in the slow mode of
STUDY.md), the schema order, the arm's overrides as the tree's config read
them, the ``chainrec`` it imported, and a sha256 of the split's train edges
and of its test edges. The Markdown table gives the median per tree and
arm, the paired differences against the reference with quartiles, wins,
losses and ties, the worst pair as a share of the reference's value, and a
two-sided sign-test p. If two runs built different splits, the script says
which trees did and exits 1. If a run fails, the runs not yet started are
cancelled, nothing is written, and the script exits 1.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

import numpy as np

import chainrec
from chainrec import load_interactions, make_config, make_schema, split_train_test
from chainrec import training
from chainrec.config import ConfigError
from chainrec.graph import SchemaError
from chainrec.synth import write_synthetic

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# keys that fix the data, the split or the run; an arm may not change them
FIXED_KEYS = {"data", "relations", "target", "ratio", "seed", "epochs",
              "eval_every", "ks", "cascade"}
METRICS = ("recall_at_10", "ndcg_at_10")


def _pairs(items, what):
    out = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"{what}: expected KEY=VALUE, got {item!r}")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _tree(item: str) -> tuple:
    name, sep, path = item.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {item!r}")
    return name, os.path.abspath(path)


def split_hashes(split, relations) -> dict:
    """sha256 of the split's train edges, relation by relation in
    ``relations`` order, and of its test edges, each array as int64."""
    def digest(arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
        return h.hexdigest()
    return {"train_sha256": digest(a for r in relations for a in split.train_pairs(r)),
            "test_sha256": digest(split.test_edges)}


def run_one(spec: dict) -> dict:
    """One run in this process's ``chainrec``: split ``spec['data']`` by
    ``spec['split_seed']``, train on it under ``spec['overrides']``, and
    score the last epoch."""
    cfg = make_config(overrides=spec["overrides"])
    graph = load_interactions(cfg.data, make_schema(cfg.relations, cfg.target))
    split = split_train_test(graph, cfg.ratio, spec["split_seed"])
    schema = make_schema(cfg.relations, cfg.target, cfg.schema_order)
    t0 = time.perf_counter()
    result = training.train(dataclasses.replace(graph, schema=schema), split, cfg)
    seconds = time.perf_counter() - t0
    last = [r for r in result.history if r["type"] == "eval"][-1]
    epoch4 = [r["final_bpr"] for r in result.history
              if r["type"] == "loss" and r["epoch"] == 4]
    return {"train_seed": cfg.seed, "epoch": last["epoch"],
            "recall_at_10": float(last["recall"]["10"]),
            "ndcg_at_10": float(last["ndcg"]["10"]), "s_per_epoch": seconds / cfg.epochs,
            "final_bpr_epoch4": float(epoch4[0]) if epoch4 else None,
            "order": list(schema.canonical_order),
            "applied": {k: getattr(cfg, k) for k in spec["applied"]},
            "chainrec": os.path.dirname(os.path.abspath(chainrec.__file__)),
            "train_target_edges": int(split.train_pairs(cfg.target)[0].size),
            "test_edges": int(split.test_edges[0].size),
            **split_hashes(split, cfg.relations)}


def launch(tree: str, spec: dict) -> dict:
    """:func:`run_one` in a subprocess that imports ``chainrec`` from
    ``tree``'s ``src/`` only."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--run-one"],
                          input=json.dumps(spec), capture_output=True, text=True,
                          env=env, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"a run in {tree} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p of ``wins`` against ``losses`` (ties dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n
    return min(1.0, 2.0 * tail)


def summarize(runs, groups, seeds) -> dict:
    """Per (tree, arm) group and metric: the median; for every group after
    the first, the paired differences against the first. Keyed tree, then
    arm."""
    value = {(r["tree"], r["arm"], r["seed"]): r for r in runs}
    ref = groups[0]
    out = {}
    for tree, arm in groups:
        entries = out.setdefault(tree, {}).setdefault(arm, {})
        for metric in METRICS:
            got = np.asarray([value[tree, arm, s][metric] for s in seeds])
            entry = {"median": float(np.median(got))}
            if (tree, arm) != ref:
                base = np.asarray([value[(*ref, s)][metric] for s in seeds])
                diff = got - base
                q1, mid, q3 = np.percentile(diff, [25, 50, 75])
                wins, losses = int((diff > 0).sum()), int((diff < 0).sum())
                entry.update({
                    "diff_median": float(mid), "diff_q1": float(q1),
                    "diff_q3": float(q3),
                    "diff_median_rel": float(mid / np.median(base)),
                    "worst_pair_rel": float(np.min(diff / base)),
                    "wins": wins, "losses": losses,
                    "ties": len(seeds) - wins - losses,
                    "sign_p": sign_test_p(wins, losses)})
            entries[metric] = entry
    return out


def markdown(summary, runs, groups, seeds, jobs) -> str:
    load = (f" Runs went {jobs} at a time, so s/epoch was measured under that load."
            if jobs > 1 else "")
    lines = [f"Paired study: {len(seeds)} training seeds, reference tree "
             f"`{groups[0][0]}`, arm `{groups[0][1]}`.{load}", "",
             "| tree | arm | metric | median | paired diff, median [q1, q3] | "
             "median diff / ref | worst pair / ref | wins-losses-ties | sign p |",
             "| --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
    for tree, arm in groups:
        for metric in METRICS:
            e = summary[tree][arm][metric]
            if (tree, arm) == groups[0]:
                rest = "| — | — | — | — | — |"
            else:
                rest = (f"| {e['diff_median']:+.6f} [{e['diff_q1']:+.6f}, "
                        f"{e['diff_q3']:+.6f}] | {100 * e['diff_median_rel']:+.2f}% "
                        f"| {100 * e['worst_pair_rel']:+.2f}% "
                        f"| {e['wins']}-{e['losses']}-{e['ties']} | {e['sign_p']:.3f} |")
            lines.append(f"| {tree} | {arm} | {metric} | {e['median']:.6f} {rest}")
    lines += ["", "| tree | arm | s/epoch, median | epoch-4 final_bpr, max |",
              "| --- | --- | --- | --- |"]
    for tree, arm in groups:
        mine = [r for r in runs if (r["tree"], r["arm"]) == (tree, arm)]
        bpr = [r["final_bpr_epoch4"] for r in mine if r["final_bpr_epoch4"] is not None]
        lines.append(f"| {tree} | {arm} | {np.median([r['s_per_epoch'] for r in mine]):.2f} "
                     f"| {f'{max(bpr):.4f}' if bpr else '—'} |")
    return "\n".join(lines) + "\n"


def split_mismatch(runs) -> str:
    """'' if every run built the same split, else each tree's split hashes."""
    by_tree = {}
    for r in runs:
        by_tree.setdefault(r["tree"], set()).add((r["train_sha256"], r["test_sha256"]))
    if len(set().union(*by_tree.values())) == 1:
        return ""
    return "; ".join(f"{tree}: " + ", ".join(f"train {t[:12]} test {s[:12]}"
                                             for t, s in sorted(hashes))
                     for tree, hashes in by_tree.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out_dir")
    parser.add_argument("--tree", type=_tree, action="append", default=[],
                        metavar="NAME=PATH",
                        help="a source tree (default: this checkout); the first is "
                        "the reference")
    parser.add_argument("--arm", nargs="+", action="append", default=[],
                        metavar=("NAME", "KEY=VALUE"),
                        help="an arm: its name, then its config overrides")
    parser.add_argument("--data", default="", help="interaction TSV (default: synth)")
    parser.add_argument("--set", nargs="+", action="extend", default=[],
                        metavar="KEY=VALUE", help="overrides for every arm")
    parser.add_argument("--split-seed", type=int, default=0)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--jobs", type=int, default=1, help="runs at once")
    args = parser.parse_args(argv)

    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    trees = dict(args.tree or [("checkout", CHECKOUT)])
    arms = {}
    try:
        if len(trees) < len(args.tree):
            raise ConfigError("a tree name is given twice")
        for name, path in trees.items():
            if not os.path.isfile(os.path.join(path, "src", "chainrec", "__init__.py")):
                raise ConfigError(f"tree {name!r}: no src/chainrec under {path}")
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        base = {**_pairs(args.set, "--set"), "seed": args.split_seed}
        if args.data:
            base["data"] = os.path.abspath(args.data)
        cfg = make_config(overrides=base)
        for name, *items in args.arm or [["default"]]:
            if name in arms:
                raise ConfigError(f"arm {name!r} given twice")
            arms[name] = _pairs(items, f"arm {name}")
            fixed = sorted(FIXED_KEYS & arms[name].keys())
            if fixed:
                raise ConfigError(f"arm {name!r} sets {', '.join(fixed)}, which fix "
                                  f"the data, the split or the run; use --set")
            arm_cfg = make_config(overrides={**base, **arms[name]})
            make_schema(arm_cfg.relations, arm_cfg.target, arm_cfg.schema_order)
        if len(trees) * len(arms) < 2:
            raise ConfigError("give two trees or two arms; the first is the reference")
    except (ConfigError, SchemaError) as exc:
        parser.error(str(exc))

    os.makedirs(args.out_dir, exist_ok=True)
    if not cfg.data:
        cfg.data = os.path.abspath(os.path.join(args.out_dir, "synthetic.tsv"))
        write_synthetic(cfg, cfg.data)

    keys = [(tree, arm, seed) for seed in seeds for tree in trees for arm in arms]

    def one(key):
        tree, arm, seed = key
        overrides = {**base, **arms[arm], "data": cfg.data, "seed": seed,
                     "epochs": args.epochs, "eval_every": args.epochs, "ks": "10"}
        run = {"tree": tree, "arm": arm, "seed": seed, **launch(
            trees[tree], {"overrides": overrides, "split_seed": args.split_seed,
                          "applied": sorted(arms[arm])})}
        print(f"{tree} {arm} seed {seed}: R@10 {run['recall_at_10']:.6f} "
              f"N@10 {run['ndcg_at_10']:.6f} {run['s_per_epoch']:.2f} s/epoch", flush=True)
        return run

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        futures = [pool.submit(one, key) for key in keys]
        wait(futures, return_when=FIRST_EXCEPTION)
        failed = next((f for f in futures if f.done() and f.exception()), None)
        if failed is not None:
            # runs not yet started never start; the running ones finish
            pool.shutdown(cancel_futures=True)
            if not isinstance(failed.exception(), RuntimeError):
                failed.result()
            print(f"error: {failed.exception()}", file=sys.stderr)
            return 1
        runs = [f.result() for f in futures]

    groups = [(tree, arm) for tree in trees for arm in arms]
    summary = summarize(runs, groups, seeds)
    ref = runs[0]
    report = {"data": cfg.data, "split_seed": args.split_seed, "seeds": seeds,
              "epochs": args.epochs, "jobs": args.jobs, "set": base,
              "trees": [{"name": n, "path": p} for n, p in trees.items()],
              "arms": [{"name": n, "overrides": arms[n]} for n in arms],
              "split": {k: ref[k] for k in ("train_target_edges", "test_edges",
                                            "train_sha256", "test_sha256")},
              "runs": runs, "summary": summary}
    with open(os.path.join(args.out_dir, "paired_study.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    table = markdown(summary, runs, groups, seeds, args.jobs)
    with open(os.path.join(args.out_dir, "paired_study.md"), "w", encoding="utf-8") as fh:
        fh.write(table)
    print(table, end="")
    mismatch = split_mismatch(runs)
    if mismatch:
        print(f"error: the runs built different splits ({mismatch})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--run-one"]:
        print(json.dumps(run_one(json.load(sys.stdin))))
        sys.exit(0)
    sys.exit(main())
