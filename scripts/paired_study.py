"""Paired-seed study: train arms of config overrides on one fixed split with
the same training seeds, and compare each arm with the first, pair by pair.

    python scripts/paired_study.py out_dir \\
        --arm float64 dtype=float64 --arm float32 dtype=float32 \\
        [--data data.tsv] [--set KEY=VALUE ...] \\
        [--split-seed 0] [--seeds 1,2,3,4,5] [--epochs 10]

``--set`` overrides apply to every arm, and an arm is a name followed by its
own overrides; the first arm is the reference. The graph is read from
``--data``, or else generated by ``chainrec.synth`` from the ``--set`` config
with ``--split-seed`` as its seed. The train/test split is built once from
``--split-seed``, and ``training.train`` runs on it once per arm and seed,
with the seed as the training seed. Each run is scored once, at its last
epoch, so no epoch is chosen by test.

An arm may set ``order``, the chain order: it trains on the graph under its
own schema, on the same split, so the relation-order study is six arms.

Writes out_dir/paired_study.json (per arm and seed: R@10, N@10 and wall
seconds per epoch, the one evaluation pass included) and
out_dir/paired_study.md: the median per arm, the paired differences against
the reference with quartiles, wins, losses and ties, the worst pair as a
share of the reference's value, and a two-sided sign-test p.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from chainrec import load_interactions, make_config, make_schema, split_train_test
from chainrec import training
from chainrec.config import ConfigError
from chainrec.graph import SchemaError
from chainrec.synth import write_synthetic

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


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p of ``wins`` against ``losses`` (ties dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n
    return min(1.0, 2.0 * tail)


def summarize(runs, arms, seeds) -> dict:
    """Per arm and metric: the median; for every arm after the first, the
    paired differences against the first arm."""
    value = {(r["arm"], r["seed"]): r for r in runs}
    ref = arms[0]
    out = {}
    for arm in arms:
        out[arm] = {}
        for metric in METRICS:
            got = np.asarray([value[arm, s][metric] for s in seeds])
            entry = {"median": float(np.median(got))}
            if arm != ref:
                base = np.asarray([value[ref, s][metric] for s in seeds])
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
            out[arm][metric] = entry
    return out


def markdown(summary, arms, seeds) -> str:
    lines = [f"Paired study: {len(seeds)} training seeds, reference arm "
             f"`{arms[0]}`.", "",
             "| arm | metric | median | paired diff, median [q1, q3] | "
             "median diff / ref | worst pair / ref | wins-losses-ties | sign p |",
             "| --- | --- | --- | --- | --- | --- | --- | --- |"]
    for arm in arms:
        for metric in METRICS:
            e = summary[arm][metric]
            if arm == arms[0]:
                rest = "| — | — | — | — | — |"
            else:
                rest = (f"| {e['diff_median']:+.6f} [{e['diff_q1']:+.6f}, "
                        f"{e['diff_q3']:+.6f}] | {100 * e['diff_median_rel']:+.2f}% "
                        f"| {100 * e['worst_pair_rel']:+.2f}% "
                        f"| {e['wins']}-{e['losses']}-{e['ties']} | {e['sign_p']:.3f} |")
            lines.append(f"| {arm} | {metric} | {e['median']:.6f} {rest}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out_dir")
    parser.add_argument("--arm", nargs="+", action="append", required=True,
                        metavar=("NAME", "KEY=VALUE"),
                        help="an arm: its name, then its config overrides")
    parser.add_argument("--data", default="", help="interaction TSV (default: synth)")
    parser.add_argument("--set", nargs="+", action="extend", default=[],
                        metavar="KEY=VALUE", help="overrides for every arm")
    parser.add_argument("--split-seed", type=int, default=0)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--epochs", type=int, default=10)
    args = parser.parse_args(argv)

    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    arms, schemas = {}, {}
    try:
        base = {**_pairs(args.set, "--set"), "seed": args.split_seed}
        if args.data:
            base["data"] = args.data
        cfg = make_config(overrides=base)
        for name, *items in args.arm:
            if name in arms:
                raise ConfigError(f"arm {name!r} given twice")
            arms[name] = _pairs(items, f"arm {name}")
            fixed = sorted(FIXED_KEYS & arms[name].keys())
            if fixed:
                raise ConfigError(f"arm {name!r} sets {', '.join(fixed)}, which fix "
                                  f"the data, the split or the run; use --set")
            arm_cfg = make_config(overrides={**base, **arms[name]})
            schemas[name] = make_schema(arm_cfg.relations, arm_cfg.target,
                                        arm_cfg.schema_order)
        if len(arms) < 2:
            raise ConfigError("give at least two arms; the first is the reference")
    except (ConfigError, SchemaError) as exc:
        parser.error(str(exc))

    os.makedirs(args.out_dir, exist_ok=True)
    if not cfg.data:
        cfg.data = os.path.join(args.out_dir, "synthetic.tsv")
        write_synthetic(cfg, cfg.data)
    # the graph's order is a placeholder: each arm trains under its own schema
    graph = load_interactions(cfg.data, make_schema(cfg.relations, cfg.target))
    split = split_train_test(graph, cfg.ratio, args.split_seed)

    runs = []
    for seed in seeds:
        for name, overrides in arms.items():
            run_cfg = make_config(overrides={
                **base, **overrides, "data": cfg.data, "seed": seed,
                "epochs": args.epochs, "eval_every": args.epochs, "ks": "10"})
            t0 = time.perf_counter()
            result = training.train(dataclasses.replace(graph, schema=schemas[name]),
                                    split, run_cfg)
            seconds = time.perf_counter() - t0
            last = [r for r in result.history if r["type"] == "eval"][-1]
            runs.append({"arm": name, "seed": seed, "epoch": last["epoch"],
                         "recall_at_10": last["recall"]["10"],
                         "ndcg_at_10": last["ndcg"]["10"],
                         "s_per_epoch": seconds / args.epochs})
            print(f"{name} seed {seed}: R@10 {runs[-1]['recall_at_10']:.6f} "
                  f"N@10 {runs[-1]['ndcg_at_10']:.6f} "
                  f"{runs[-1]['s_per_epoch']:.2f} s/epoch", flush=True)

    names = list(arms)
    summary = summarize(runs, names, seeds)
    report = {"data": cfg.data, "split_seed": args.split_seed, "seeds": seeds,
              "epochs": args.epochs, "set": base,
              "arms": [{"name": n, "overrides": arms[n]} for n in names],
              "split": {"train_target_edges": int(split.train_pairs(cfg.target)[0].size),
                        "test_edges": int(split.test_edges[0].size)},
              "runs": runs, "summary": summary}
    with open(os.path.join(args.out_dir, "paired_study.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    table = markdown(summary, names, seeds)
    with open(os.path.join(args.out_dir, "paired_study.md"), "w", encoding="utf-8") as fh:
        fh.write(table)
    print(table, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
