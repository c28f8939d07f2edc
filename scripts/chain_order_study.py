"""Run the six relation-order configurations on one dataset and compare.

    python scripts/chain_order_study.py data.tsv out_dir [--epochs 20] ...

Trains one model per chain order (C1..C6 over view/cart/buy, each passed
as ``--order``, which may place the target anywhere), collects the best
R@10 of each, writes out_dir/chain_order_study.csv, and prints the
comparison. Orders ending at the target relation are expected to win, but
the outcome is reported, not enforced.
"""

import argparse
import json
import os
import sys

from chainrec.cli import main as cli_main

ORDERS = [
    ("C1", "buy,view,cart"),
    ("C2", "buy,cart,view"),
    ("C3", "view,buy,cart"),
    ("C4", "cart,buy,view"),
    ("C5", "cart,view,buy"),
    ("C6", "view,cart,buy"),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("data")
    parser.add_argument("out_dir")
    parser.add_argument("--epochs", default="20")
    parser.add_argument("--dim", default="32")
    parser.add_argument("--batch", default="128")
    parser.add_argument("--seed", default="0")
    args = parser.parse_args()

    rows = []
    for label, order in ORDERS:
        run_dir = os.path.join(args.out_dir, f"run_{label}")
        code = cli_main(["train", "--data", args.data, "--out", run_dir,
                         "--order", order, "--epochs", args.epochs,
                         "--dim", args.dim, "--batch", args.batch,
                         "--seed", args.seed, "--eval-every", args.epochs,
                         "--patience", "1000000"])
        if code != 0:
            sys.exit(code)
        with open(os.path.join(run_dir, "metrics.jsonl"), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        r10 = max(r["recall"]["10"] for r in records if r["type"] == "eval")
        rows.append((label, order, r10))
        print(f"{label} ({order}): R@10 {r10:.4f}")

    csv_path = os.path.join(args.out_dir, "chain_order_study.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("config,order,recall_at_10\n")
        for label, order, r10 in rows:
            fh.write(f"{label},{order.replace(',', '->')},{r10}\n")
    best = max(rows, key=lambda r: r[2])
    print(f"best: {best[0]} ({best[1]}) R@10 {best[2]:.4f}; CSV: {csv_path}")


if __name__ == "__main__":
    main()
