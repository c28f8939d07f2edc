"""Self-test of the benchmark on a tiny synthetic graph; takes seconds.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json untraced and traced on a 100-node
graph and checks that each run is correct and emits every metric that
BENCHMARK.json names, with its unit and a finite value (end-to-end values
nonzero), that the traced run's exact counts repeat in a second run, and
that tracing leaves chainrec's functions as it found them.
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from chainrec import autodiff, backend  # noqa: E402
from spans import PLAIN  # noqa: E402

SEED = 3
SECONDS = 3


def check_line(line, expected, nonzero, where):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, where
    assert line["correct"] is True and line["failed"] == 0, (where, line)
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1, where
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == expected, (where, set(got) ^ set(expected))
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}, (where, name)
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (where, name)
        assert value != 0 or not nonzero, (where, name)
    json.dumps(line, allow_nan=False)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(workloads.WORKLOADS), names
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == {k: v[3] for k, v in workloads.PER_LAYER.items()}

    originals = [(o, a, o.__dict__[a]) for o, a, _ in PLAIN]
    originals += [(backend, "spmm", backend.spmm), (autodiff, "spmm", autodiff.spmm),
                  (autodiff, "backward", autodiff.backward),
                  (autodiff.Var, "__init__", autodiff.Var.__dict__["__init__"])]
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    for name in names:
        for trace in (0, 1):
            line, details = workloads.run(name, SEED, SECONDS, bool(trace), out_dir,
                                          graph="tiny")
            where = f"{name} trace={trace}"
            check_line(line, per_layer if trace else end_to_end, not trace, where)
            assert details["checks"].get("topk_sample", 0) > 0, where
            if name == "demo-train":
                assert details["checks"]["epoch_loss"] == "match", details["checks"]
            if trace:
                again, _ = workloads.run(name, SEED, SECONDS, True, out_dir,
                                         graph="tiny")
                for metric, (kind, key, _, _) in workloads.PER_LAYER.items():
                    if key in workloads.EXACT_COUNTS:
                        assert (line["metrics"][metric]["value"]
                                == again["metrics"][metric]["value"]), (where, metric)
            for owner, attr, fn in originals:
                assert owner.__dict__[attr] is fn, (where, attr)
            print(f"ok {where}: {len(line['metrics'])} metrics")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
