"""Training steps of two source trees, interleaved in one process.

    python scripts/step_ab.py --tree parent=../parent --tree change=. \\
        [--graph retail|demo|tiny] [--seed 1200] [--steps 60] [--warmup 5]

Separate runs of one tree can read step medians a third apart on a shared
machine, so they cannot show a change of a few percent. Here each tree's
``chainrec`` is imported from ``PATH/src`` as its own module set, and the
two trees take training steps in turn, in one process: the same BLAS
threads, the same heap and the same moment of machine load. Each round
runs one step of each tree, the order flipping every round. (Two
subprocesses stepping in lockstep would keep the heaps apart, but each
step would pay a pipe round trip, and the two processes' allocators and
caches would still differ; one process keeps the comparison to the
code.)

Both trees train on the same graph: the first tree's ``chainrec.synth``
writes the TSV of the perfbench graph named by ``--graph`` (a key of the
``GRAPHS`` table in perfbench/workloads.py) once, with ``--seed``, and
each tree loads it, splits it and builds its model, sampler and Adam
state with that seed, as a perfbench run does. A step is a batch from the
sampler, ``training.backward`` and ``adam_step``.

Prints each tree's median step, the median over rounds of the second
tree's step time over the first's, the share of rounds the second tree
won, and the BLAS thread count (OpenBLAS's own, where numpy's bundled
library reports it).
"""

import argparse
import ast
import ctypes
import gc
import glob
import importlib
import os
import sys
import tempfile
import time
from types import SimpleNamespace

import numpy as np

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "workloads.py")
MODULES = ("config", "graph", "model", "synth", "training")


def _is_chainrec(name: str) -> bool:
    return name == "chainrec" or name.startswith("chainrec.")


def perfbench_graphs() -> dict:
    """The ``GRAPHS`` literal of perfbench/workloads.py, read from its
    source: importing that module would load a ``chainrec`` before
    :func:`load_tree` runs."""
    with open(WORKLOADS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "GRAPHS" for t in node.targets))


GRAPHS = perfbench_graphs()


def load_tree(path: str) -> SimpleNamespace:
    """The modules of ``PATH/src/chainrec``, imported apart from any other
    ``chainrec`` this process holds, which is restored afterwards."""
    src = os.path.join(os.path.abspath(path), "src")
    if not os.path.isfile(os.path.join(src, "chainrec", "__init__.py")):
        raise SystemExit(f"error: no src/chainrec under {path!r}")
    held = {k: sys.modules.pop(k) for k in list(sys.modules) if _is_chainrec(k)}
    sys.path.insert(0, src)
    try:
        return SimpleNamespace(**{m: importlib.import_module(f"chainrec.{m}")
                                  for m in MODULES})
    finally:
        sys.path.remove(src)
        for k in [k for k in sys.modules if _is_chainrec(k)]:
            del sys.modules[k]
        sys.modules.update(held)


def blas_threads():
    """OpenBLAS's thread count from numpy's bundled library, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            return int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return None


class Stepper:
    """One tree's model, sampler and optimizer state on the shared TSV."""

    def __init__(self, mods, tsv: str, overrides: dict):
        self.mods = mods
        cfg = mods.config.make_config(overrides=overrides)
        g = mods.graph
        graph = g.load_interactions(tsv, g.make_schema(cfg.relations, cfg.target,
                                                       cfg.schema_order))
        split = g.split_train_test(graph, cfg.ratio, cfg.seed)
        self.model = mods.model.DualChannelModel(g.training_graph(graph, split), cfg)
        self.params = self.model.init_params(cfg.seed)
        self.state = mods.training.AdamState.init(self.params)
        self.sampler = mods.training.TripleSampler(self.model, split, cfg.seed)
        self.lr = cfg.lr
        self.batches = self._endless(cfg.batch)
        self.times, self.losses = [], []

    def _endless(self, batch: int):
        while True:
            yield from self.sampler.epoch_batches(batch)

    def step(self, record: bool) -> None:
        t0 = time.perf_counter()
        grads, breakdown = self.mods.training.backward(self.model, self.params,
                                                       next(self.batches))
        self.mods.training.adam_step(self.params, grads, self.state, self.lr)
        dt = time.perf_counter() - t0
        if record:
            self.times.append(dt)
            self.losses.append(breakdown["total"])


def _tree(item: str) -> tuple:
    name, sep, path = item.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {item!r}")
    return name, path


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tree", type=_tree, action="append", required=True,
                        metavar="NAME=PATH", help="a source tree; give two, the first "
                        "is the reference")
    parser.add_argument("--graph", choices=sorted(GRAPHS), default="retail")
    parser.add_argument("--seed", type=int, default=1200,
                        help="synth, split, initialization and sampling seed")
    parser.add_argument("--steps", type=int, default=60, help="timed rounds")
    parser.add_argument("--warmup", type=int, default=5, help="untimed rounds first")
    args = parser.parse_args(argv)
    if len(args.tree) != 2 or args.tree[0][0] == args.tree[1][0]:
        parser.error("give --tree twice, with two names")

    mods = [load_tree(path) for _, path in args.tree]
    overrides = {**GRAPHS[args.graph], "seed": args.seed}
    with tempfile.TemporaryDirectory() as tmp:
        tsv = os.path.join(tmp, "graph.tsv")
        mods[0].synth.write_synthetic(mods[0].config.make_config(overrides=overrides), tsv)
        steppers = [Stepper(m, tsv, overrides) for m in mods]
    gc.collect()
    for i in range(args.warmup + args.steps):
        for s in (steppers if i % 2 == 0 else steppers[::-1]):
            s.step(record=i >= args.warmup)

    (ref_name, _), (new_name, _) = args.tree
    ref, new = (np.asarray(s.times) for s in steppers)
    ratio = new / ref
    result = {"graph": args.graph, "seed": args.seed, "steps": args.steps,
              "blas_threads": blas_threads(),
              "median_ms": {ref_name: float(np.median(ref)) * 1e3,
                            new_name: float(np.median(new)) * 1e3},
              "ratio_median": float(np.median(ratio)),
              "won": float(np.mean(new < ref)),
              "losses": {ref_name: steppers[0].losses, new_name: steppers[1].losses}}
    print(f"graph {args.graph}, seed {args.seed}, {args.steps} rounds after "
          f"{args.warmup} warm-up, BLAS threads {result['blas_threads'] or 'unknown'}")
    for name in (ref_name, new_name):
        print(f"{name}: median step {result['median_ms'][name]:.2f} ms")
    print(f"{new_name} / {ref_name}: median paired ratio {result['ratio_median']:.3f}, "
          f"{new_name} faster in {100 * result['won']:.0f}% of rounds")
    return result


if __name__ == "__main__":
    main()
