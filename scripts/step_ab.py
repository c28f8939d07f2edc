"""Training steps or evaluation passes of two source trees, interleaved in
one process.

    python scripts/step_ab.py --tree parent=../parent --tree change=. \\
        [--graph retail|demo|tiny|four] [--phase train|eval] [--seed 1200] \\
        [--steps 60] [--warmup 5]

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

Both trees run on the same graph: the first tree's ``chainrec.synth``
writes the TSV of the graph named by ``--graph`` once, with ``--seed``,
and each tree loads it, splits it and builds its model, initial
parameters, sampler and Adam state with that seed, as a perfbench run
does. The graphs are the ``GRAPHS`` table of perfbench/workloads.py plus
``four``, a demo-size graph on four relations with the schema of
configs/yelp.cfg, which no perfbench workload covers.

``--phase train`` (the default) times training steps: a batch from the
sampler, ``training.backward`` and ``adam_step``. ``--phase eval`` times
evaluation passes on the initial parameters, as perfbench's retail-eval
times them from its checkpoint: the untaped forward
(``model.final_embeddings``), then the full-catalog ranking
(``evaluation.evaluate`` on the split), each timed apart.

Prints each tree's median step or pass, the median over rounds of the
second tree's time over the first's, the share of rounds the second tree
won (for a pass also its forward and its ranking alone), whether the two
trees' loss sequences (or rankings) are byte-identical, and the BLAS
thread count (OpenBLAS's own, where numpy's bundled library reports it).
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
MODULES = ("config", "evaluation", "graph", "model", "synth", "training")
# the timed parts of one round of each phase; the last is the whole unit
PARTS = {"train": ("step",), "eval": ("forward", "ranking", "pass")}


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


# demo size; relations and target as in configs/yelp.cfg
FOUR = {"relations": ("tips", "neutral", "dislike", "like"), "target": "like"}
GRAPHS = {**perfbench_graphs(), "four": FOUR}


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
    """One tree's model and initial parameters on the shared TSV, and for
    training its sampler and optimizer state."""

    def __init__(self, mods, tsv: str, overrides: dict, phase: str):
        self.mods = mods
        cfg = self.cfg = mods.config.make_config(overrides=overrides)
        g = mods.graph
        self.graph = g.load_interactions(tsv, g.make_schema(cfg.relations, cfg.target,
                                                            cfg.schema_order))
        self.split = g.split_train_test(self.graph, cfg.ratio, cfg.seed)
        self.model = mods.model.DualChannelModel(g.training_graph(self.graph, self.split),
                                                 cfg)
        self.params = self.model.init_params(cfg.seed)
        if phase == "train":
            self.state = mods.training.AdamState.init(self.params)
            self.sampler = mods.training.TripleSampler(self.model, self.split, cfg.seed)
            self.batches = self._endless(cfg.batch)
        self.run = self.step if phase == "train" else self.eval_pass
        self.times = {part: [] for part in PARTS[phase]}
        self.outputs = []   # each step's loss, or each pass's ranking

    def _endless(self, batch: int):
        while True:
            yield from self.sampler.epoch_batches(batch)

    def step(self, record: bool) -> None:
        t0 = time.perf_counter()
        grads, breakdown = self.mods.training.backward(self.model, self.params,
                                                       next(self.batches))
        self.mods.training.adam_step(self.params, grads, self.state, self.cfg.lr)
        dt = time.perf_counter() - t0
        if record:
            self.times["step"].append(dt)
            self.outputs.append(breakdown["total"])

    def eval_pass(self, record: bool) -> None:
        t0 = time.perf_counter()
        e_final = self.model.final_embeddings(self.params)
        t1 = time.perf_counter()
        result = self.mods.evaluation.evaluate(e_final, self.graph, self.split,
                                               ks=self.cfg.ks)
        t2 = time.perf_counter()
        if record:
            for part, dt in zip(PARTS["eval"], (t1 - t0, t2 - t1, t2 - t0)):
                self.times[part].append(dt)
            self.outputs.append(b"".join(np.asarray(a).tobytes()
                                         for a in [result.users, *result.top_items]))


def paired(names: tuple, ref: list, new: list) -> dict:
    """Each tree's median in ms, the median over rounds of the second
    tree's time over the first's, and the share of rounds it was faster."""
    ref, new = np.asarray(ref), np.asarray(new)
    return {"median_ms": {names[0]: float(np.median(ref)) * 1e3,
                          names[1]: float(np.median(new)) * 1e3},
            "ratio_median": float(np.median(new / ref)),
            "won": float(np.mean(new < ref))}


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
    parser.add_argument("--phase", choices=sorted(PARTS), default="train",
                        help="time training steps or evaluation passes")
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
        steppers = [Stepper(m, tsv, overrides, args.phase) for m in mods]
    gc.collect()
    for i in range(args.warmup + args.steps):
        for s in (steppers if i % 2 == 0 else steppers[::-1]):
            s.run(record=i >= args.warmup)

    names = tuple(name for name, _ in args.tree)
    *parts, whole = PARTS[args.phase]
    ref, new = steppers
    result = {"graph": args.graph, "phase": args.phase, "seed": args.seed,
              "steps": args.steps, "blas_threads": blas_threads(),
              **paired(names, ref.times[whole], new.times[whole]),
              "parts": {p: paired(names, ref.times[p], new.times[p]) for p in parts},
              "identical": [np.asarray(o).tobytes() for o in ref.outputs]
              == [np.asarray(o).tobytes() for o in new.outputs]}
    if args.phase == "train":
        result["losses"] = {names[0]: ref.outputs, names[1]: new.outputs}
    print(f"graph {args.graph}, phase {args.phase}, seed {args.seed}, {args.steps} rounds "
          f"after {args.warmup} warm-up, BLAS threads {result['blas_threads'] or 'unknown'}")
    for label, r in [(whole, result), *result["parts"].items()]:
        medians = ", ".join(f"{n} {ms:.2f} ms" for n, ms in r["median_ms"].items())
        print(f"{label}: median {medians}; {names[1]} / {names[0]}: median paired ratio "
              f"{r['ratio_median']:.3f}, {names[1]} faster in {100 * r['won']:.0f}% of rounds")
    what = "loss sequences" if args.phase == "train" else "rankings"
    print(f"{what} byte-identical: {'yes' if result['identical'] else 'NO'}")
    return result


if __name__ == "__main__":
    main()
