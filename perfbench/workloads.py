"""The benchmark's workloads: graph generation, set-up, the closed-loop
training steps and evaluation passes, correctness checks and metrics.

Every call into chainrec goes through a public function, looked up on its
module at call time (``training.backward``, ``evaluation.sparsity_groups``,
...) so that the traced run's wrappers see it.
"""

import math
import os
import resource
import time
from collections import Counter
from dataclasses import dataclass, replace
from statistics import median

import numpy as np

from chainrec import (TrainingAbort, evaluation, load_interactions,
                      make_config, make_schema, patterns, split_train_test,
                      training)
from chainrec import autodiff as ad
from chainrec.checkpoint import load_checkpoint, save_checkpoint
from chainrec.config import save_config
from chainrec.graph import training_graph
from chainrec.model import DualChannelModel
from chainrec.synth import write_synthetic

from spans import Tracer

# Config overrides per graph. "demo" is the synth defaults and the default
# config. "retail" is the retail-like graph (about 28.2k nodes, 99k lines,
# about Retail's size). It holds out half of its target edges instead of a
# quarter: with 4,400 test edges, recall@10 and ndcg@10 varied by 12-24%
# across seeds (interquartile range over 10 seeds), and 8,800 narrow that.
# "tiny" is for the self-test only.
GRAPHS = {
    "demo": {},
    "retail": {"synth_users": 2200, "synth_items": 30000, "synth_clusters": 200,
               "synth_views": 25, "synth_carts": 12, "synth_buys": 8,
               "ratio": 0.5},
    "tiny": {"synth_users": 40, "synth_items": 60, "synth_clusters": 4,
             "synth_views": 8, "synth_carts": 5, "synth_buys": 4},
}

# run lengths are counts, not deadlines, so that a faster program runs the
# same trajectory and reports the same quality; they scale with --seconds,
# and at 30 a whole run takes 20 to 45 s on a 2-core machine
REFERENCE_SECONDS = 30
SETUP_REPS = 5
TOPK_SAMPLE = 16


@dataclass(frozen=True)
class Workload:
    graph: str
    steps: int          # measured training steps at REFERENCE_SECONDS
    passes: int         # measured evaluation passes at REFERENCE_SECONDS
    from_checkpoint: bool   # evaluate a checkpoint, then train a few steps

    @property
    def primary(self) -> str:
        """The unit per-layer metrics are taken per."""
        return "pass" if self.from_checkpoint else "step"

    def scaled(self, count: int, seconds: float) -> int:
        return max(2, round(count * seconds / REFERENCE_SECONDS))


WORKLOADS = {
    "demo-train": Workload("demo", steps=100, passes=20, from_checkpoint=False),
    "retail-train": Workload("retail", steps=16, passes=6, from_checkpoint=False),
    "retail-eval": Workload("retail", steps=4, passes=10, from_checkpoint=True),
}

# per-layer metric -> (how it is derived, span or counter key, scale, unit)
PER_LAYER = {
    "graph.load_s": ("span", "graph.load", 1.0, "s"),
    "graph.split_s": ("span", "graph.split", 1.0, "s"),
    "model.build_s": ("span", "model.build", 1.0, "s"),
    "training.sampler_build_s": ("span", "training.sampler_build", 1.0, "s"),
    "checkpoint.load_s": ("span", "checkpoint.load", 1.0, "s"),
    "model.forward_ms": ("total", "model.forward", 1e3, "ms"),
    "autodiff.backward_ms": ("total", "autodiff.backward", 1e3, "ms"),
    "autodiff.backward_self_ms": ("self", "autodiff.backward", 1e3, "ms"),
    "training.sample_ms": ("total", "training.sample", 1e3, "ms"),
    "training.adam_ms": ("total", "training.adam", 1e3, "ms"),
    "patterns.local_ms": ("total", "patterns.local", 1e3, "ms"),
    "patterns.global_ms": ("total", "patterns.global", 1e3, "ms"),
    "model.relation_ms": ("total", "model.relation", 1e3, "ms"),
    "chains.forward_ms": ("total", "chains.forward", 1e3, "ms"),
    "contrastive.forward_ms": ("total", "contrastive.forward", 1e3, "ms"),
    "patterns.local_bwd_ms": ("counter", "patterns.local.bwd_s", 1e3, "ms"),
    "patterns.global_bwd_ms": ("counter", "patterns.global.bwd_s", 1e3, "ms"),
    "model.relation_bwd_ms": ("counter", "model.relation.bwd_s", 1e3, "ms"),
    "chains.bwd_ms": ("counter", "chains.forward.bwd_s", 1e3, "ms"),
    "contrastive.bwd_ms": ("counter", "contrastive.forward.bwd_s", 1e3, "ms"),
    "patterns.global_isolated_ms": ("extra", "global_isolated_s", 1e3, "ms"),
    "patterns.global_isolated_taped_ms": ("extra", "global_isolated_taped_s",
                                          1e3, "ms"),
    "backend.spmm_fwd_ms": ("total", "backend.spmm_fwd", 1e3, "ms"),
    "backend.spmm_bwd_ms": ("total", "backend.spmm_bwd", 1e3, "ms"),
    "backend.spmm_grad_vals_ms": ("total", "backend.spmm_grad_vals", 1e3, "ms"),
    "backend.scatter_add_rows_ms": ("total", "backend.scatter_add_rows", 1e3, "ms"),
    "backend.segment_sum_ms": ("total", "backend.segment_sum", 1e3, "ms"),
    "autodiff.ops_per_step": ("counter", "autodiff.ops", 1.0, "count"),
    "backend.spmm_calls": ("counter", "backend.spmm_calls", 1.0, "count"),
    "backend.spmm_madds": ("counter", "backend.spmm_madds", 1.0, "count"),
    "backend.spmm_bytes": ("counter", "backend.spmm_bytes", 1.0, "B"),
    "backend.spmm_grad_vals_calls": ("counter", "backend.spmm_grad_vals_calls",
                                     1.0, "count"),
    "backend.scatter_add_rows_calls": ("counter", "backend.scatter_add_rows_calls",
                                       1.0, "count"),
    "backend.segment_sum_calls": ("counter", "backend.segment_sum_calls", 1.0, "count"),
    "model.infer_forward_s": ("total", "model.infer_forward", 1.0, "s"),
    "evaluation.rank_s": ("total", "evaluation.rank", 1.0, "s"),
    "evaluation.groups_s": ("total", "evaluation.groups", 1.0, "s"),
    "trace.overhead_ms": ("extra", "overhead_s", 1e3, "ms"),
}
EXACT_COUNTS = [key for kind, key, _, unit in PER_LAYER.values()
                if kind == "counter" and unit != "ms"]


class Run:
    """State of one benchmark run: the model under test, timings, checks."""

    def __init__(self, name, seed, trace, out_dir, graph=None):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.cfg = make_config(overrides={**GRAPHS[graph or self.wl.graph],
                                          "seed": seed})
        self.stem = os.path.join(out_dir, f"{name}-seed{seed}-{os.getpid()}")
        self.tsv = self.manifest = self.ckpt = None
        self.tracer = Tracer(trace)
        self.durations = {"step": [], "pass": []}   # (seconds, traced)
        self.triples = 0
        self.breakdowns = []
        self.reference = None   # first pass on the current parameters
        self.last_result = None
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.setup_s = []
        self.extra = {}

    # ------------------------------------------------------------------
    # inputs and set-up
    # ------------------------------------------------------------------

    def make_inputs(self) -> None:
        """The generated TSV (and, for retail-eval, a checkpoint of the
        seed's initial parameters); written before anything is timed."""
        self.tsv = self.stem + ".tsv"
        self.manifest = write_synthetic(self.cfg, self.tsv)
        if self.wl.from_checkpoint:
            graph, split, train_graph = self._load()
            model = DualChannelModel(train_graph, self.cfg)
            params = model.init_params(self.cfg.seed)
            cfg_path = self.stem + ".cfg"
            save_config(self.cfg, cfg_path)
            with open(cfg_path, encoding="utf-8") as fh:
                cfg_text = fh.read()
            self.ckpt = self.stem + ".npz"
            save_checkpoint(self.ckpt, params, training.AdamState.init(params),
                            cfg_text, {"dim": self.cfg.dim, "epoch": 0}, {})

    def _load(self):
        cfg = self.cfg
        schema = make_schema(cfg.relations, cfg.target, cfg.schema_order)
        with self.tracer.span("graph.load"):
            graph = load_interactions(self.tsv, schema)
        with self.tracer.span("graph.split"):
            split = split_train_test(graph, cfg.ratio, cfg.seed)
            train_graph = training_graph(graph, split)
        return graph, split, train_graph

    def setup(self) -> None:
        """Everything a run does before its first step or pass, repeated
        ``SETUP_REPS`` times; the last repetition's objects are kept."""
        cfg = self.cfg
        for rep in range(SETUP_REPS):
            self.graph = self.split = self.model = self.params = None
            self.state = self.sampler = None
            self.tracer.unit = f"setup:{rep}"
            t0 = time.perf_counter()
            self.graph, self.split, train_graph = self._load()
            with self.tracer.span("model.build"):
                self.model = DualChannelModel(train_graph, cfg)
                if not self.wl.from_checkpoint:
                    self.params = self.model.init_params(cfg.seed)
                    self.state = training.AdamState.init(self.params)
            if self.wl.from_checkpoint:
                with self.tracer.span("checkpoint.load"):
                    ckpt = load_checkpoint(self.ckpt)
                self.params, self.state = ckpt["params"], ckpt["state"]
            else:
                self.build_sampler()
            self.setup_s.append(time.perf_counter() - t0)

    def build_sampler(self) -> None:
        with self.tracer.span("training.sampler_build"):
            self.sampler = training.TripleSampler(self.model, self.split,
                                                  self.cfg.seed,
                                                  neg_cap=self.cfg.neg_cap)

    # ------------------------------------------------------------------
    # closed loops
    # ------------------------------------------------------------------

    def _unit(self, kind, i, traced):
        if traced:
            self.tracer.start_unit(f"{kind}:{i}")
            self.tracer.install()

    def train_steps(self, count: int, passes: int = 0) -> None:
        """One warm-up step, then ``count`` measured steps. ``passes``
        evaluation passes are spread evenly among the steps, the last one
        after the final step, so that pass times sample the whole run. In a
        traced run every other step is traced, so traced and untraced step
        times come from the same process."""
        batches = _endless(self.sampler, self.cfg.batch)
        pass_after = Counter(round(count * (j + 1) / passes) for j in range(passes))
        self.attempted += count + 1
        for i in range(count + 1):
            traced = self.tracer.enabled and i % 2 == 1
            self._unit("step", i, traced)
            t0 = time.perf_counter()
            try:
                with self.tracer.span("step"):
                    with self.tracer.span("training.sample"):
                        batch = next(batches)
                    grads, breakdown = training.backward(self.model, self.params,
                                                         batch)
                    training.adam_step(self.params, grads, self.state, self.cfg.lr)
            except TrainingAbort as exc:
                self.failed += count + 1 - i
                self.checks["training_abort"] = str(exc)
                return
            finally:
                dt = time.perf_counter() - t0
                self.tracer.uninstall()
            self.reference = None
            self.breakdowns.append(breakdown)
            if not all(math.isfinite(v) for v in breakdown.values()):
                self.failed += 1
                self.checks.setdefault("nonfinite_loss_steps", []).append(i)
            if i > 0:
                self.durations["step"].append((dt, traced))
                self.triples += len(batch.users)
            self.eval_passes(pass_after[i])

    def eval_passes(self, count: int) -> None:
        """Full evaluation passes as ``chainrec evaluate`` runs them: untaped
        final embeddings, full-catalog ranking, sparsity groups. Passes on
        the same parameters must rank identically."""
        cfg = self.cfg
        for _ in range(count):
            i = len(self.durations["pass"])
            traced = self.tracer.enabled and i % 2 == 0
            self._unit("pass", i, traced)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                with self.tracer.span("pass"):
                    result = training.evaluate_model(self.model, self.params,
                                                     self.graph, self.split, cfg.ks)
                    groups = evaluation.sparsity_groups(result, self.model.graph,
                                                        self.split)
            finally:
                dt = time.perf_counter() - t0
                self.tracer.uninstall()
            self.durations["pass"].append((dt, traced))
            ok = _pass_consistent(result, groups)
            if self.reference is None:
                self.reference = result
            else:
                ok = ok and _same_ranking(self.reference, result)
            if not ok:
                self.failed += 1
                self.checks.setdefault("inconsistent_passes", []).append(i)
            self.last_result = result

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------

    def check_topk(self) -> None:
        """Top-K lists of the last pass against a full sort of the catalog
        (``evaluation.rank_items``) on a seeded sample of test users."""
        result = self.last_result
        e_final = self.model.final_embeddings(self.params)
        num_users = self.graph.num_users
        su, sv = self.split.train_pairs(self.graph.schema.target)
        rng = np.random.default_rng(self.seed)
        n = len(result.users)
        sample = rng.choice(n, size=min(TOPK_SAMPLE, n), replace=False)
        bad = []
        for i in sample:
            u = int(result.users[i])
            full = evaluation.rank_items(e_final, num_users, u, exclude=sv[su == u])
            top = result.top_items[i]
            if not np.array_equal(full[:len(top)], top):
                bad.append(u)
        self.checks["topk_sample"] = len(sample)
        if bad:
            self.checks["topk_mismatch_users"] = bad
            self.failed += 1

    def check_epoch_loss(self) -> None:
        """The step loop's epoch-1 loss record must equal the one
        ``training.train()`` writes, bit for bit."""
        per_epoch = math.ceil(len(self.sampler.target_u) / self.cfg.batch)
        if len(self.breakdowns) < per_epoch:
            self.checks["epoch_loss"] = "skipped: run shorter than one epoch"
            return
        sums = {}
        for breakdown in self.breakdowns[:per_epoch]:
            for key, value in breakdown.items():
                sums[key] = sums.get(key, 0.0) + value
        means = {k: v / per_epoch for k, v in sums.items()}
        mine = {"type": "loss", "epoch": 1, **{k: means[k] for k in sorted(means)}}
        cfg = replace(self.cfg, epochs=1)
        ref = training.train(self.graph, self.split, cfg).history[0]
        if mine == ref:
            self.checks["epoch_loss"] = "match"
        else:
            self.checks["epoch_loss"] = {"loop": mine, "train": ref}
            self.failed += per_epoch

    # ------------------------------------------------------------------
    # isolated global channel (traced run only)
    # ------------------------------------------------------------------

    def time_global_isolated(self, reps: int = 5) -> None:
        """The global channel alone on the run's current parameters: the
        untaped forward, and the taped forward plus its backward."""
        cfg, p = self.cfg, self.params.tensors
        base = p["base_global"] if cfg.separate_base else p["base"]
        plain, taped = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            b_mat = ad.mul(self.model.counts, ad.softplus(p["global_logits"]))
            patterns.propagate_global_factored(b_mat, base, cfg.layers,
                                               mode=cfg.glo_norm)
            plain.append(time.perf_counter() - t0)
            base_v, logits_v = ad.Var(base), ad.Var(p["global_logits"])
            t0 = time.perf_counter()
            b_mat = ad.mul(self.model.counts, ad.softplus(logits_v))
            h = patterns.propagate_global_factored(b_mat, base_v, cfg.layers,
                                                   mode=cfg.glo_norm)
            ad.backward(ad.asum(h))
            taped.append(time.perf_counter() - t0)
        self.extra["global_isolated_s"] = median(plain)
        self.extra["global_isolated_taped_s"] = median(taped)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def step_metrics(self) -> dict:
        steps = sorted(d for d, _ in self.durations["step"])
        q = tail_percentile(len(steps))
        return {
            "step_p50_ms": median(steps) * 1e3,
            "step_tail_ms": float(np.percentile(steps, q)) * 1e3,
            "train_triples_per_s": self.triples / sum(steps),
            "tail_percentile": q,
            "step_samples": len(steps),
            "steps_beyond_tail": sum(1 for d in steps if d > np.percentile(steps, q)),
        }

    def end_to_end(self, peak_rss_mb: float) -> dict:
        s = self.step_metrics()
        result = self.last_result
        return {
            "setup_s": (median(self.setup_s), "s"),
            "step_p50_ms": (s["step_p50_ms"], "ms"),
            "step_tail_ms": (s["step_tail_ms"], "ms"),
            "train_triples_per_s": (s["train_triples_per_s"], "1/s"),
            "eval_s": (median(d for d, _ in self.durations["pass"]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "recall_at_10": (result.recall(10), "ratio"),
            "ndcg_at_10": (result.ndcg(10), "ratio"),
            "ok_frac": (1.0 - self.failed / self.attempted, "ratio"),
        }

    def per_layer(self) -> dict:
        tr = self.tracer
        total, self_time = tr.unit_tables()
        kinds = (self.wl.primary, "pass" if self.wl.primary == "step" else "step")
        tables = {"total": total, "self": self_time, "counter": tr.counters}
        traced = [d for d, t in self.durations[self.wl.primary] if t]
        plain = [d for d, t in self.durations[self.wl.primary] if not t]
        self.extra["overhead_s"] = median(traced) - median(plain)
        out = {}
        for metric, (kind, key, scale, unit) in PER_LAYER.items():
            if kind == "span":
                value = tr.span_median(key)
            elif kind == "extra":
                value = self.extra.get(key, 0.0)
            else:
                value = tr.per_unit(kinds, tables[kind], key)
            if kind == "counter" and key in EXACT_COUNTS:
                value = int(value)
            out[metric] = (value * scale if scale != 1.0 else value, unit)
        return out

    def self_time_summary(self) -> dict:
        """Median self time per span name and primary unit, in ms."""
        _, self_time = self.tracer.unit_tables()
        out = {}
        for name in sorted({name for _, name in self_time}):
            value = self.tracer.per_unit((self.wl.primary,), self_time, name)
            if value:
                out[name] = round(value * 1e3, 3)
        return out

    def cleanup(self) -> None:
        for path in (self.tsv, self.manifest, self.ckpt, self.stem + ".cfg"):
            if path and os.path.exists(path):
                os.remove(path)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it, but
    never below the median (runs with fewer than 20 samples)."""
    if n <= 10:
        return 50
    return max(50, math.floor(100 * (n - 10) / n))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _endless(sampler, batch_size):
    """The sampler's epochs back to back, in the order train() draws them."""
    while True:
        yield from sampler.epoch_batches(batch_size)


def _pass_consistent(result, groups) -> bool:
    in_range = all(0.0 <= result.recall(k) <= 1.0 and 0.0 <= result.ndcg(k) <= 1.0
                   for k in result.ks)
    return in_range and sum(g["users"] for g in groups.values()) == len(result.users)


def _same_ranking(a, b) -> bool:
    return (np.array_equal(a.users, b.users)
            and all(np.array_equal(x, y) for x, y in zip(a.top_items, b.top_items)))


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str,
        graph: str = None):
    """One benchmark run; returns (result line dict, details dict)."""
    r = Run(name, seed, trace, out_dir, graph)
    try:
        r.make_inputs()
        r.tracer.install()
        r.setup()
        r.tracer.uninstall()
        wl = r.wl
        if wl.from_checkpoint:
            r.eval_passes(wl.scaled(wl.passes, seconds))
            rss = peak_rss_mb()
            r.check_topk()
            r.tracer.install()
            r.build_sampler()
            r.tracer.uninstall()
            r.train_steps(wl.scaled(wl.steps, seconds))
        else:
            r.train_steps(wl.scaled(wl.steps, seconds),
                          wl.scaled(wl.passes, seconds))
            rss = peak_rss_mb()
            r.check_topk()
            r.check_epoch_loss()
        if trace:
            r.time_global_isolated()
            metrics = r.per_layer()
        else:
            metrics = r.end_to_end(rss)
        s = r.step_metrics()
        details = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
            "graph": {"nodes": r.graph.num_nodes, "users": r.graph.num_users,
                      "items": r.graph.num_items,
                      "test_users": int(len(r.last_result.users))},
            "step_samples": s["step_samples"], "tail_percentile": s["tail_percentile"],
            "steps_beyond_tail": s["steps_beyond_tail"],
            "eval_passes": len(r.durations["pass"]),
            "setup_reps": len(r.setup_s),
            "failed_frac": r.failed / r.attempted,
            "checks": r.checks,
        }
        if trace:
            details["per_layer_unit"] = wl.primary
            details["counts_repeat"] = r.tracer.counts_repeat(EXACT_COUNTS)
            details["self_ms"] = r.self_time_summary()
            trace_path = os.path.join(out_dir, f"{name}-seed{seed}.trace.json")
            r.tracer.dump(trace_path, {"details": details})
            details["trace_file"] = os.path.relpath(trace_path,
                                                    os.path.dirname(out_dir))
        # every failed check adds to r.failed
        line = {"correct": r.failed == 0, "attempted": r.attempted,
                "failed": r.failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()}}
        return line, details
    finally:
        r.tracer.uninstall()
        r.cleanup()
