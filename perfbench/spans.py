"""In-memory span tracer for the benchmark's traced run (``--trace 1``).

Spans are recorded from outside chainrec. ``install()`` swaps public module
attributes and ``DualChannelModel`` methods for timing wrappers, and
``uninstall()`` puts the originals back, so nothing under ``src/`` changes
and an untraced run executes the program exactly as shipped.

A span is ``[name, start, end, parent, unit]``: ``parent`` is the index of
the enclosing span (-1 at the root) and ``unit`` names the training step or
evaluation pass it belongs to (``"step:7"``, ``"pass:2"``, ``"setup:0"``).
Besides spans the tracer keeps exact per-unit counts (tape ops, kernel calls,
sparse multiply-adds and bytes) and the backward time of every tape op,
charged to the channel whose forward created it.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from statistics import median

from chainrec import (autodiff, backend, contrastive, evaluation, model,
                      patterns, training)

# Forward spans that own the tape ops created inside them. "model.relation"
# is an autodiff.spmm call made directly by DualChannelModel.embeddings,
# i.e. the per-relation LightGCN propagation, which has no function of its own.
CHANNELS = ("patterns.local", "patterns.global", "model.relation",
            "chains.forward", "contrastive.forward")

# (owner, attribute, span name) for the plain timing wrappers
PLAIN = (
    (model.DualChannelModel, "total_loss", "model.forward"),
    (model.DualChannelModel, "embeddings", "model.embeddings"),
    (model.DualChannelModel, "final_embeddings", "model.infer_forward"),
    (patterns, "local_adjacency", "patterns.local"),
    (patterns, "propagate_local", "patterns.local"),
    (patterns, "propagate_global_factored", "patterns.global"),
    (model, "chain_forward", "chains.forward"),
    (model, "chain_embedding", "chains.forward"),
    (model, "final_embedding", "chains.forward"),
    (contrastive, "infonce_terms", "contrastive.forward"),
    (contrastive, "chain_knowledge", "contrastive.forward"),
    (contrastive, "relation_knowledge", "contrastive.forward"),
    (contrastive, "encode_weight", "contrastive.forward"),
    (contrastive, "normalize_weights", "contrastive.forward"),
    (training, "adam_step", "training.adam"),
    (evaluation, "evaluate", "evaluation.rank"),
    (evaluation, "sparsity_groups", "evaluation.groups"),
    (backend, "spmm_grad_vals", "backend.spmm_grad_vals"),
    (backend, "scatter_add_rows", "backend.scatter_add_rows"),
    (backend, "segment_sum", "backend.segment_sum"),
)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.counters = defaultdict(float)   # (unit, key) -> value
        self.traced_units = []
        self.unit = None
        self._stack = []
        self._channels = []
        self._in_backward = 0
        self._saved = []
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.unit])
        self._stack.append(len(self.spans) - 1)
        if name in CHANNELS:
            self._channels.append(name)

    def _end(self):
        idx = self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if span[0] in CHANNELS:
            self._channels.pop()

    @contextmanager
    def _span(self, name):
        self._begin(name)
        try:
            yield
        finally:
            self._end()

    def span(self, name):
        """Context manager recording one span; a no-op unless installed."""
        return self._span(name) if self._saved else nullcontext()

    def count(self, key, value=1):
        self.counters[(self.unit, key)] += value

    def start_unit(self, unit: str) -> None:
        self.unit = unit
        self.traced_units.append(unit)

    def _parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _plain(self, fn, name):
        calls = name + "_calls" if name.startswith("backend.") else None

        def wrapper(*args, **kwargs):
            if calls:
                self.count(calls)
            with self._span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _backend_spmm(self, fn):
        def wrapper(indptr, cols, vals, x):
            kind = "backend.spmm_bwd" if self._in_backward else "backend.spmm_fwd"
            with self._span(kind):
                out = fn(indptr, cols, vals, x)
            # bytes read per product: the column index, the value and one
            # row of x per stored entry (the gathers dominate the traffic)
            madds = cols.shape[0] * x.shape[1]
            self.count("backend.spmm_calls")
            self.count("backend.spmm_madds", madds)
            self.count("backend.spmm_bytes", cols.nbytes + vals.nbytes
                       + madds * x.itemsize)
            return out
        return wrapper

    def _op_spmm(self, fn):
        def wrapper(struct, vals, x):
            if self._parent_name() != "model.embeddings":
                return fn(struct, vals, x)
            with self._span("model.relation"):
                return fn(struct, vals, x)
        return wrapper

    def _backward(self, fn):
        def wrapper(out):
            self.count("autodiff.ops", _tape_ops(out))
            self._in_backward += 1
            try:
                with self._span("autodiff.backward"):
                    return fn(out)
            finally:
                self._in_backward -= 1
        return wrapper

    def _var_init(self, init):
        tracer = self

        def wrapper(var, value, parents=(), vjp=None):
            init(var, value, parents, vjp)
            if vjp is not None and tracer._channels:
                var._vjp = tracer._charged_vjp(vjp, tracer._channels[-1])
        return wrapper

    def _charged_vjp(self, vjp, channel):
        key = channel + ".bwd_s"

        def timed(g):
            t0 = time.perf_counter()
            out = vjp(g)
            self.count(key, time.perf_counter() - t0)
            return out
        return timed

    def install(self) -> None:
        """Swap in the wrappers; no-op when tracing is off."""
        if not self.enabled or self._saved:
            return
        swaps = [(owner, attr, self._plain(getattr(owner, attr), name))
                 for owner, attr, name in PLAIN]
        swaps += [
            (backend, "spmm", self._backend_spmm(backend.spmm)),
            (autodiff, "spmm", self._op_spmm(autodiff.spmm)),
            (autodiff, "backward", self._backward(autodiff.backward)),
            (autodiff.Var, "__init__", self._var_init(autodiff.Var.__init__)),
        ]
        for owner, attr, wrapper in swaps:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.unit = None

    # ------------------------------------------------------------------
    # derived numbers
    # ------------------------------------------------------------------

    def unit_tables(self):
        """(unit, name) -> total seconds of outermost spans of that name,
        and (unit, name) -> self seconds (duration minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total, self_time = defaultdict(float), defaultdict(float)
        for i, (name, t0, t1, parent, unit) in enumerate(self.spans):
            self_time[(unit, name)] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total[(unit, name)] += t1 - t0
        return total, self_time

    def span_median(self, name) -> float:
        """Median duration of every span of this name in the run, in s."""
        d = [t1 - t0 for n, t0, t1, _, _ in self.spans if n == name]
        return median(d) if d else 0.0

    def per_unit(self, kinds, table, key) -> float:
        """Median per-unit value over traced units of the first kind in
        ``kinds`` where the value is nonzero anywhere (0 if none)."""
        for kind in kinds:
            units = [u for u in self.traced_units if u.startswith(kind + ":")]
            values = [table.get((u, key), 0.0) for u in units]
            if any(values):
                return median(values)
        return 0.0

    def counts_repeat(self, keys) -> dict:
        """Whether each count is identical in every traced step and in
        every traced pass."""
        out = {}
        for key in keys:
            values = {(u.split(":")[0], self.counters.get((u, key), 0.0))
                      for u in self.traced_units}
            kinds = [kind for kind, _ in values]
            out[key] = len(kinds) == len(set(kinds))
        return out

    def dump(self, path, extra: dict) -> None:
        spans = [[n, round(t0 - self._origin, 9), round(t1 - self._origin, 9), p, u]
                 for n, t0, t1, p, u in self.spans]
        counters = defaultdict(dict)
        for (unit, key), value in self.counters.items():
            counters[str(unit)][key] = value
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "unit"],
                       "spans": spans, "counters": counters, **extra}, fh)


def _tape_ops(out) -> int:
    """Recorded ops (nodes with a backward closure) reachable from ``out``."""
    seen, stack, ops = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._vjp is not None:
            ops += 1
        stack.extend(p for p in node._parents if isinstance(p, autodiff.Var))
    return ops
