"""Spans and counters around the layer entry points, attached from outside.

Nothing here edits the package: :func:`instrument` patches class and
module attributes for the duration of a ``with`` block (and restores
them on exit), wraps the hooks of method and strategy *instances*, and
times kernels through a :class:`~repro.backends.numpy_backend.NumpyBackend`
subclass passed in as ``ApproxIt(backend=...)``.

A span is ``(name, start, end, parent, op)``.  Spans live in memory on
the :class:`Tracer` until the run ends.  A layer's self time is its
span's duration minus the durations of its direct children, so the self
times of every span under one op sum to that op's root span.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter

import numpy as np

#: Engine ops timed as ``engine.<op>``.
ENGINE_OPS = ("matvec", "weighted_sum", "dot", "sum", "add", "sub", "scale_add", "mul")

#: Backend kernels timed as ``kernel.<name>``: the primitive adder entry
#: point and every fused in-range kernel program replay may call.
KERNELS = (
    "add_signed",
    "product_reduce_words",
    "reduce_inrange",
    "add_words_inrange",
    "sub_words_inrange",
    "scale_encode_inrange",
    "csr_matvec_words",
)

#: Method hooks timed as ``method.<hook>`` (solo methods and the batched
#: adapters that restate ``direction``/``update`` over a lane stack).
METHOD_HOOKS = ("direction", "update", "objective", "gradient")

ROOT = "op"
_ZERO = {"s": 0.0, "self_s": 0.0, "calls": 0}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op


class Tracer:
    """In-memory span store plus named counters.

    ``counts`` holds work counters of ops (``kernel.add_signed.words``,
    ...); call counts are derived from the spans themselves.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op: int | None = None
        #: The observer a traced op runs under (program counters and
        #: per-mode adds); ``run_batch`` calls inherit it.
        self.recorder = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent, self.op))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        popped = self._stack.pop()
        if popped != idx:  # pragma: no cover - would mean a wrapper leaked
            raise RuntimeError(f"span stack out of order: {popped} != {idx}")

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    @contextmanager
    def root(self, op_id: int):
        """The root span of one op; every span opened inside carries
        ``op_id``."""
        self.op = op_id
        try:
            with self.span(ROOT):
                yield
        finally:
            self.op = None

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` inside a span named ``name``.

        A call made while the innermost span already has this name is
        the same logical operation (a subclass delegating to its base,
        ``charge_many`` looping over ``charge``) and opens no new span.
        ``on_call(args, kwargs, out)`` updates counters after a call.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.innermost() == name:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_call is not None:
                on_call(args, kwargs, out)
            return out

        return wrapper

    def write(self, path) -> None:
        """Every span as one JSON line (``parent`` is a line index)."""
        with open(path, "w") as out:
            for span in self.spans:
                record = {k: getattr(span, k) for k in Span.__slots__}
                out.write(json.dumps(record) + "\n")

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of every span, indexed like :attr:`spans`."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def aggregate(self, select) -> dict[str, dict[str, float]]:
        """``name -> {"s": inclusive, "self_s": self, "calls": n}``,
        summed over the spans for which ``select(span)`` holds."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            if select(span):
                agg = out.setdefault(span.name, dict(_ZERO))
                agg["s"] += span.end - span.start
                agg["self_s"] += own
                agg["calls"] += 1
        return out


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
def _array_args(args):
    return [a for a in args if isinstance(a, np.ndarray)]


def _kernel_counter(tracer: Tracer, name: str):
    """Words (largest input operand) and bytes (every array operand
    read plus the result written) of one kernel call."""

    def on_call(args, kwargs, out):
        if tracer.op is None:
            return
        arrays = _array_args(args[1:])
        tracer.counts[f"kernel.{name}.words"] += max((a.size for a in arrays), default=0)
        moved = sum(a.nbytes for a in arrays)
        if isinstance(out, np.ndarray):
            moved += out.nbytes
        tracer.counts["kernel.bytes"] += moved

    return on_call


def _words_counter(tracer: Tracer, key: str):
    def on_call(args, kwargs, out):
        if tracer.op is not None:
            tracer.counts[key] += int(np.size(args[1]))

    return on_call


def timing_backend(tracer: Tracer):
    """A NumPy reference backend whose kernels open ``kernel.*`` spans.

    Results are the reference results: every override calls the parent
    implementation unchanged.
    """
    from repro.backends.numpy_backend import NumpyBackend

    namespace = {}
    for kernel in KERNELS:
        parent = getattr(NumpyBackend, kernel)
        namespace[kernel] = tracer.wrap(
            f"kernel.{kernel}", parent, _kernel_counter(tracer, kernel)
        )
    cls = type("TimedNumpyBackend", (NumpyBackend,), namespace)
    return cls()


def wrap_instance(tracer: Tracer, obj, hooks, prefix: str) -> None:
    """Shadow bound hooks of one instance with timed wrappers."""
    for hook in hooks:
        bound = getattr(obj, hook, None)
        if bound is not None:
            setattr(obj, hook, tracer.wrap(f"{prefix}.{hook}", bound))


def _patch(stack: ExitStack, owner, attr: str, replacement) -> None:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, replacement)
    stack.callback(setattr, owner, attr, original)


class BatchStats:
    """Lane occupancy of every ``run_batch`` call in a traced op."""

    def __init__(self):
        self.lanes = 0
        self.lane_iterations = 0
        self.slots = 0

    def add(self, results) -> None:
        executed = [r.executed_iterations for r in results]
        self.lanes += len(executed)
        self.lane_iterations += sum(executed)
        self.slots += len(executed) * max(executed, default=0)


@contextmanager
def instrument(tracer: Tracer):
    """Patch the layer entry points for the duration of the block.

    Yields a :class:`BatchStats` the ``run_batch`` wrapper fills in.
    """
    from repro.arith import engine as engine_mod
    from repro.arith import program as program_mod
    from repro.arith.fixed import FixedPointFormat
    from repro.core import framework as framework_mod
    from repro.core.strategies import adaptive as adaptive_mod

    batch = BatchStats()
    with ExitStack() as stack:
        for cls in (
            engine_mod.ApproxEngine,
            program_mod.ProgramEngine,
            engine_mod.BatchedEngine,
            program_mod.BatchedProgramEngine,
        ):
            for op in ENGINE_OPS:
                if op in cls.__dict__:
                    _patch(stack, cls, op, tracer.wrap(f"engine.{op}", cls.__dict__[op]))
        for attr in ("encode", "decode"):
            fn = FixedPointFormat.__dict__[attr]
            counter = _words_counter(tracer, f"fixed.{attr}.words")
            _patch(stack, FixedPointFormat, attr, tracer.wrap(f"fixed.{attr}", fn, counter))
        for cls, attrs in (
            (engine_mod.EnergyLedger, ("charge", "charge_many")),
            (engine_mod.BatchedEnergyLedger, ("charge_lanes", "charge_many_lanes")),
        ):
            for attr in attrs:
                _patch(stack, cls, attr, tracer.wrap("ledger.charge", cls.__dict__[attr]))
        _patch(
            stack,
            adaptive_mod,
            "solve_energy_lp",
            tracer.wrap("strategy.lp", adaptive_mod.solve_energy_lp),
        )
        _patch(
            stack,
            framework_mod,
            "characterize_cached",
            tracer.wrap("characterize", framework_mod.characterize_cached),
        )

        approxit = framework_mod.ApproxIt
        resolve = approxit.__dict__["resolve_strategy"]

        def resolve_strategy(self, strategy):
            policy = resolve(self, strategy)
            wrap_instance(tracer, policy, ("decide",), "strategy")
            return policy

        _patch(stack, approxit, "resolve_strategy", resolve_strategy)

        run_batch = approxit.__dict__["run_batch"]

        def traced_run_batch(self, strategies, *args, **kwargs):
            if kwargs.get("observer") is None and tracer.recorder is not None:
                kwargs["observer"] = tracer.recorder
            results = run_batch(self, strategies, *args, **kwargs)
            batch.add(results)
            return results

        _patch(stack, approxit, "run_batch", tracer.wrap("batch.run_batch", traced_run_batch))

        kernels_for = framework_mod.batched_kernels_for

        def batched_kernels_for(method, lanes):
            adapter = kernels_for(method, lanes)
            if adapter is not None:
                wrap_instance(tracer, adapter, ("direction", "update"), "method")
            return adapter

        _patch(stack, framework_mod, "batched_kernels_for", batched_kernels_for)
        yield batch


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def per_layer(tracer: Tracer, batch: BatchStats, samples, untraced_p50: float, exact_mode: str):
    """The traced run's per-layer metrics, each a per-op mean.

    ``.s`` is inclusive span time, ``.self_s`` the span minus its child
    spans, ``.calls`` the number of spans (a call nested in a span of the
    same name is not counted twice).  ``characterize.s`` comes from the
    traced set-up, not from ops.  Returns ``(metrics, report_lines)``.
    """
    agg = tracer.aggregate(lambda span: span.op is not None)
    setup = tracer.aggregate(lambda span: span.op is None)
    n = agg[ROOT]["calls"]
    stats = samples.stats
    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    def span(name, field):
        return agg.get(name, _ZERO)[field] / n

    def count(select):
        """Per-op mean of the observer counters whose key passes."""
        total = sum(v for c in samples.counters for k, v in c.items() if select(k))
        return total / len(samples.counters)

    put("characterize.s", setup.get("characterize", _ZERO)["s"], "s")
    for name in ("strategy.decide", "strategy.lp"):
        put(f"{name}.s", span(name, "s"), "s")
        put(f"{name}.calls", span(name, "calls"), "count")
    put("strategy.accept_ratio", stats.accepted / stats.executed, "ratio")
    put("strategy.rollbacks", stats.rollbacks, "count")
    put("strategy.switches", stats.switches, "count")
    put("method.direction.self_s", span("method.direction", "self_s"), "s")
    put("method.update.self_s", span("method.update", "self_s"), "s")
    put("method.objective.s", span("method.objective", "s"), "s")
    put("method.gradient.s", span("method.gradient", "s"), "s")
    put("method.gradient.calls", span("method.gradient", "calls"), "count")
    for op in ENGINE_OPS:
        put(f"engine.{op}.self_s", span(f"engine.{op}", "self_s"), "s")
        put(f"engine.{op}.calls", span(f"engine.{op}", "calls"), "count")
    for attr in ("encode", "decode"):
        put(f"fixed.{attr}.s", span(f"fixed.{attr}", "s"), "s")
        put(f"fixed.{attr}.words", tracer.counts[f"fixed.{attr}.words"] / n, "count")
    for kernel in KERNELS:
        put(f"kernel.{kernel}.s", span(f"kernel.{kernel}", "s"), "s")
        put(f"kernel.{kernel}.calls", span(f"kernel.{kernel}", "calls"), "count")
        put(f"kernel.{kernel}.words", tracer.counts[f"kernel.{kernel}.words"] / n, "count")
    put("kernel.bytes", tracer.counts["kernel.bytes"] / n, "B")
    put("ledger.charge.s", span("ledger.charge", "s"), "s")
    exact = f"adds.{exact_mode}"
    put("ledger.adds.approx", count(lambda k: k.startswith("adds.") and k != exact), "count")
    put("ledger.adds.exact", count(lambda k: k == exact), "count")
    captures = count(lambda k: k == "program.captures")
    replays = count(lambda k: k == "program.replays")
    put("program.captures", captures, "count")
    put("program.replays", replays, "count")
    put("program.bailouts", count(lambda k: k == "program.bailouts"), "count")
    put("program.replay_ratio", replays / (captures + replays) if captures + replays else 0.0, "ratio")
    put("batch.run_batch.s", span("batch.run_batch", "s"), "s")
    put("batch.lanes", batch.lanes / n, "count")
    put("batch.occupancy", batch.lane_iterations / batch.slots if batch.slots else 0.0, "ratio")
    put("batch.fallbacks", stats.batch_fallbacks, "count")
    put("proc.minor_faults", tracer.counts["proc.minor_faults"] / n, "count")
    traced_s = span(ROOT, "s")
    put("framework.self_s", span(ROOT, "self_s"), "s")
    put("op.traced_s", traced_s, "s")
    put("trace.overhead_frac", statistics.median(samples.times) / untraced_p50 - 1.0, "ratio")

    lines = [f"  {name:<34} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  self-time share of the traced op ({n} ops, {traced_s:.4g} s each):")
    ranked = sorted(agg.items(), key=lambda item: -item[1]["self_s"])
    for name, a in ranked:
        share = a["self_s"] / n / traced_s
        lines.append(f"    {name:<32} {share:7.1%}  calls/op {a['calls'] / n:g}")
    return metrics, lines

