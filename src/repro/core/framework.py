"""The ApproxIt orchestrator.

:class:`ApproxIt` wires together an
:class:`~repro.solvers.IterativeMethod`, a
:class:`~repro.arith.ModeBank` and a reconfiguration strategy, runs the
offline characterization stage once (cached), then drives the online
loop:

1. run one iteration (direction + update) on the engine of the current
   mode;
2. build the :class:`~repro.core.strategies.Observation` from exact
   runtime quantities;
3. ask the strategy for a :class:`~repro.core.strategies.Decision`
   (next mode, optional rollback);
4. stop when the method's tolerance test passes — immediately for
   non-verifying strategies (single-mode), or only after the strategy's
   convergence-verification handover for quality-guaranteed strategies.

A second, cheaper stop condition handles the quantized datapath: when an
iteration reproduces the previous iterate bit-for-bit the method has
reached a fixed point of the (quantized) map and cannot move again, so
the run ends regardless of tolerance.

The returned :class:`RunResult` carries everything the paper's tables
report: per-mode step counts, total iterations, rollbacks, energy by
mode, the final state and traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arith.engine import (
    ApproxEngine,
    BatchedEnergyLedger,
    BatchedEngine,
    EnergyLedger,
)
from repro.arith.fixed import FixedPointFormat
from repro.arith.modes import ModeBank, default_mode_bank
from repro.arith.program import BatchedProgramEngine, ProgramEngine
from repro.backends import resolve_backend
from repro.core.characterize import (
    CharacterizationCache,
    CharacterizationTable,
    characterize_cached,
)
from repro.core.strategies.adaptive import AdaptiveAngleStrategy
from repro.core.strategies.base import (
    Decision,
    Observation,
    ReconfigurationStrategy,
)
from repro.core.strategies.incremental import IncrementalStrategy
from repro.core.strategies.static_mode import StaticModeStrategy
from repro.obs.events import TraceEvent
from repro.obs.observer import LaneObserver, Observer
from repro.solvers.base import IterationState, IterativeMethod
from repro.solvers.batched import batched_kernels_for


def _emit_fallbacks(engine, observer, iteration, mode_name, extra=None):
    """Take the program engine's queued fallbacks (speculation aborts,
    unsupported captures) and emit each as one ``program_fallback``
    event plus a ``program.fallbacks.<reason>`` counter."""
    fallbacks = engine.take_fallbacks()
    if observer is None:
        return
    for detail in fallbacks:
        observer.metrics.inc(f"program.fallbacks.{detail['reason']}")
        if extra:
            detail = {**detail, **extra}
        observer.record(
            TraceEvent("program_fallback", iteration, mode_name, detail)
        )


@dataclass
class RunResult:
    """Outcome of one framework run.

    Attributes:
        x: final iterate.
        objective: exact objective at ``x``.
        iterations: accepted iterations (rollbacks excluded, matching
            the paper's per-level step counts whose total equals the
            run length).
        rollbacks: function-scheme rollbacks performed.
        converged: whether the run stopped on the tolerance test (or a
            datapath fixed point) rather than on ``MAX_ITER``.
        hit_max_iter: budget exhausted before convergence.
        steps_by_mode: accepted iterations per mode name.
        energy: total energy units charged to the approximate parts.
        energy_by_mode: energy split per mode name.
        strategy_name: which policy produced the run.
        mode_trace: mode name of every executed iteration (including
            rolled-back ones), for plots and tests.
        objective_trace: exact objective after every executed iteration.
        history: full per-accepted-iteration snapshots (iterate,
            objective, mode); only populated when the run was invoked
            with ``collect_history=True`` — states are O(dim) each, so
            this is opt-in.
        trace_path: path of the JSONL trace exported for this run, when
            the run was traced to disk (``--trace`` sweeps); ``None``
            otherwise.
    """

    x: np.ndarray
    objective: float
    iterations: int
    rollbacks: int
    converged: bool
    hit_max_iter: bool
    steps_by_mode: dict[str, int]
    energy: float
    energy_by_mode: dict[str, float]
    strategy_name: str
    mode_trace: list[str] = field(default_factory=list)
    objective_trace: list[float] = field(default_factory=list)
    history: list[IterationState] = field(default_factory=list)
    trace_path: str | None = None

    @property
    def executed_iterations(self) -> int:
        """Iterations actually run, including rolled-back ones."""
        return self.iterations + self.rollbacks

    @property
    def mode_switches(self) -> int:
        """Number of reconfigurations (mode changes along the trace)."""
        return sum(
            1 for a, b in zip(self.mode_trace, self.mode_trace[1:]) if a != b
        )

    def energy_relative_to(self, reference: "RunResult") -> float:
        """This run's energy normalized by a reference run's (the
        paper's Energy/Power columns, Truth = 1)."""
        if reference.energy <= 0:
            raise ValueError("reference run has non-positive energy")
        return self.energy / reference.energy

    def summary(self) -> str:
        """One-line human-readable digest."""
        status = "converged" if self.converged else "MAX_ITER"
        steps = ", ".join(
            f"{name}:{count}" for name, count in self.steps_by_mode.items() if count
        )
        return (
            f"{self.strategy_name}: {self.iterations} iters ({status}), "
            f"f={self.objective:.6g}, energy={self.energy:.4g}, steps [{steps}]"
        )


#: Default number of offline probe iterations (the paper simulates
#: "several iterations on representative workloads").
DEFAULT_PROBES = 3


class ApproxIt:
    """End-to-end approximate computing framework for iterative methods.

    Args:
        method: the iterative method to accelerate.
        bank: approximation-mode ladder; the paper's default four-level
            LOA bank when omitted.
        fmt: datapath fixed-point format; defaults to a Q15.16 word
            matching the bank width (or the method's
            ``preferred_frac_bits``).
        probe_iterations: offline characterization probes.
        switch_energy: energy units charged per mode reconfiguration
            (the configuration-latch reload of a reconfigurable adder).
            The paper argues this is negligible; leaving the default 0
            reproduces that assumption, and the reconfiguration-cost
            ablation sweeps it.
        char_cache: optional disk-backed
            :class:`~repro.core.characterize.CharacterizationCache`; the
            offline stage is looked up there before being recomputed and
            fresh tables are stored back.  Cached tables round-trip
            through plain data bit-exactly, so runs are identical with
            and without the cache.
        backend: kernel backend name (or instance) for every engine the
            framework builds; ``None`` resolves ``$REPRO_BACKEND`` and
            falls back to the NumPy reference backend (see
            :mod:`repro.backends`).

    Example:
        >>> framework = ApproxIt(method)                   # doctest: +SKIP
        >>> truth = framework.run(strategy="static:acc")   # doctest: +SKIP
        >>> run = framework.run(strategy="adaptive")       # doctest: +SKIP
        >>> run.energy_relative_to(truth)                  # doctest: +SKIP
        0.45
    """

    #: Class-wide default for :meth:`run`'s ``program_capture`` — when
    #: on, solo runs record each (solver, mode) iteration's engine op
    #: sequence once and replay it compiled (see
    #: :mod:`repro.arith.program`).  Results and ledgers are identical
    #: either way; flip off to force the interpreted oracle everywhere.
    default_program_capture: bool = True

    def __init__(
        self,
        method: IterativeMethod,
        bank: ModeBank | None = None,
        fmt: FixedPointFormat | None = None,
        probe_iterations: int = DEFAULT_PROBES,
        switch_energy: float = 0.0,
        char_cache: CharacterizationCache | None = None,
        backend: str | None = None,
    ):
        if switch_energy < 0:
            raise ValueError(f"switch_energy must be >= 0, got {switch_energy}")
        self.switch_energy = float(switch_energy)
        self.backend = resolve_backend(backend)
        self.method = method
        self.bank = bank if bank is not None else default_mode_bank()
        if fmt is None:
            frac = method.preferred_frac_bits
            if frac is None:
                frac = min(16, self.bank.width - 2)
            frac = min(frac, self.bank.width - 2)
            fmt = FixedPointFormat(width=self.bank.width, frac_bits=frac)
        if fmt.width != self.bank.width:
            raise ValueError(
                f"format width {fmt.width} != bank width {self.bank.width}"
            )
        self.fmt = fmt
        self.probe_iterations = probe_iterations
        self.char_cache = char_cache
        self._characterization: CharacterizationTable | None = None

    # ------------------------------------------------------------------
    # Offline stage
    # ------------------------------------------------------------------
    def characterization(self) -> CharacterizationTable:
        """Run (or return the cached) offline characterization.

        Consults the disk cache first when one was supplied; either way
        the table is memoized on the instance afterwards.
        """
        if self._characterization is None:
            self._characterization = characterize_cached(
                self.method,
                self.bank,
                self.fmt,
                self.probe_iterations,
                cache=self.char_cache,
            )
        return self._characterization

    # ------------------------------------------------------------------
    # Strategy resolution
    # ------------------------------------------------------------------
    def resolve_strategy(
        self, strategy: str | ReconfigurationStrategy
    ) -> ReconfigurationStrategy:
        """Accept a strategy instance or a spec string.

        Spec strings: ``"incremental"``, ``"adaptive"`` (f=1),
        ``"adaptive:f=<n>"``, ``"static:<mode>"``, ``"truth"``
        (= ``static:acc``).
        """
        if isinstance(strategy, ReconfigurationStrategy):
            return strategy
        if strategy == "incremental":
            return IncrementalStrategy()
        if strategy == "adaptive":
            return AdaptiveAngleStrategy()
        if strategy.startswith("adaptive:f="):
            return AdaptiveAngleStrategy(update_period=int(strategy.split("=", 1)[1]))
        if strategy == "truth":
            return StaticModeStrategy(self.bank.accurate.name)
        if strategy.startswith("static:"):
            return StaticModeStrategy(strategy.split(":", 1)[1])
        raise ValueError(
            f"unknown strategy spec {strategy!r}; expected 'incremental', "
            f"'adaptive', 'adaptive:f=<n>', 'static:<mode>' or 'truth'"
        )

    # ------------------------------------------------------------------
    # Online stage
    # ------------------------------------------------------------------
    def run(
        self,
        strategy: str | ReconfigurationStrategy = "incremental",
        max_iter: int | None = None,
        collect_traces: bool = True,
        collect_history: bool = False,
        observer: Observer | None = None,
        program_capture: bool | None = None,
    ) -> RunResult:
        """Drive the method to convergence under a strategy.

        Args:
            strategy: policy instance or spec string (see
                :meth:`resolve_strategy`).
            max_iter: budget override; the method's own ``max_iter``
                when omitted.
            collect_traces: record per-iteration mode/objective traces
                (tiny; disable only for huge sweeps).
            collect_history: additionally record full
                :class:`~repro.solvers.IterationState` snapshots of
                every accepted iteration (O(dim) each).
            observer: observability hook (typically a
                :class:`~repro.obs.observer.TraceRecorder`) receiving
                every control-loop :class:`~repro.obs.events.TraceEvent`,
                per-mode energy charges and ``direction`` / ``update`` /
                ``objective`` wall-time sections.  Purely passive: an
                observed run's :class:`RunResult` is bit-identical to an
                unobserved one, and ``None`` (the default) skips every
                hook site entirely.
            program_capture: record each (solver, mode) iteration's
                engine op sequence once and replay it compiled on later
                iterations (:mod:`repro.arith.program`); iterates stay
                bit-identical and the ledger float-equal, enforced by a
                parity suite.  ``None`` (default) takes
                :attr:`default_program_capture`; ``False`` forces the
                interpreted oracle.

        Returns:
            A :class:`RunResult`.
        """
        policy = self.resolve_strategy(strategy)
        budget = self.method.max_iter if max_iter is None else int(max_iter)
        characterization = self.characterization()
        epsilons = characterization.epsilons()

        capture = (
            self.default_program_capture
            if program_capture is None
            else bool(program_capture)
        )
        engine_cls = ProgramEngine if capture else ApproxEngine
        ledger = EnergyLedger()
        if observer is not None:
            ledger.observer = observer
        engines = {
            mode.name: engine_cls(mode, self.fmt, ledger, backend=self.backend)
            for mode in self.bank
        }

        policy.bind_observer(observer)
        try:
            result = self._run_loop(
                policy,
                budget,
                epsilons,
                ledger,
                engines,
                collect_traces,
                collect_history,
                observer,
                capture,
            )
        finally:
            policy.bind_observer(None)
        if observer is not None:
            self._export_cache_metrics(engines, observer)
        return result

    def _export_cache_metrics(
        self, engines: dict[str, ApproxEngine], observer: Observer
    ) -> None:
        """Expose the run's cache effectiveness through the observer.

        Gauges (not counters): each records the state at the end of this
        run, so merging registries across runs keeps the latest reading
        instead of double-counting.
        """
        for name, engine in engines.items():
            for stat, value in engine.cache_stats().items():
                observer.metrics.gauge(f"engine.{name}.{stat}", value)
        if self.char_cache is not None:
            for stat, value in self.char_cache.stats().items():
                observer.metrics.gauge(f"char_cache.{stat}", value)

    def _run_loop(
        self,
        policy: ReconfigurationStrategy,
        budget: int,
        epsilons: dict[str, float],
        ledger: EnergyLedger,
        engines: dict[str, ApproxEngine],
        collect_traces: bool,
        collect_history: bool,
        observer: Observer | None,
        capture: bool = False,
    ) -> RunResult:
        """The online loop of :meth:`run` (observer already bound)."""
        mode = policy.start(self.bank, self.characterization())
        x = self.method.postprocess(self.method.initial_state())
        f_prev = self.method.objective(x)
        # The exact gradient is control-loop telemetry for angle-based
        # policies; strategies that never read it opt out and skip an
        # O(nnz) exact matvec per iteration (results are unaffected).
        grad_prev = self.method.gradient(x) if policy.needs_gradient else None

        steps_by_mode = {m.name: 0 for m in self.bank}
        mode_trace: list[str] = []
        objective_trace: list[float] = []
        history: list[IterationState] = []
        rollbacks = 0
        iterations = 0
        converged = False
        executed = 0

        last_mode_name: str | None = None
        while executed < budget:
            switched = last_mode_name is not None and mode.name != last_mode_name
            if switched and observer is not None:
                observer.record(
                    TraceEvent(
                        "mode_switch",
                        executed,
                        mode.name,
                        {"previous": last_mode_name},
                    )
                )
            if self.switch_energy and switched:
                # The reconfigurable device reloads its configuration
                # latches whenever the selected level actually changes.
                ledger.charge("reconfig", 1, self.switch_energy)
                if observer is not None:
                    observer.record(
                        TraceEvent(
                            "reconfig_charge",
                            executed,
                            mode.name,
                            {"energy": self.switch_energy},
                        )
                    )
            last_mode_name = mode.name
            engine = engines[mode.name]
            if capture:
                # Each mode's engine keeps its own program, so switching
                # back into a mode replays it: the compiled steps check
                # shapes, operands and saturation and bail out when one
                # no longer holds.  Only rollbacks invalidate programs.
                slots = {"x": x}
                slots.update(self.method.replay_operands(x))
                engine.begin_iteration(slots)
            if observer is None:
                d = self.method.direction(x, engine)
                if capture:
                    engine.bind_slot("d", d)
                alpha = self.method.step_size(x, d, iterations)
                x_new = self.method.postprocess(
                    self.method.update(x, alpha, d, engine)
                )
                f_new = self.method.objective(x_new)
            else:
                with observer.metrics.time("direction"):
                    d = self.method.direction(x, engine)
                if capture:
                    engine.bind_slot("d", d)
                alpha = self.method.step_size(x, d, iterations)
                with observer.metrics.time("update"):
                    x_new = self.method.postprocess(
                        self.method.update(x, alpha, d, engine)
                    )
                with observer.metrics.time("objective"):
                    f_new = self.method.objective(x_new)
            execution: str | None = None
            if capture:
                execution, bail_reason = engine.end_iteration()
                if observer is not None:
                    if execution == "captured":
                        observer.metrics.inc("program.captures")
                        observer.record(
                            TraceEvent(
                                "program_capture",
                                executed,
                                mode.name,
                                {
                                    "steps": (
                                        len(engine.program)
                                        if engine.program is not None
                                        else 0
                                    )
                                },
                            )
                        )
                    elif execution == "replayed":
                        observer.metrics.inc("program.replays")
                    if bail_reason is not None:
                        observer.metrics.inc("program.bailouts")
                        observer.record(
                            TraceEvent(
                                "program_bailout",
                                executed,
                                mode.name,
                                {"reason": bail_reason},
                            )
                        )
                _emit_fallbacks(engine, observer, executed, mode.name)
            grad_new = (
                self.method.gradient(x_new) if policy.needs_gradient else None
            )
            executed += 1

            tolerance_pass = self.method.converged(f_prev, f_new)
            fixed_point = bool(np.array_equal(x_new, x))

            obs = Observation(
                iteration=executed - 1,
                x_prev=x,
                x_new=x_new,
                f_prev=f_prev,
                f_new=f_new,
                grad_prev=grad_prev,
                grad_new=grad_new,
                mode=mode,
                epsilon=epsilons[mode.name],
                converged=tolerance_pass,
            )
            decision: Decision = policy.decide(obs)

            if collect_traces:
                mode_trace.append(mode.name)
                objective_trace.append(f_new)

            if decision.rollback and not fixed_point:
                if observer is not None:
                    detail = {
                        "objective": f_new,
                        "accepted": False,
                        "reason": decision.reason,
                    }
                    if execution is not None:
                        detail["execution"] = execution
                    observer.record(
                        TraceEvent("iteration", executed - 1, mode.name, detail)
                    )
                if capture:
                    # The retried iteration starts from the same x on an
                    # escalated mode; recorded saturation envelopes no
                    # longer describe the regime, so every engine
                    # re-records its next iteration.
                    for eng in engines.values():
                        eng.invalidate_program()
                if mode.is_accurate and decision.mode.is_accurate:
                    # Retrying the exact mode from the same state would
                    # reproduce the same objective uptick forever: the
                    # method sits at its numerical floor, which is as
                    # converged as this datapath can get.
                    converged = True
                    break
                rollbacks += 1
                if observer is not None:
                    observer.record(
                        TraceEvent(
                            "rollback",
                            executed - 1,
                            mode.name,
                            {"next_mode": decision.mode.name},
                        )
                    )
                mode = decision.mode
                continue

            # Iteration accepted.
            iterations += 1
            steps_by_mode[mode.name] += 1
            if observer is not None:
                detail = {
                    "objective": f_new,
                    "accepted": True,
                    "reason": decision.reason,
                }
                if execution is not None:
                    detail["execution"] = execution
                observer.record(
                    TraceEvent("iteration", executed - 1, mode.name, detail)
                )
            if collect_history:
                history.append(
                    IterationState(
                        iteration=iterations - 1,
                        x=np.asarray(x_new, dtype=np.float64).copy(),
                        objective=f_new,
                        mode_name=mode.name,
                    )
                )
            x, f_prev, grad_prev = x_new, f_new, grad_new

            if tolerance_pass or fixed_point:
                if policy.verify_convergence and not mode.is_accurate:
                    # Quality guarantee: a tolerance pass — or a datapath
                    # fixed point the approximate mode cannot escape —
                    # hands over to higher accuracy instead of being
                    # accepted as an unverified stop.
                    handed_from = mode
                    mode = policy.on_premature_convergence(mode)
                    if observer is not None:
                        observer.record(
                            TraceEvent(
                                "convergence_handover",
                                executed - 1,
                                handed_from.name,
                                {"next_mode": mode.name},
                            )
                        )
                    continue
                converged = True
                break

            mode = decision.mode

        return RunResult(
            x=x,
            objective=f_prev,
            iterations=iterations,
            rollbacks=rollbacks,
            converged=converged,
            hit_max_iter=not converged,
            steps_by_mode=steps_by_mode,
            energy=ledger.energy,
            energy_by_mode=dict(ledger.energy_by_mode),
            strategy_name=policy.name,
            mode_trace=mode_trace,
            objective_trace=objective_trace,
            history=history,
        )

    def run_truth(
        self, max_iter: int | None = None, observer: Observer | None = None
    ) -> RunResult:
        """The fully accurate reference run (the paper's *Truth*)."""
        return self.run(strategy="truth", max_iter=max_iter, observer=observer)

    # ------------------------------------------------------------------
    # Batched (lane-parallel) online stage
    # ------------------------------------------------------------------
    def supports_batching(self) -> bool:
        """Whether :meth:`run_batch` can drive this framework's method."""
        return bool(self.batching_support())

    def batching_support(self):
        """Structured batchability verdict for this framework's method.

        Returns a :class:`~repro.solvers.batched.BatchSupport`; when the
        method cannot be batched, its ``reason`` /``message`` say *why*
        (surfaced by sweep/CLI fallbacks instead of a silent solo path).
        """
        from repro.solvers.batched import batching_support

        return batching_support(self.method)

    def run_batch(
        self,
        strategies,
        max_iter: int | None = None,
        collect_traces: bool = True,
        collect_history: bool = False,
        observer: Observer | None = None,
        program_capture: bool | None = None,
    ) -> list[RunResult]:
        """Run one lane per strategy, lock-step through batched kernels.

        Each lane is an independent run of :attr:`method` under its own
        strategy; all lanes share one characterization table and one
        stacked kernel call per step.  Lanes currently on *different*
        modes are grouped into per-mode sub-batches, so a mixed-mode
        batch still issues one kernel call per mode per step.  A lane
        that converges (or exhausts its budget) freezes: it leaves the
        active set and is charged nothing further.

        Per-lane results are bit-identical to ``self.run(strategy)``
        solo runs and per-lane energy ledgers exactly equal — the solo
        path is the regression oracle (see ``tests/core/
        test_batched_parity.py``); ``run_batch`` only amortizes Python
        and kernel-dispatch overhead across lanes.

        Args:
            strategies: one spec string or
                :class:`~repro.core.strategies.ReconfigurationStrategy`
                instance per lane (instances must be distinct objects —
                strategies are stateful per run).
            max_iter / collect_traces / collect_history / observer: as
                in :meth:`run`, applied to every lane.  Events reach the
                observer with the lane id in ``detail["lane"]``;
                ``observer=None`` batches pay no tracing cost.
            program_capture: capture one
                :class:`~repro.arith.program.IterationProgram` per
                (solver, mode) from the first lock-step iteration of
                each mode group and replay it over the stacked lanes on
                later iterations — per-lane results stay bit-identical
                and ledgers float-equal, the same contract as solo
                capture.  ``None`` (default) takes
                :attr:`default_program_capture`; only adapters declaring
                ``replayable`` capture (CG's mid-iteration lane
                sub-selection keeps it interpreted).

        Returns:
            One :class:`RunResult` per lane, in ``strategies`` order.

        Raises:
            ValueError: when the method has no batched kernels (see
                :func:`repro.solvers.batched.supports_batching`) or a
                strategy instance is repeated.
        """
        specs = list(strategies)
        lanes = len(specs)
        if lanes == 0:
            raise ValueError("run_batch needs at least one strategy lane")
        kernels = batched_kernels_for(self.method, lanes)
        if kernels is None:
            raise ValueError(
                f"{type(self.method).__name__} has no batched kernels; "
                "use the solo run() path (see repro.solvers.batched)"
            )
        policies = [self.resolve_strategy(spec) for spec in specs]
        seen_ids = set()
        for policy in policies:
            if id(policy) in seen_ids:
                raise ValueError(
                    "the same strategy instance was passed for two lanes; "
                    "strategies are stateful per run — pass distinct "
                    "instances (or spec strings)"
                )
            seen_ids.add(id(policy))
        budget = self.method.max_iter if max_iter is None else int(max_iter)
        characterization = self.characterization()
        epsilons = characterization.epsilons()

        capture = (
            self.default_program_capture
            if program_capture is None
            else bool(program_capture)
        ) and bool(getattr(kernels, "replayable", False))
        engine_cls = BatchedProgramEngine if capture else BatchedEngine
        ledger = BatchedEnergyLedger(lanes, observer=observer)
        engines = {
            mode.name: engine_cls(mode, self.fmt, ledger, backend=self.backend)
            for mode in self.bank
        }
        lane_observers: list[Observer | None] = [None] * lanes
        if observer is not None:
            lane_observers = [LaneObserver(observer, i) for i in range(lanes)]
        for policy, lane_observer in zip(policies, lane_observers):
            policy.bind_observer(lane_observer)
        try:
            results = self._run_batch_loop(
                kernels,
                policies,
                budget,
                epsilons,
                ledger,
                engines,
                collect_traces,
                collect_history,
                observer,
                lane_observers,
                capture,
            )
        finally:
            for policy in policies:
                policy.bind_observer(None)
        if observer is not None:
            self._export_cache_metrics(engines, observer)
        return results

    def _run_batch_loop(
        self,
        kernels,
        policies: list[ReconfigurationStrategy],
        budget: int,
        epsilons: dict[str, float],
        ledger: BatchedEnergyLedger,
        engines: dict[str, BatchedEngine],
        collect_traces: bool,
        collect_history: bool,
        observer: Observer | None,
        lane_observers: list[Observer | None],
        capture: bool = False,
    ) -> list[RunResult]:
        """The lane-parallel online loop of :meth:`run_batch`.

        Per-lane control flow replicates :meth:`_run_loop` decision for
        decision; only the ``direction`` / ``update`` kernel calls are
        shared, stacked per mode group.  With ``capture`` on, each mode
        group's engine records its first lock-step iteration and
        replays it thereafter — group recomposition (lanes converging
        out, switching in, or the final remainder group shrinking) does
        *not* invalidate a program, because the compiled steps validate
        per-lane trailing dims only and charge in lane-count-independent
        units; a rollback invalidates every engine's program, mirroring
        the solo loop.
        """
        lanes = len(policies)
        method = self.method
        modes = [policy.start(self.bank, self.characterization()) for policy in policies]
        x0 = method.postprocess(method.initial_state())
        f0 = method.objective(x0)
        # Per-lane gradient telemetry opt-out, mirroring the solo loop.
        g0 = (
            method.gradient(x0)
            if any(policy.needs_gradient for policy in policies)
            else None
        )

        xs = [np.asarray(x0, dtype=np.float64).copy() for _ in range(lanes)]
        f_prev = [f0] * lanes
        grad_prev = [g0 if policy.needs_gradient else None for policy in policies]
        steps_by_mode = [{m.name: 0 for m in self.bank} for _ in range(lanes)]
        mode_trace: list[list[str]] = [[] for _ in range(lanes)]
        objective_trace: list[list[float]] = [[] for _ in range(lanes)]
        history: list[list[IterationState]] = [[] for _ in range(lanes)]
        rollbacks = [0] * lanes
        iterations = [0] * lanes
        converged = [False] * lanes
        executed = [0] * lanes
        done = [budget <= 0] * lanes
        last_mode: list[str | None] = [None] * lanes

        while True:
            active = [i for i in range(lanes) if not done[i]]
            if not active:
                break
            groups: dict[str, list[int]] = {}
            for i in active:
                groups.setdefault(modes[i].name, []).append(i)
            for mode_name, group in groups.items():
                mode = self.bank.by_name(mode_name)
                engine = engines[mode_name]
                ids = np.asarray(group, dtype=np.int64)
                switch_ids = [
                    i
                    for i in group
                    if last_mode[i] is not None and last_mode[i] != mode_name
                ]
                if observer is not None:
                    for i in switch_ids:
                        observer.record(
                            TraceEvent(
                                "mode_switch",
                                executed[i],
                                mode_name,
                                {"previous": last_mode[i], "lane": i},
                            )
                        )
                if self.switch_energy and switch_ids:
                    ledger.charge_lanes(
                        "reconfig",
                        np.asarray(switch_ids, dtype=np.int64),
                        1,
                        self.switch_energy,
                    )
                    if observer is not None:
                        for i in switch_ids:
                            observer.record(
                                TraceEvent(
                                    "reconfig_charge",
                                    executed[i],
                                    mode_name,
                                    {"energy": self.switch_energy, "lane": i},
                                )
                            )
                for i in group:
                    last_mode[i] = mode_name
                engine.select_lanes(ids)
                X = np.stack([xs[i] for i in group])
                if capture:
                    slots = {"X": X}
                    slots.update(kernels.replay_slots(X))
                    engine.begin_iteration(slots)
                if observer is None:
                    D = kernels.direction(X, ids, engine)
                    if capture:
                        engine.bind_slot("D", D)
                    alphas = np.array(
                        [
                            method.step_size(X[row], D[row], iterations[i])
                            for row, i in enumerate(group)
                        ]
                    )
                    X_new = kernels.update(X, alphas, D, ids, engine)
                else:
                    with observer.metrics.time("direction"):
                        D = kernels.direction(X, ids, engine)
                    if capture:
                        engine.bind_slot("D", D)
                    alphas = np.array(
                        [
                            method.step_size(X[row], D[row], iterations[i])
                            for row, i in enumerate(group)
                        ]
                    )
                    with observer.metrics.time("update"):
                        X_new = kernels.update(X, alphas, D, ids, engine)
                execution: str | None = None
                if capture:
                    execution, bail_reason = engine.end_iteration()
                    if observer is not None:
                        if execution == "captured":
                            observer.metrics.inc("program.captures")
                            observer.metrics.inc(
                                f"program.group.{mode_name}.captures"
                            )
                            steps_n = (
                                len(engine.program)
                                if engine.program is not None
                                else 0
                            )
                            for i in group:
                                lane_observers[i].record(
                                    TraceEvent(
                                        "program_capture",
                                        executed[i],
                                        mode_name,
                                        {"steps": steps_n, "lanes": len(group)},
                                    )
                                )
                        elif execution == "replayed":
                            observer.metrics.inc("program.replays")
                            observer.metrics.inc(
                                f"program.group.{mode_name}.replays"
                            )
                        if bail_reason is not None:
                            observer.metrics.inc("program.bailouts")
                            observer.metrics.inc(
                                "program.lane_bailouts", len(group)
                            )
                            for i in group:
                                lane_observers[i].record(
                                    TraceEvent(
                                        "program_bailout",
                                        executed[i],
                                        mode_name,
                                        {
                                            "reason": bail_reason,
                                            "lanes": len(group),
                                        },
                                    )
                                )
                    _emit_fallbacks(
                        engine,
                        observer,
                        executed[group[0]],
                        mode_name,
                        {"lanes": len(group)},
                    )

                for row, i in enumerate(group):
                    x_new = method.postprocess(X_new[row].copy())
                    if observer is None:
                        f_new = method.objective(x_new)
                    else:
                        with observer.metrics.time("objective"):
                            f_new = method.objective(x_new)
                    grad_new = (
                        method.gradient(x_new)
                        if policies[i].needs_gradient
                        else None
                    )
                    executed[i] += 1

                    tolerance_pass = method.converged(f_prev[i], f_new)
                    fixed_point = bool(np.array_equal(x_new, xs[i]))

                    obs = Observation(
                        iteration=executed[i] - 1,
                        x_prev=xs[i],
                        x_new=x_new,
                        f_prev=f_prev[i],
                        f_new=f_new,
                        grad_prev=grad_prev[i],
                        grad_new=grad_new,
                        mode=mode,
                        epsilon=epsilons[mode_name],
                        converged=tolerance_pass,
                    )
                    decision: Decision = policies[i].decide(obs)
                    lane_observer = lane_observers[i]

                    if collect_traces:
                        mode_trace[i].append(mode_name)
                        objective_trace[i].append(f_new)

                    if decision.rollback and not fixed_point:
                        if lane_observer is not None:
                            detail = {
                                "objective": f_new,
                                "accepted": False,
                                "reason": decision.reason,
                            }
                            if execution is not None:
                                detail["execution"] = execution
                            lane_observer.record(
                                TraceEvent(
                                    "iteration",
                                    executed[i] - 1,
                                    mode_name,
                                    detail,
                                )
                            )
                        if capture:
                            # Mirror the solo loop: the retried iteration
                            # starts from the same X on an escalated
                            # mode, so recorded saturation envelopes no
                            # longer describe the regime — every engine
                            # re-records its next lock-step iteration.
                            for eng in engines.values():
                                eng.invalidate_program()
                        if mode.is_accurate and decision.mode.is_accurate:
                            converged[i] = True
                            done[i] = True
                        else:
                            rollbacks[i] += 1
                            if lane_observer is not None:
                                lane_observer.record(
                                    TraceEvent(
                                        "rollback",
                                        executed[i] - 1,
                                        mode_name,
                                        {"next_mode": decision.mode.name},
                                    )
                                )
                            modes[i] = decision.mode
                    else:
                        # Iteration accepted.
                        iterations[i] += 1
                        steps_by_mode[i][mode_name] += 1
                        if lane_observer is not None:
                            detail = {
                                "objective": f_new,
                                "accepted": True,
                                "reason": decision.reason,
                            }
                            if execution is not None:
                                detail["execution"] = execution
                            lane_observer.record(
                                TraceEvent(
                                    "iteration",
                                    executed[i] - 1,
                                    mode_name,
                                    detail,
                                )
                            )
                        if collect_history:
                            history[i].append(
                                IterationState(
                                    iteration=iterations[i] - 1,
                                    x=x_new.copy(),
                                    objective=f_new,
                                    mode_name=mode_name,
                                )
                            )
                        xs[i], f_prev[i], grad_prev[i] = x_new, f_new, grad_new

                        if tolerance_pass or fixed_point:
                            if (
                                policies[i].verify_convergence
                                and not mode.is_accurate
                            ):
                                next_mode = policies[i].on_premature_convergence(
                                    mode
                                )
                                if lane_observer is not None:
                                    lane_observer.record(
                                        TraceEvent(
                                            "convergence_handover",
                                            executed[i] - 1,
                                            mode_name,
                                            {"next_mode": next_mode.name},
                                        )
                                    )
                                modes[i] = next_mode
                            else:
                                converged[i] = True
                                done[i] = True
                        else:
                            modes[i] = decision.mode

                    if not done[i] and executed[i] >= budget:
                        done[i] = True

        return [
            self._lane_result(
                i,
                policies[i],
                ledger,
                xs[i],
                f_prev[i],
                iterations[i],
                rollbacks[i],
                converged[i],
                steps_by_mode[i],
                mode_trace[i],
                objective_trace[i],
                history[i],
            )
            for i in range(lanes)
        ]

    @staticmethod
    def _lane_result(
        lane: int,
        policy: ReconfigurationStrategy,
        ledger: BatchedEnergyLedger,
        x: np.ndarray,
        objective: float,
        iterations: int,
        rollbacks: int,
        converged: bool,
        steps_by_mode: dict[str, int],
        mode_trace: list[str],
        objective_trace: list[float],
        history: list[IterationState],
    ) -> RunResult:
        lane_ledger = ledger.lane_ledger(lane)
        return RunResult(
            x=x,
            objective=objective,
            iterations=iterations,
            rollbacks=rollbacks,
            converged=converged,
            hit_max_iter=not converged,
            steps_by_mode=steps_by_mode,
            energy=lane_ledger.energy,
            energy_by_mode=dict(lane_ledger.energy_by_mode),
            strategy_name=policy.name,
            mode_trace=mode_trace,
            objective_trace=objective_trace,
            history=history,
        )
