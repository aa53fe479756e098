#!/usr/bin/env python3
"""Closed-loop benchmark of the ApproxIt reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload jacobi240-incremental --seed 17 \
        --seconds 20 --trace 0

One client runs one workload's op over and over, the next op starting
only when the previous one returns, for ``--seconds`` seconds.  Every
op's output is checked against an interpreted reference run outside the
timed interval.  ``--trace 0`` reports the end-to-end metrics, measured
with tracing off; op times are reported in units of a fixed reference
kernel timed between consecutive ops (see :class:`Reference`).
``--trace 1`` spends half the time untraced and half traced and reports
the per-layer breakdown.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload, each in its own process.

The package is imported from ``src/`` next to this directory and from
nowhere else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOADS = (
    "jacobi240-incremental",
    "jacobi240-truth",
    "ar-sp500-adaptive",
    "sweep-gmm-batched",
)
#: Extra set-ups timed in fresh processes; ``setup_s`` is the median of
#: these and the measuring process's own set-up.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
#: Rounds of one run of each reference kernel (10-16 ms each on the
#: 2-vCPU x86_64 VM of the README baseline).
REFERENCE_ROUNDS = {"bulk": 100, "interp": 2500}
#: Share of the loop's time the reference runs may take on slow ops.
REFERENCE_SHARE = 0.05


def pin_environment() -> dict[str, str]:
    """Run BLAS/OpenMP single-threaded, force the NumPy reference
    backend and keep the characterization disk cache off.  Must run
    before NumPy is imported.

    The loop has one client, and the BLAS calls here are small (at most
    16080×10).  A second OpenBLAS thread bought no speed on them, spun a
    second core, and made ops up to six times slower whenever that core
    was busy with other work.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in ("REPRO_BACKEND", "REPRO_CHAR_CACHE"):
        os.environ.pop(var, None)
    return {var: os.environ[var] for var in THREAD_VARS[:3]}


def import_package() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no package source at {src / 'repro'}")
    sys.path.insert(1, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"imported repro from {repro.__file__}, not from {src}")


def fingerprint(threads: dict[str, str]) -> dict:
    import numpy
    import scipy

    uname = platform.uname()
    return {
        "machine": uname.machine,
        "system": f"{uname.system} {uname.release}",
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
class Reference:
    """A fixed kernel, owned by the benchmark, timed between ops.

    The machine this benchmark runs on is shared, and its speed drifts
    by tens of percent within a minute; a run's median op time follows
    the drift.  The reference never changes with the program, so an op's
    time divided by the reference time measured around it cancels most
    of the drift.  That quotient is the ``ref`` unit of the end-to-end
    metrics.  Drift slows array code and interpreter-bound code by
    different amounts, so each workload names the kernel closest to its
    own work:

    * ``bulk``: NumPy ``int64`` products, shifts and row sums over a
      240x240 operand in a Python loop, with 460 KB temporaries;
    * ``interp``: Python-level arithmetic, dict stores and NumPy calls on
      8-element arrays, where call overhead dominates.
    """

    def __init__(self, kind: str = "bulk"):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.integers(-(1 << 20), 1 << 20, size=(240, 240))
        self.vector = rng.integers(-(1 << 20), 1 << 20, size=240)
        self.small = np.arange(8, dtype=np.float64)
        self._kernel = {"bulk": self._bulk, "interp": self._interp}[kind]
        self.kind = kind
        self.reps = 1
        self._equal = np.array_equal
        self.expected = self._kernel()

    def _bulk(self):
        x = self.vector
        for _ in range(REFERENCE_ROUNDS["bulk"]):
            x = (((self.matrix * x) >> 8).sum(axis=1) >> 8) & 0xFFFFF
        return x

    def _interp(self):
        acc, table = 0.0, {}
        for i in range(REFERENCE_ROUNDS["interp"]):
            v = self.small * (i & 7) + 1.0
            acc += float(v.sum()) / (1.0 + float(v.max()))
            table[i & 63] = acc
        return acc

    def time(self) -> float:
        """Wall time of one kernel run, the mean over ``reps`` runs."""
        t0 = time.perf_counter()
        for _ in range(self.reps):
            out = self._kernel()
        elapsed = (time.perf_counter() - t0) / self.reps
        if not self._equal(out, self.expected):
            raise RuntimeError("the reference kernel computed a different result")
        return elapsed

    def fit(self, op_s: float) -> None:
        """Repeat the kernel so that it takes about ``REFERENCE_SHARE`` of
        an op of ``op_s`` seconds (at least once), sampling the machine's
        speed over longer stretches when ops are long."""
        self.reps = 1
        one = min(self.time() for _ in range(3))
        self.reps = max(1, round(REFERENCE_SHARE * op_s / one))


class Samples:
    """Op wall times plus the failure ledger of one measuring phase."""

    def __init__(self):
        self.times: list[float] = []
        #: With a reference, each op's time over the mean reference time
        #: measured just before and just after it.
        self.ratios: list[float] = []
        self.ref_times: list[float] = []
        self.stats = None
        self.attempted = 0
        self.failures: list[str] = []
        #: Per traced op, the observer's counters.
        self.counters: list[dict] = []

    def add_failure(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)


def measure(workload, seconds: float, tracer=None, first_op: int = 1,
            reference: Reference | None = None) -> Samples:
    """Run ops back to back for ``seconds`` and check each one.

    With a ``reference``, the reference kernel is timed before the first
    op and after every op, and each op's time over the mean of the two
    reference times around it goes to ``samples.ratios``.  With a
    ``tracer`` each op runs under a root span and a fresh
    :class:`~repro.obs.observer.TraceRecorder`, whose counters are kept
    per op in ``samples.counters``; the op's minor page faults add to
    ``tracer.counts``.
    """
    from repro.obs.observer import TraceRecorder

    samples = Samples()
    deadline = time.perf_counter() + seconds
    op_id = first_op
    if reference is not None:
        samples.ref_times.append(reference.time())
    while True:
        samples.attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = workload.op()
                samples.times.append(time.perf_counter() - t0)
                if reference is not None:
                    before = samples.ref_times[-1]
                    samples.ref_times.append(reference.time())
                    samples.ratios.append(samples.times[-1] * 2 / (before + samples.ref_times[-1]))
            else:
                tracer.recorder = TraceRecorder()
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                with tracer.root(op_id):
                    out = workload.op(observer=tracer.recorder)
                samples.times.append(time.perf_counter() - t0)
                tracer.counts["proc.minor_faults"] += (
                    resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                )
                samples.counters.append(tracer.recorder.metrics.counters)
                tracer.recorder = None
        except Exception:  # one failing op must not end the run
            samples.add_failure(f"op {op_id} raised:\n{traceback.format_exc()}")
        else:
            problem = workload.check(out)
            if problem is not None:
                samples.add_failure(f"op {op_id} output check: {problem}")
            else:
                stats = workload.stats(out)
                if samples.stats is None:
                    samples.stats = stats
                elif stats != samples.stats:
                    samples.add_failure(f"op {op_id} outputs changed: {stats} != {samples.stats}")
        op_id += 1
        if time.perf_counter() >= deadline:
            return samples


def tail(times: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), as ``(value, percentile)``.  Below 20 samples no
    percentile at or above the median qualifies; the maximum is reported
    as percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = -(-pct * n // 100)  # ceil(pct * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100


def _self_command(workload: str, seed: int | None, tiny: bool, *extra: str) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, *extra]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    return cmd


def probe_setup(workload: str, seed: int | None, tiny: bool) -> float:
    """Time one cold set-up in a fresh interpreter."""
    done = subprocess.run(
        _self_command(workload, seed, tiny, "--setup-probe"),
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def end_to_end(samples: Samples, setups: list[float], reference_kind: str) -> tuple[dict, list[str]]:
    stats = samples.stats
    n = len(samples.times)
    p50 = statistics.median(samples.times)
    tail_s, tail_pct = tail(samples.times)
    ref_p50 = statistics.median(samples.ratios)
    ref_tail, ref_tail_pct = tail(samples.ratios)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ref.p50": (ref_p50, "ref"),
        "op_ref.tail": (ref_tail, "ref"),
        "iters_per_ref": (stats.executed / ref_p50, "1/ref"),
        "rss_mb": (peak_rss_mb(), "MB"),
        "energy_rel": (stats.energy_rel, "ratio"),
        "iterations": (float(stats.executed), "count"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} cold set-ups",
        "op_ref.p50": f"n={n}",
        "op_ref.tail": f"p{ref_tail_pct}, n={n}",
        "iterations": "executed per op, rolled-back included",
    }
    lines = [_line(name, value, unit, notes.get(name)) for name, (value, unit) in metrics.items()]
    # Wall-clock figures, printed but not gated: they follow the machine.
    lines.append(_line("op_s.p50", p50, "s", f"n={n}"))
    lines.append(_line("op_s.tail", tail_s, "s", f"p{tail_pct}, n={n}"))
    lines.append(_line("iters_per_s", stats.executed / p50, "1/s"))
    lines.append(_line("ref_s", statistics.median(samples.ref_times), "s",
                       f"one {reference_kind} reference run, median of {len(samples.ref_times)}"))
    lines.append(_line("quality_err", stats.quality_err, "ratio/count", "against Truth"))
    lines.append(
        _line("fail_frac", len(samples.failures) / samples.attempted, "ratio",
              f"{len(samples.failures)} of {samples.attempted} ops")
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, lines


def _line(name, value, unit, note=None):
    text = f"  {name:<28} {value:>14.6g} {unit}"
    return f"{text}  ({note})" if note else text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the paper instances)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --trace 1, write every span as a JSON line to this file")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads = pin_environment()
    if args.workload == "all":
        return run_all(args)
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import workloads

    import_s = time.perf_counter() - T_START
    workload = workloads.make_workload(args.workload, args.seed, args.tiny)
    t0 = time.perf_counter()
    workload.setup()
    setup_s = import_s + (time.perf_counter() - t0)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    print(f"# env {json.dumps(fingerprint(threads), sort_keys=True)}")
    workload.prepare()
    if args.trace == 0:
        setups = [setup_s] + [
            probe_setup(args.workload, args.seed, args.tiny) for _ in range(SETUP_PROBES)
        ]
        reference = Reference(workload.reference)
        t0 = time.perf_counter()
        workload.op()  # warm-up, untimed
        reference.fit(time.perf_counter() - t0)
        phases = [measure(workload, args.seconds, reference=reference)]
        if phases[0].stats is None:
            return _no_result()
        metrics, lines = end_to_end(phases[0], setups, reference.kind)
    else:
        import tracing
        from repro.arith.modes import default_mode_bank

        phases = [measure(workload, args.seconds / 2)]
        if phases[0].stats is None:
            return _no_result()
        tracer = tracing.Tracer()
        with tracing.instrument(tracer) as batch:
            with tracer.span("setup"):
                workload.setup(backend=tracing.timing_backend(tracer), tracer=tracer)
            phases.append(
                measure(workload, args.seconds / 2, tracer, first_op=phases[0].attempted + 1)
            )
        if args.spans is not None:
            tracer.write(args.spans)
        if phases[1].stats is None:
            return _no_result()
        metrics, lines = tracing.per_layer(
            tracer,
            batch,
            phases[1],
            untraced_p50=statistics.median(phases[0].times),
            exact_mode=default_mode_bank().accurate.name,
        )
    for line in lines:
        print(line)
    failed = sum(len(p.failures) for p in phases)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _no_result() -> int:
    print("perfbench: no op completed with a correct output", file=sys.stderr)
    return 1


def run_all(args) -> int:
    """Every workload in its own process (peak memory is per process);
    prints each one's report and a combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = _self_command(name, args.seed, args.tiny,
                            "--seconds", str(args.seconds), "--trace", str(args.trace))
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"# {name}: exited with status {done.returncode}")
            status = status or done.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
