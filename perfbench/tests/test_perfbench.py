"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _prepared(name: str):
    workload = workloads.make_workload(name, seed=3, tiny=True)
    workload.setup()
    workload.prepare()
    return workload


def test_workload_list_matches_run_py():
    assert tuple(WORKLOADS) == run.WORKLOADS


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, section):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_a_wrong_solo_oracle_raises_fail_frac():
    workload = _prepared("jacobi240-incremental")
    workload.oracle = dataclasses.replace(workload.oracle, x=workload.oracle.x + 1e-3)
    samples = run.measure(workload, seconds=0.05)
    assert samples.attempted >= 1
    assert len(samples.failures) == samples.attempted
    assert samples.stats is None


def test_a_wrong_sweep_lane_oracle_raises_fail_frac():
    workload = _prepared("sweep-gmm-batched")
    key = ("4cluster", "adaptive")
    workload.oracle[key] = dataclasses.replace(
        workload.oracle[key], energy=workload.oracle[key].energy * 2
    )
    samples = run.measure(workload, seconds=0.05)
    assert len(samples.failures) == samples.attempted >= 1
    assert "4cluster/adaptive" in samples.failures[0]


@pytest.mark.parametrize("name", ["jacobi240-incremental", "ar-sp500-adaptive", "sweep-gmm-batched"])
def test_span_self_times_sum_to_the_root_op_span(name):
    from repro.arith.engine import ApproxEngine

    original = ApproxEngine.__dict__["matvec"]
    workload = _prepared(name)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        workload.setup(backend=tracing.timing_backend(tracer), tracer=tracer)
        samples = run.measure(workload, 0.05, tracer)
    assert ApproxEngine.__dict__["matvec"] is original  # patches undone
    assert not samples.failures
    own = tracer.self_times()
    roots = [s for s in tracer.spans if s.name == tracing.ROOT]
    assert len(roots) == samples.attempted
    for root in roots:
        members = [i for i, s in enumerate(tracer.spans) if s.op == root.op]
        assert len(members) > 1
        assert all(own[i] > -1e-9 for i in members)
        assert sum(own[i] for i in members) == pytest.approx(
            root.end - root.start, rel=1e-9, abs=1e-12
        )


@pytest.mark.parametrize("kind", ["bulk", "interp"])
def test_every_op_is_paired_with_the_reference_runs_around_it(kind):
    workload = _prepared("jacobi240-truth")
    reference = run.Reference(kind)
    reference.fit(0.5)
    assert reference.reps >= 1
    samples = run.measure(workload, 0.05, reference=reference)
    assert not samples.failures
    assert len(samples.ratios) == len(samples.times) == samples.attempted
    assert len(samples.ref_times) == samples.attempted + 1
    for i, (op_s, ratio) in enumerate(zip(samples.times, samples.ratios)):
        around = samples.ref_times[i] + samples.ref_times[i + 1]
        assert ratio == pytest.approx(op_s * 2 / around)


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(1, 101)]
    value, pct = run.tail(times)
    assert pct == 90 and value == 90.0
    assert sum(t > value for t in times) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100)
