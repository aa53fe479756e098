"""Recovered capture/replay failures are counted and reported.

Chain speculation and program compilation both recover from a raised
failure instead of propagating it.  Each recovery must bump its counter
in ``cache_stats()`` (``speculation_aborts`` / ``captures_unsupported``)
and surface as exactly one ``program_fallback`` trace event naming the
exception type, while the run's results stay bit-identical.
"""

import numpy as np

from repro.arith import program
from repro.core.framework import ApproxIt
from repro.obs import TraceRecorder, summarize_trace
from repro.solvers.linear import JacobiSolver


def _framework():
    n = 24
    matrix = 2.05 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    rhs = np.random.default_rng(11).uniform(-2.0, 2.0, n)
    framework = ApproxIt(JacobiSolver(matrix, rhs, max_iter=30, tolerance=1e-9))
    framework.characterization()
    return framework


def _fallback_events(recorder):
    return [e for e in recorder.events if e.kind == "program_fallback"]


def _assert_same_run(a, b):
    np.testing.assert_array_equal(a.x, b.x)
    assert a.iterations == b.iterations
    assert a.energy == b.energy
    assert a.energy_by_mode == b.energy_by_mode


def test_speculation_abort_is_counted_and_reported(monkeypatch):
    framework = _framework()
    expected = framework.run(strategy="static:acc")

    # The residual chain (matvec -> sub) speculates the sub at the
    # matvec's dispatch; make the first speculative sub raise.
    original = program._SubStep.replay
    calls = {"n": 0}

    def flaky(self, engine, args):
        calls["n"] += 1
        if calls["n"] == 1 and engine._executor is not None:
            raise ArithmeticError("speculated tail failed")
        return original(self, engine, args)

    monkeypatch.setattr(program._SubStep, "replay", flaky)
    recorder = TraceRecorder()
    run = framework.run(strategy="static:acc", observer=recorder)
    _assert_same_run(run, expected)

    events = _fallback_events(recorder)
    assert len(events) == 1
    assert events[0].detail == {
        "reason": "speculation_abort",
        "error": "ArithmeticError",
    }
    assert recorder.metrics.counters["program.fallbacks.speculation_abort"] == 1
    assert recorder.metrics.gauges["engine.acc.speculation_aborts"] == 1
    assert summarize_trace(recorder.events).program_fallbacks == {
        "speculation_abort": 1
    }


def test_unsupported_capture_is_counted_and_reported(monkeypatch):
    framework = _framework()
    expected = framework.run(strategy="static:acc", program_capture=False)

    def broken(self, engine, slots):
        raise NotImplementedError("structure the compiler cannot express")

    monkeypatch.setattr(program.ProgramRecorder, "finalize", broken)
    recorder = TraceRecorder()
    run = framework.run(strategy="static:acc", observer=recorder)
    _assert_same_run(run, expected)

    events = _fallback_events(recorder)
    assert [e.detail for e in events] == [
        {"reason": "capture_unsupported", "error": "NotImplementedError"}
    ]
    assert recorder.metrics.gauges["engine.acc.captures_unsupported"] == 1
    # The engine stays interpreted for good: nothing is replayed.
    assert recorder.metrics.counters.get("program.replays", 0) == 0


def test_unsupported_batched_capture_is_counted_and_reported(monkeypatch):
    framework = _framework()
    expected = framework.run(strategy="static:acc", program_capture=False)

    def broken(recorder, engine, slots, lanes):
        raise NotImplementedError("lane structure the compiler cannot express")

    monkeypatch.setattr(program, "_finalize_batched", broken)
    recorder = TraceRecorder()
    runs = framework.run_batch(["static:acc", "static:acc"], observer=recorder)
    for run in runs:
        _assert_same_run(run, expected)

    events = _fallback_events(recorder)
    assert [e.detail for e in events] == [
        {
            "reason": "capture_unsupported",
            "error": "NotImplementedError",
            "lanes": 2,
        }
    ]
