"""Fused-replay parity: the program executor's backend fast paths
(in-range product-encode-reduce, deferred-negation sub, fused
scale-add, chain speculation) against the interpreted oracle.

The capture/replay contract is *bit-identical words and float-equal
ledgers* — the fused paths are admissible only because each carries an
interval proof that the reference clip/mask/scan it skips is a no-op.
These tests run full solves per registered backend and compare against
``program_capture=False`` (the interpreted op-by-op executor), which is
itself contract-checked against the legacy engine elsewhere.  Any
backend present in the registry is held to the same parity bar.
"""

import numpy as np
import pytest

from repro.backends import available_backends
from repro.core.framework import ApproxIt
from repro.solvers.linear import JacobiSolver

BACKENDS = available_backends()


def _jacobi(n=48, max_iter=80, backend=None):
    matrix = 2.05 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    rhs = np.random.default_rng(17).uniform(-2.0, 2.0, n)
    return ApproxIt(
        JacobiSolver(matrix, rhs, max_iter=max_iter, tolerance=1e-9),
        backend=backend,
    )


def _assert_run_parity(fused, oracle):
    np.testing.assert_array_equal(fused.x, oracle.x)
    assert fused.iterations == oracle.iterations
    assert fused.rollbacks == oracle.rollbacks
    assert fused.energy == oracle.energy
    assert fused.energy_by_mode == oracle.energy_by_mode


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_jacobi_exact_mode_fused_replay_matches_interpreted(backend_name):
    """``static:acc`` is where every fused path fires: the exact adder
    admits the matvec product-reduce, the residual sub's in-range
    shortcut, the scale-add encode fusion and the matvec→sub chain
    speculation.  One full solve must be bit-identical to the
    interpreted oracle anyway."""
    framework = _jacobi(backend=backend_name)
    fused = framework.run(strategy="static:acc")
    oracle = framework.run(strategy="static:acc", program_capture=False)
    _assert_run_parity(fused, oracle)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_jacobi_adaptive_fused_replay_matches_interpreted(backend_name):
    """The adaptive strategy crosses approximate modes (where the fused
    proofs must *decline*) and mode switches (where each mode replays
    its own program);
    parity must hold across every transition."""
    framework = _jacobi(backend=backend_name)
    fused = framework.run(strategy="adaptive")
    oracle = framework.run(strategy="adaptive", program_capture=False)
    _assert_run_parity(fused, oracle)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_jacobi_incremental_fused_replay_matches_interpreted(backend_name):
    framework = _jacobi(backend=backend_name)
    fused = framework.run(strategy="incremental")
    oracle = framework.run(strategy="incremental", program_capture=False)
    _assert_run_parity(fused, oracle)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_explicit_backend_matches_default_registry_resolution(backend_name):
    """Selecting a backend explicitly must not change results — every
    backend is bit-identical by contract, so the words (and ledgers)
    agree across backends, not just within one."""
    base = _jacobi().run(strategy="static:acc")
    other = _jacobi(backend=backend_name).run(strategy="static:acc")
    _assert_run_parity(other, base)


def test_repeated_replay_is_deterministic():
    """Speculation memoization and reused encode buffers must not leak
    state between runs: three consecutive solves agree bit-for-bit."""
    framework = _jacobi()
    runs = [framework.run(strategy="static:acc") for _ in range(3)]
    for run in runs[1:]:
        _assert_run_parity(run, runs[0])
