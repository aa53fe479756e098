"""Tests for the Eq.-5 LP solver and the angle lookup table.

The closed-form solver is checked against SciPy's HiGHS, kept here as a
test-only oracle: generated LPs aimed at the closed form's tie and
boundary rules, and whole adaptive runs whose decisions must not move.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.apps import AutoRegression
from repro.core.framework import ApproxIt
from repro.core.strategies import adaptive
from repro.core.strategies.adaptive import (
    AngleLookupTable,
    relative_budget,
    solve_energy_lp,
)
from repro.data.timeseries import make_sp500
from repro.solvers.linear import JacobiSolver

ENERGIES = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
EPSILONS = np.array([1e-1, 1e-3, 1e-5, 1e-7, 0.0])


class TestSolveEnergyLp:
    def test_loose_budget_prefers_cheapest(self):
        omega = solve_energy_lp(ENERGIES, EPSILONS, budget=1.0)
        assert omega.argmax() == 0
        assert omega[0] > 0.9

    def test_tight_budget_prefers_accurate(self):
        omega = solve_energy_lp(ENERGIES, EPSILONS, budget=1e-12)
        assert omega.argmax() == len(ENERGIES) - 1

    def test_shares_form_distribution(self):
        for budget in (1e-12, 1e-6, 1e-3, 0.5):
            omega = solve_energy_lp(ENERGIES, EPSILONS, budget)
            assert omega.sum() == pytest.approx(1.0)
            assert (omega > 0).all()

    def test_error_constraint_respected(self):
        for budget in (1e-6, 1e-4, 1e-2):
            omega = solve_energy_lp(ENERGIES, EPSILONS, budget, min_weight=1e-9)
            assert float(omega @ EPSILONS) <= budget * (1 + 1e-6)

    def test_intermediate_budget_uses_intermediate_mode(self):
        # Budget below eps2 but above eps3: level3-heavy allocation.
        omega = solve_energy_lp(ENERGIES, EPSILONS, budget=5e-5, min_weight=1e-9)
        assert omega.argmax() == 2

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="lengths"):
            solve_energy_lp(ENERGIES, EPSILONS[:3], 0.1)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="budget"):
            solve_energy_lp(ENERGIES, EPSILONS, -0.1)

    def test_rejects_infeasible_min_weight(self):
        with pytest.raises(ValueError, match="min_weight"):
            solve_energy_lp(ENERGIES, EPSILONS, 0.1, min_weight=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("argument", ["energies", "epsilons", "budget"])
    def test_rejects_non_finite_inputs(self, argument, bad):
        args = {"energies": ENERGIES.copy(), "epsilons": EPSILONS.copy(), "budget": 1e-3}
        if argument == "budget":
            args["budget"] = bad
        else:
            args[argument][2] = bad
        with pytest.raises(ValueError, match="must be finite"):
            solve_energy_lp(**args)

    @given(st.floats(min_value=0, max_value=1.0))
    @settings(max_examples=100)
    def test_monotone_budget_monotone_energy(self, budget):
        # More budget can only reduce (or keep) the optimal energy.
        omega_loose = solve_energy_lp(ENERGIES, EPSILONS, budget + 0.01)
        omega_tight = solve_energy_lp(ENERGIES, EPSILONS, budget)
        assert float(omega_loose @ ENERGIES) <= float(omega_tight @ ENERGIES) + 1e-9


def _floor_error(eps, min_weight):
    """The least reachable error ``Omegaᵀ eps``, rounded as the closed
    form rounds it, so generated budgets land on its edges exactly."""
    eps = np.asarray(eps, dtype=np.float64).tolist()
    return min_weight * sum(eps) + (1 - len(eps) * min_weight) * min(eps)


def highs_energy_lp(energies, epsilons, budget, min_weight=1e-3):
    """The Eq.-5 LP through HiGHS, with the closed form's infeasible
    branch.  Tolerances are tightened from HiGHS's defaults (1e-7,
    absolute), which admit a constraint violation large enough to move
    the cost by more than the 1e-9 the comparison asserts."""
    energies = np.asarray(energies, dtype=np.float64)
    epsilons = np.asarray(epsilons, dtype=np.float64)
    n = energies.shape[0]
    if budget < _floor_error(epsilons, min_weight):
        omega = np.full(n, min_weight)
        omega[int(np.argmin(epsilons))] += 1 - n * min_weight
        return omega
    result = linprog(
        c=energies,
        A_ub=epsilons[np.newaxis, :],
        b_ub=[budget],
        A_eq=np.ones((1, n)),
        b_eq=[1.0],
        bounds=[(min_weight, 1.0)] * n,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert result.success, result.message
    omega = np.maximum(result.x, min_weight)
    return omega / omega.sum()


#: Errors stay at or above 1e-7 (or exactly 0), as characterized ladders
#: do: HiGHS drops matrix entries below 1e-9 as zeros.
_EPS = st.one_of(st.just(0.0), st.floats(1e-7, 1.0))
_ENERGY = st.floats(0.05, 1.0)


@st.composite
def energy_lps(draw):
    """An Eq.-5 LP with the closed form's edges in reach: tied eps,
    tied J, collinear (eps, J) points, eps out of ladder order, and
    budgets exactly at a vertex's eps, at the floor and one ulp below."""
    n = draw(st.integers(1, 6))
    min_weight = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    eps = draw(st.lists(_EPS, min_size=n, max_size=n))
    energies = draw(st.lists(_ENERGY, min_size=n, max_size=n))
    if draw(st.booleans()):
        # A ladder: cost falls as error rises, so every mode sits on the
        # decreasing chain and only convexity decides the vertices.
        eps.sort()
        energies.sort(reverse=True)
    if n >= 2 and draw(st.booleans()):
        eps[1] = eps[0]
    if n >= 2 and draw(st.booleans()):
        energies[-1] = energies[0]
    if n >= 3 and draw(st.booleans()):
        # Put the last mode on the line through the first two.
        if eps[0] != eps[1]:
            slope = (energies[1] - energies[0]) / (eps[1] - eps[0])
            eps[-1] = max(eps[0], eps[1]) * draw(st.floats(1.0, 3.0))
            energies[-1] = energies[0] + slope * (eps[-1] - eps[0])
    order = draw(st.permutations(range(n)))
    eps = np.array([eps[i] for i in order])
    energies = np.array([energies[i] for i in order])
    free = 1 - n * min_weight
    floor_mass = min_weight * sum(eps.tolist())
    floor_error = _floor_error(eps, min_weight)
    kind = draw(st.sampled_from(["free", "between", "vertex", "floor", "below-floor"]))
    if kind == "between":
        lo, hi = float(eps.min()), float(eps.max())
        budget = floor_mass + free * (lo + draw(st.floats(0.0, 1.0)) * (hi - lo))
    elif kind == "vertex":
        budget = floor_mass + free * float(eps[draw(st.integers(0, n - 1))])
    elif kind == "floor":
        budget = floor_error
    elif kind == "below-floor":
        budget = float(np.nextafter(floor_error, -np.inf))
    else:
        budget = draw(st.floats(0.0, 1.0))
    return energies, eps, max(budget, 0.0), min_weight


class TestClosedFormMatchesHighs:
    @given(energy_lps())
    @settings(max_examples=400, deadline=None)
    def test_cost_feasibility_and_support(self, lp):
        energies, eps, budget, min_weight = lp
        omega = solve_energy_lp(energies, eps, budget, min_weight)
        oracle = highs_energy_lp(energies, eps, budget, min_weight)
        assert float(omega @ energies) == pytest.approx(
            float(oracle @ energies), rel=1e-9
        )
        if budget >= _floor_error(eps, min_weight):
            assert float(omega @ eps) <= budget * (1 + 1e-12)
        assert float(omega.min()) >= min_weight
        assert int((omega > min_weight).sum()) <= 2
        assert float(omega.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_mixes_around_a_vertex_above_the_envelope(self):
        # Mode 1 lies above the line from mode 0 to mode 2: the optimum
        # skips it and splits the free mass between modes 0 and 2.
        energies = np.array([1.0, 0.9, 0.2])
        eps = np.array([0.0, 0.5, 1.0])
        omega = solve_energy_lp(energies, eps, budget=0.5, min_weight=1e-9)
        np.testing.assert_allclose(omega, [0.5, 1e-9, 0.5], rtol=1e-8)
        assert float(omega @ energies) == pytest.approx(
            float(highs_energy_lp(energies, eps, 0.5, 1e-9) @ energies), rel=1e-9
        )

    @pytest.mark.parametrize("case", ["jacobi24", "ar-tiny"])
    def test_adaptive_runs_are_bit_identical(self, case, monkeypatch):
        """The LUT the closed form builds makes every decision HiGHS's
        would: whole adaptive runs agree bit for bit."""
        if case == "jacobi24":
            n = 24
            matrix = 2.05 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
            rhs = np.random.default_rng(17).uniform(-2.0, 2.0, n)
            method = JacobiSolver(matrix, rhs, max_iter=60, tolerance=1e-9)
        else:
            dataset = make_sp500()
            dataset = dataclasses.replace(dataset, prices=dataset.prices[:400], max_iter=40)
            method = AutoRegression.from_dataset(dataset)
        framework = ApproxIt(method)
        closed = framework.run(strategy="adaptive")
        monkeypatch.setattr(adaptive, "solve_energy_lp", highs_energy_lp)
        oracle = framework.run(strategy="adaptive")
        np.testing.assert_array_equal(closed.x, oracle.x)
        assert closed.iterations == oracle.iterations
        assert closed.rollbacks == oracle.rollbacks
        assert closed.steps_by_mode == oracle.steps_by_mode
        assert closed.mode_trace == oracle.mode_trace
        assert closed.energy == oracle.energy


class TestAngleLut:
    def test_spans_cover_range(self):
        lut = AngleLookupTable.from_shares(np.array([0.5, 0.3, 0.2]))
        # Spans from flat to steep: mode2 [0,18), mode1 [18,45), mode0 [45,90].
        assert lut.lookup(89.0) == 0
        assert lut.lookup(30.0) == 1
        assert lut.lookup(5.0) == 2

    def test_boundaries_clip(self):
        lut = AngleLookupTable.from_shares(np.array([0.5, 0.5]))
        assert lut.lookup(-10.0) == 1  # below 0 -> flattest -> accurate
        assert lut.lookup(200.0) == 0

    def test_zero_angle_most_accurate(self):
        lut = AngleLookupTable.from_shares(np.array([0.9, 0.05, 0.05]))
        assert lut.lookup(0.0) == 2

    def test_degenerate_share_still_lookupable(self):
        lut = AngleLookupTable.from_shares(np.array([1.0, 0.0]))
        assert lut.lookup(45.0) == 0

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError, match="distribution"):
            AngleLookupTable.from_shares(np.array([0.5, 0.2]))


class TestRelativeBudget:
    def test_normalizes_by_previous(self):
        assert relative_budget(2.0, 1.0) == pytest.approx(0.5)

    def test_absolute_value(self):
        assert relative_budget(1.0, 2.0) == pytest.approx(1.0)

    def test_guards_zero_objective(self):
        assert np.isfinite(relative_budget(0.0, 1e-8))
