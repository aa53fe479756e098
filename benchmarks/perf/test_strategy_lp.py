"""The adaptive strategy's Eq.-5 energy LP: closed form vs HiGHS.

``solve_energy_lp`` runs on every f-step LUT refresh — once per
iteration at the paper's f=1 — so its cost sits inside the control
loop.  This benchmark sweeps the error budget across the autoregression
workload's characterized ``(J, eps)`` and times the closed-form
envelope solve against SciPy's ``linprog(method="highs")`` on the same
LPs, after asserting the two reach the same optimal cost on every one.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.apps import AutoRegression
from repro.core.framework import ApproxIt
from repro.core.strategies.adaptive import solve_energy_lp
from repro.data.timeseries import make_sp500

#: The adaptive strategy's default share floor.
MIN_WEIGHT = 1e-6


def _highs(energies, epsilons, budget):
    n = energies.shape[0]
    result = linprog(
        c=energies,
        A_ub=epsilons[np.newaxis, :],
        b_ub=[budget],
        A_eq=np.ones((1, n)),
        b_eq=[1.0],
        bounds=[(MIN_WEIGHT, 1.0)] * n,
        method="highs",
    )
    assert result.success, result.message
    return result.x


def test_energy_lp_closed_form_vs_highs(perf):
    framework = ApproxIt(AutoRegression.from_dataset(make_sp500()))
    table = framework.characterization()
    names = [m.name for m in framework.bank]
    energies = np.array([table.energies()[m] for m in names])
    epsilons = np.array([table.epsilons()[m] for m in names])
    # Feasible budgets from just above the all-accurate floor to past the
    # least accurate mode's error: every envelope segment is crossed.
    # Python floats, as the strategy passes them.
    floor = MIN_WEIGHT * float(epsilons.sum())
    budgets = (floor + np.geomspace(1e-10, 1.0, 64)).tolist()

    for budget in budgets:
        closed = solve_energy_lp(energies, epsilons, budget, MIN_WEIGHT)
        oracle = _highs(energies, epsilons, budget)
        assert float(closed @ energies) == pytest.approx(
            float(oracle @ energies), rel=1e-9
        )

    def sweep_highs():
        for budget in budgets:
            _highs(energies, epsilons, budget)

    def sweep_closed():
        for budget in budgets:
            solve_energy_lp(energies, epsilons, budget, MIN_WEIGHT)

    t_highs, t_closed = perf.time_pair(sweep_highs, sweep_closed, repeats=5)
    speedup = t_highs / t_closed
    perf.record(
        "strategy/energy_lp",
        budgets=len(budgets),
        highs_s=round(t_highs, 6),
        closed_s=round(t_closed, 6),
        per_call_closed_us=round(t_closed / len(budgets) * 1e6, 2),
        per_call_highs_us=round(t_highs / len(budgets) * 1e6, 2),
        speedup=round(speedup, 2),
    )
    assert speedup > 10.0
