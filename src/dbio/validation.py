"""Yearly validation loop.

Re-dispatches a fixed investment one year at a time with degraded battery
capacity and efficiencies, counts cycles on each year's state-of-charge
trace, advances the degradation chain, and accumulates expected unserved
energy (EUE) and operating cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degradation import BatteryExhaustedError, DegradationState, advance_state, count_cycles
from .planning import (DispatchSolution, InvestmentDecision, extract_solution, holding_layouts,
                       solve_single_year)
from .scenario import Scenario

DEFAULT_EUE_TOLERANCE = 1e-6  # MWh; solver round-off must not trigger resizing


class ValidationError(RuntimeError):
    pass


@dataclass
class YearlyResult:
    year: int
    dispatch: DispatchSolution
    state_in: DegradationState
    state_out: DegradationState
    eue_y: float            # MWh
    operating_cost_y: float  # $
    solve_path: str         # milp.SolveResult.path of the year's solve
    simplex_iterations: int  # milp.SolveResult.iterations of the year's solve


@dataclass
class ValidationReport:
    per_year: list
    total_eue: float
    total_cost: float
    feasible: bool          # every year validated and total_eue within eue_tolerance
    eue_tolerance: float
    truncated: bool = False  # battery exhausted before the horizon ended


def compute_eue(dispatch: DispatchSolution, alpha: float) -> float:
    """Aggregate load shedding (MWh) of one dispatched year."""
    return alpha * float(np.sum(dispatch.series["p_ls"]))


def initial_state(scenario: Scenario, investment: InvestmentDecision) -> DegradationState:
    """Year 1 charges at the plan's efficiency, ``bess.efficiency(soh_init)``."""
    return DegradationState(
        year=1,
        capacity=investment.s_bess,
        soh=scenario.bess.soh_init,
        eta_bess=scenario.bess.efficiency(scenario.bess.soh_init),
        eta_pv=scenario.pv.eta_init)


@holding_layouts()
def validate(investment: InvestmentDecision, scenario: Scenario, *,
             apply_degradation: bool = True, on_year=None) -> ValidationReport:
    """Run the year-by-year validation of a fixed investment.

    Every year is the same step: build the year from its degradation state,
    solve, count the cycles of its state-of-charge trace and advance the
    state, which is the next year's input. ``apply_degradation=False``
    freezes the battery chain (PV fade still follows its configured rate)
    and exists for degradation-off baselines. A run whose battery is
    exhausted before the horizon ends is ``truncated`` and never feasible.
    Each year's solve starts from the final basis of the year before, a
    year solved whole as well as one solved in day blocks (see
    :func:`solve_single_year`); the first year starts cold, so a validation
    depends on its investment and scenario alone.
    """
    cfg = scenario.cfg
    rated = investment.s_bess

    state = initial_state(scenario, investment)
    per_year = []
    truncated = False
    basis = None
    while not truncated and state.year <= cfg.planning_years:
        result, index = solve_single_year(scenario, state, investment, cfg.solver, basis)
        basis = result.basis
        if not result.has_solution:
            raise ValidationError(f"year {state.year}: solver returned {result.status}")
        dispatch = extract_solution(result, index)

        hist = {}
        if apply_degradation and rated > 0:
            trace = dispatch.series["e_bess"].ravel() / rated
            hist = count_cycles(np.clip(trace, 0.0, 1.0))
        try:
            state_out = advance_state(state, hist, scenario.bess, scenario.pv, rated,
                                      scenario.alpha)
        except BatteryExhaustedError:
            truncated = True
            state_out = state

        per_year.append(YearlyResult(year=state.year, dispatch=dispatch, state_in=state,
                                     state_out=state_out,
                                     eue_y=compute_eue(dispatch, scenario.alpha),
                                     operating_cost_y=result.objective,
                                     solve_path=result.path,
                                     simplex_iterations=result.iterations))
        if on_year is not None:
            on_year(per_year[-1])
        state = state_out

    total_eue = sum(r.eue_y for r in per_year)
    total_cost = sum(r.operating_cost_y for r in per_year)
    return ValidationReport(per_year=per_year, total_eue=total_eue,
                            total_cost=total_cost,
                            feasible=not truncated and total_eue <= DEFAULT_EUE_TOLERANCE,
                            eue_tolerance=DEFAULT_EUE_TOLERANCE,
                            truncated=truncated)
