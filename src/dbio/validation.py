"""Yearly validation loop.

Re-dispatches a fixed investment one year at a time with degraded battery
capacity and efficiencies, counts cycles on each year's state-of-charge
trace, advances the degradation chain, and accumulates expected unserved
energy (EUE) and operating cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import milp
from .degradation import (BatteryExhaustedError, CycleLifeCurve, DegradationState,
                          DodHistogram, advance_state, count_cycles,
                          fit_efficiency_model)
from .planning import (DispatchSolution, InvestmentDecision, YearOverrides,
                       build_single_year, extract_solution)
from .scenario import MultiYearProfiles, Scenario

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


@dataclass
class ValidationReport:
    per_year: list
    total_eue: float
    total_cost: float
    feasible: bool
    eue_tolerance: float
    truncated: bool = False  # battery exhausted before the horizon ended

    @property
    def states(self):
        return [r.state_in for r in self.per_year]


def compute_eue(dispatch: DispatchSolution, alpha: float) -> float:
    """Aggregate load shedding (MWh) of one dispatched year."""
    return alpha * float(np.sum(dispatch.series["p_ls"]))


def initial_state(scenario: Scenario, investment: InvestmentDecision) -> DegradationState:
    eff_model = fit_efficiency_model(scenario.bess.eff_model_points)
    return DegradationState(
        year=1,
        capacity=investment.s_bess,
        soh=scenario.bess.soh_init,
        eta_bess=eff_model.predict(scenario.bess.soh_init),
        eta_pv=scenario.pv.eta_init)


def validate(investment: InvestmentDecision, scenario: Scenario, *,
             apply_degradation: bool = True, on_year=None) -> ValidationReport:
    """Run the year-by-year validation of a fixed investment.

    Years execute strictly in order: each year's post-dispatch degradation
    state is the next year's input. ``apply_degradation=False`` freezes the
    battery chain (PV fade still follows its configured rate) and exists for
    degradation-off baselines.
    """
    cfg = scenario.cfg
    profiles = scenario.profiles()
    curve = CycleLifeCurve.from_spec(scenario.bess.cycle_life_curve)
    eff_model = fit_efficiency_model(scenario.bess.eff_model_points)
    rated = investment.s_bess

    state = initial_state(scenario, investment)
    per_year = []
    truncated = False
    for y in range(1, cfg.planning_years + 1):
        year_profiles = MultiYearProfiles(load=profiles.load[y - 1:y],
                                          pv_cf=profiles.pv_cf[y - 1:y])
        overrides = YearOverrides(eta_pv=state.eta_pv, eta_bess=state.eta_bess,
                                  s_bess_y=min(state.capacity, rated))
        problem, index = build_single_year(scenario, year_profiles, overrides, investment)
        result = milp.solve(problem, cfg.solver)
        if not result.has_solution:
            raise ValidationError(f"year {y}: solver returned {result.status}")
        dispatch = extract_solution(result, index)
        eue_y = compute_eue(dispatch, cfg.alpha)

        if rated > 0:
            trace = dispatch.series["e_bess"].ravel() / rated
            hist = count_cycles(np.clip(trace, 0.0, 1.0))
        else:
            hist = DodHistogram(bins={})

        if apply_degradation and rated > 0:
            try:
                state_out = advance_state(state, hist, curve, scenario.bess,
                                          scenario.pv, eff_model, rated, cfg.alpha)
            except BatteryExhaustedError:
                truncated = True
                state_out = state
        else:
            state_out = DegradationState(
                year=state.year + 1, capacity=state.capacity, soh=state.soh,
                eta_bess=state.eta_bess,
                eta_pv=state.eta_pv * (1.0 - scenario.pv.deg_rate),
                efc=0.0, deg=0.0)

        per_year.append(YearlyResult(year=y, dispatch=dispatch, state_in=state,
                                     state_out=state_out, eue_y=eue_y,
                                     operating_cost_y=result.objective))
        if on_year is not None:
            on_year(per_year[-1])
        if truncated:
            break
        state = state_out

    total_eue = sum(r.eue_y for r in per_year)
    total_cost = sum(r.operating_cost_y for r in per_year)
    return ValidationReport(per_year=per_year, total_eue=total_eue,
                            total_cost=total_cost,
                            feasible=total_eue <= DEFAULT_EUE_TOLERANCE,
                            eue_tolerance=DEFAULT_EUE_TOLERANCE,
                            truncated=truncated)
