"""Iterative battery capacity refinement.

Each probe pins the candidate capacity, re-solves the full-horizon planning
model (other sizes re-optimize), then validates the resulting investment
year by year under degradation. Binary search doubles until a shed-free
upper bound exists, then bisects; fixed-step grows the size geometrically
until the first shed-free probe. A probe is shed-free when its validation is
feasible, so a battery exhausted before the horizon ends counts as shedding.

Only the pinned capacity changes from one probe's plan to the next, so each
plan starts from the final simplex basis of the plan before it, which
:func:`probe` returns with its result. A search runs inside one
:func:`~dbio.planning.holding_layouts` scope: the first probe's plan and
years assemble their layouts, and every later build only writes values.

A probe's validation is that of its investment alone, as ``--mode
validate`` runs it: its first year starts cold and each later year from the
year before, never from another probe's years. Starting year y from the
previous probe's year y was measured to make the 26.7097 MWh probe of
``highuse_degradation`` shed and to add probes. Each
:class:`IterationRecord` counts the simplex iterations of its plan and
years.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import DbioError
from .planning import (InvestmentDecision, build_integrated, extract_solution, holding_layouts,
                       solve_dispatch)
from .scenario import Scenario
from .validation import DEFAULT_EUE_TOLERANCE, ValidationReport, validate

DOUBLING_HARD_CAP = 1024.0  # multiple of the initial size


class SizingError(DbioError, RuntimeError):
    pass


class UnservableLoadError(SizingError):
    """Doubling exceeded the hard cap: storage cures neither the shortfall nor,
    where nothing was shed, the battery's wearing out before the horizon ends."""


@dataclass(frozen=True)
class SearchConfig:
    method: str = "binary"          # "binary" or "fixed_step"
    tolerance: float = 0.01         # MWh, binary convergence width
    step_frac: float = 0.01         # fixed-step relative increment
    max_iterations: int = 100

    def __post_init__(self):
        if self.method not in ("binary", "fixed_step"):
            raise SizingError(f"unknown method {self.method!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise SizingError(f"tolerance must be finite and > 0, got {self.tolerance!r}")
        if not (math.isfinite(self.step_frac) and self.step_frac > 0):
            raise SizingError(f"step_frac must be finite and > 0, got {self.step_frac!r}")
        if self.max_iterations < 1:
            raise SizingError("max_iterations must be >= 1")


@dataclass
class IterationRecord:
    index: int
    candidate_size: float  # MWh
    objective: float       # $ (planning objective at the candidate)
    total_eue: float       # MWh
    shed: bool
    truncated: bool        # the battery was exhausted before the horizon ended
    lb: float
    ub: float
    phase: str             # doubling | bisection | stepping
    simplex_iterations: int  # of the probe's plan and validation years together


@dataclass
class SizingResult:
    final_size: float
    final_objective: float
    iterations: list
    converged: bool
    method: str
    final_midpoint: float | None = None  # midpoint of the closing bracket (unverified)
    final_investment: InvestmentDecision | None = None
    final_report: ValidationReport | None = None  # validation of final_investment


def probe(size: float, scenario: Scenario, basis=None):
    """Planning re-solve with pinned capacity, followed by full validation.

    ``basis``, the final basis of another probe's plan, starts the plan's
    solve. Returns (objective, total_eue, investment, validation report,
    the plan's solve result).
    """
    problem, index = build_integrated(scenario, pin_s_bess=size)
    plan = solve_dispatch(problem, index, scenario.cfg.solver, basis)
    if not plan.has_solution:
        raise SizingError(f"probe at {size} MWh: solver returned {plan.status}")
    sol = extract_solution(plan, index)
    report = validate(sol.investment, scenario)
    return plan.objective, report.total_eue, sol.investment, report, plan


class _Probes:
    """Probe log of one search: iteration records, plus (size, objective,
    investment, report) of the last probe and of the last shed-free one, and
    the last probe's plan solve, whose basis starts the next plan."""

    def __init__(self, method, scenario, on_iteration):
        self.method = method
        self.scenario = scenario
        self.on_iteration = on_iteration
        self.iterations = []
        self.last = None
        self.last_shed_free = None
        self.plan = None  # the solve result of the last probe's plan

    def run(self, size, phase, lb, ub):
        """Probe ``size``, record it, and return whether it sheds."""
        basis = None if self.plan is None else self.plan.basis
        objective, eue, inv, report, self.plan = probe(size, self.scenario, basis)
        rec = IterationRecord(index=len(self.iterations), candidate_size=size,
                              objective=objective, total_eue=eue,
                              shed=not report.feasible, truncated=report.truncated,
                              lb=lb, ub=ub, phase=phase,
                              simplex_iterations=self.plan.iterations + sum(
                                  r.simplex_iterations for r in report.per_year))
        self.iterations.append(rec)
        self.last = (size, objective, inv, report)
        if not rec.shed:
            self.last_shed_free = self.last
        if self.on_iteration is not None:
            self.on_iteration(rec)
        return rec.shed

    def result(self, final, converged, midpoint=None):
        size, objective, inv, report = final
        return SizingResult(final_size=size, final_objective=objective,
                            iterations=self.iterations, converged=converged,
                            method=self.method, final_midpoint=midpoint,
                            final_investment=inv, final_report=report)


@holding_layouts()
def size_binary(initial: InvestmentDecision, scenario: Scenario,
                cfg: SearchConfig | None = None, *, on_iteration=None) -> SizingResult:
    """Doubling-then-bisection search for the smallest shed-free capacity.

    The returned size is the last verified shed-free probe (the upper bound),
    not the unverified midpoint of the closing bracket; the midpoint is
    reported alongside for reference.
    """
    cfg = cfg or SearchConfig(method="binary")
    probes = _Probes("binary", scenario, on_iteration)

    # Phase 1: establish a shed-free upper bound by doubling.
    size = initial.s_bess
    lb = 0.0
    cap = DOUBLING_HARD_CAP * max(size, cfg.tolerance)
    while probes.run(size, "doubling", lb, math.inf):
        if len(probes.iterations) >= cfg.max_iterations:
            return probes.result(probes.last, converged=False)
        lb = size
        size = max(2.0 * size, cfg.tolerance)
        if size > cap:
            msg = (f"no shed-free size found up to {size:.6g} MWh "
                   f"({DOUBLING_HARD_CAP:g}x the initial size or the tolerance)")
            if all(r.truncated and r.total_eue <= DEFAULT_EUE_TOLERANCE
                   for r in probes.iterations):
                msg += (": the battery wore out before the horizon ended at every "
                        "size probed, and no load was shed")
            raise UnservableLoadError(msg)
    ub = size

    # Phase 2: bisection; the invariant is lb sheds (or is 0), ub never sheds.
    while ub - lb >= cfg.tolerance:
        if len(probes.iterations) >= cfg.max_iterations:
            return probes.result(probes.last_shed_free, converged=False,
                                 midpoint=(lb + ub) / 2.0)
        mid = (lb + ub) / 2.0
        if probes.run(mid, "bisection", lb, ub):
            lb = mid
        else:
            ub = mid
    return probes.result(probes.last_shed_free, converged=True, midpoint=(lb + ub) / 2.0)


@holding_layouts()
def size_fixed_step(initial: InvestmentDecision, scenario: Scenario,
                    cfg: SearchConfig | None = None, *, on_iteration=None) -> SizingResult:
    """Geometric fixed-step growth: probe initial*(1+step)^k until shed-free.

    Without a shed-free probe within ``max_iterations``, the result reports
    the last probe, unconverged.
    """
    cfg = cfg or SearchConfig(method="fixed_step")
    if initial.s_bess <= 0:
        raise SizingError("fixed-step search needs a positive initial size")

    probes = _Probes("fixed_step", scenario, on_iteration)
    for k in range(cfg.max_iterations):
        size = initial.s_bess * (1.0 + cfg.step_frac) ** k
        if not probes.run(size, "stepping", 0.0, size):
            return probes.result(probes.last, converged=True)
    return probes.result(probes.last, converged=False)


def run_search(initial: InvestmentDecision, scenario: Scenario,
               cfg: SearchConfig, *, on_iteration=None) -> SizingResult:
    fn = size_binary if cfg.method == "binary" else size_fixed_step
    return fn(initial, scenario, cfg, on_iteration=on_iteration)
