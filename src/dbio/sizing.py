"""Iterative battery capacity refinement.

Each probe pins the candidate capacity, re-solves the full-horizon planning
model (other sizes re-optimize), then validates the resulting investment
year by year under degradation. Binary search doubles until a shed-free
upper bound exists, then bisects; fixed-step grows the size geometrically
until the first shed-free probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import milp
from .planning import InvestmentDecision, build_integrated, extract_solution
from .scenario import Scenario
from .validation import DEFAULT_EUE_TOLERANCE, validate

DOUBLING_HARD_CAP = 1024.0  # multiple of the initial size


class SizingError(RuntimeError):
    pass


class UnservableLoadError(SizingError):
    """Doubling exceeded the hard cap: the shortfall is not curable by storage."""


@dataclass
class SearchConfig:
    method: str = "binary"          # "binary" or "fixed_step"
    tolerance: float = 0.01         # MWh, binary convergence width
    step_frac: float = 0.01         # fixed-step relative increment
    max_iterations: int = 100
    ub_seed_factor: float = 2.0     # growth multiplier while bracketing
    eue_tolerance: float = DEFAULT_EUE_TOLERANCE

    def validate(self):
        if self.method not in ("binary", "fixed_step"):
            raise SizingError(f"unknown method {self.method!r}")
        if self.tolerance <= 0:
            raise SizingError("tolerance must be > 0")
        if self.step_frac <= 0:
            raise SizingError("step_frac must be > 0")
        if self.max_iterations < 1:
            raise SizingError("max_iterations must be >= 1")
        if self.ub_seed_factor <= 1:
            raise SizingError("ub_seed_factor must be > 1")


@dataclass
class IterationRecord:
    index: int
    candidate_size: float  # MWh
    objective: float       # $ (planning objective at the candidate)
    total_eue: float       # MWh
    shed: bool
    lb: float
    ub: float
    phase: str             # doubling | bisection | stepping


@dataclass
class SizingResult:
    final_size: float
    final_objective: float
    iterations: list
    converged: bool
    method: str
    final_midpoint: float | None = None  # midpoint of the closing bracket (unverified)
    final_investment: InvestmentDecision | None = None


def probe(size: float, scenario: Scenario, *, profiles=None,
          solve_opts: milp.SolveOptions | None = None, backend=None,
          eue_tolerance=DEFAULT_EUE_TOLERANCE):
    """Planning re-solve with pinned capacity, followed by full validation.

    Returns (objective, total_eue, investment, validation report).
    """
    cfg = scenario.cfg
    profiles = profiles if profiles is not None else scenario.profiles()
    opts = solve_opts or milp.SolveOptions(mip_gap=cfg.solver.mip_gap,
                                           time_limit=cfg.solver.time_limit)
    problem, index = build_integrated(scenario, profiles, pin_s_bess=size)
    result = milp.solve(problem, opts, backend=backend)
    if not result.has_solution:
        raise SizingError(f"probe at {size} MWh: solver returned {result.status}")
    sol = extract_solution(result, index)
    report = validate(sol.investment, scenario, profiles,
                      eue_tolerance=eue_tolerance, solve_opts=opts, backend=backend)
    return result.objective, report.total_eue, sol.investment, report


def size_binary(initial: InvestmentDecision, scenario: Scenario,
                cfg: SearchConfig | None = None, *, profiles=None,
                solve_opts=None, backend=None, on_iteration=None) -> SizingResult:
    """Doubling-then-bisection search for the smallest shed-free capacity.

    The returned size is the last verified shed-free probe (the upper bound),
    not the unverified midpoint of the closing bracket; the midpoint is
    reported alongside for reference.
    """
    cfg = cfg or SearchConfig(method="binary")
    cfg.validate()
    profiles = profiles if profiles is not None else scenario.profiles()

    iterations = []
    probes = {}  # size -> (objective, eue, investment)

    def run_probe(size, phase, lb, ub):
        objective, eue, inv, _ = probe(size, scenario, profiles=profiles,
                                       solve_opts=solve_opts, backend=backend,
                                       eue_tolerance=cfg.eue_tolerance)
        shed = eue > cfg.eue_tolerance
        rec = IterationRecord(index=len(iterations), candidate_size=size,
                              objective=objective, total_eue=eue, shed=shed,
                              lb=lb, ub=ub, phase=phase)
        iterations.append(rec)
        probes[size] = (objective, eue, inv)
        if on_iteration is not None:
            on_iteration(rec)
        return shed

    def result(final_size, converged, midpoint=None):
        objective, _, inv = probes.get(final_size, (math.nan, math.nan, None))
        return SizingResult(final_size=final_size, final_objective=objective,
                            iterations=iterations, converged=converged,
                            method="binary", final_midpoint=midpoint,
                            final_investment=inv)

    # Phase 1: establish a shed-free upper bound by doubling.
    size = initial.s_bess
    lb = 0.0
    shed = run_probe(size, "doubling", lb, math.inf)
    if not shed:
        ub = size
    else:
        base = max(size, cfg.tolerance)
        while True:
            if len(iterations) >= cfg.max_iterations:
                return result(size, converged=False)
            lb = size
            size = max(size * cfg.ub_seed_factor, cfg.tolerance)
            if initial.s_bess > 0 and size > DOUBLING_HARD_CAP * max(initial.s_bess, cfg.tolerance):
                raise UnservableLoadError(
                    f"no shed-free size found up to {size:.6g} MWh "
                    f"({DOUBLING_HARD_CAP:g}x the initial size)")
            if initial.s_bess == 0 and size > DOUBLING_HARD_CAP * base:
                raise UnservableLoadError(
                    f"no shed-free size found up to {size:.6g} MWh")
            shed = run_probe(size, "doubling", lb, math.inf)
            if not shed:
                ub = size
                break

    # Phase 2: bisection; the invariant is lb sheds (or is 0), ub never sheds.
    while ub - lb >= cfg.tolerance:
        if len(iterations) >= cfg.max_iterations:
            return result(ub, converged=False, midpoint=(lb + ub) / 2.0)
        mid = (lb + ub) / 2.0
        if run_probe(mid, "bisection", lb, ub):
            lb = mid
        else:
            ub = mid
    return result(ub, converged=True, midpoint=(lb + ub) / 2.0)


def size_fixed_step(initial: InvestmentDecision, scenario: Scenario,
                    cfg: SearchConfig | None = None, *, profiles=None,
                    solve_opts=None, backend=None, on_iteration=None) -> SizingResult:
    """Geometric fixed-step growth: probe initial*(1+step)^k until shed-free."""
    cfg = cfg or SearchConfig(method="fixed_step")
    cfg.validate()
    profiles = profiles if profiles is not None else scenario.profiles()
    if initial.s_bess <= 0:
        raise SizingError("fixed-step search needs a positive initial size")

    iterations = []
    for k in range(cfg.max_iterations):
        size = initial.s_bess * (1.0 + cfg.step_frac) ** k
        objective, eue, inv, _ = probe(size, scenario, profiles=profiles,
                                       solve_opts=solve_opts, backend=backend,
                                       eue_tolerance=cfg.eue_tolerance)
        shed = eue > cfg.eue_tolerance
        rec = IterationRecord(index=k, candidate_size=size, objective=objective,
                              total_eue=eue, shed=shed, lb=0.0, ub=size,
                              phase="stepping")
        iterations.append(rec)
        if on_iteration is not None:
            on_iteration(rec)
        if not shed:
            return SizingResult(final_size=size, final_objective=objective,
                                iterations=iterations, converged=True,
                                method="fixed_step", final_investment=inv)
    last = iterations[-1]
    return SizingResult(final_size=last.candidate_size,
                        final_objective=last.objective,
                        iterations=iterations, converged=False,
                        method="fixed_step")


def run_search(initial: InvestmentDecision, scenario: Scenario,
               cfg: SearchConfig, **kwargs) -> SizingResult:
    cfg.validate()
    fn = size_binary if cfg.method == "binary" else size_fixed_step
    return fn(initial, scenario, cfg, **kwargs)
