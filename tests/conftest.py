"""Shared fixtures: scenario loaders, cached plan solves, invariant checks."""

import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from dbio import milp
from dbio.planning import build_integrated, extract_solution, solve_dispatch
from dbio.scenario import (BessParams, CderParams, PvParams, Scenario, ScenarioConfig,
                           TariffSchedule, load_scenario)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


def _load(name):
    return load_scenario(FIXTURES / name)


@pytest.fixture(scope="session")
def islanded_scenario():
    return _load("islanded_base.json")


@pytest.fixture(scope="session")
def grid_scenario():
    return _load("grid_fixed.json")


@pytest.fixture(scope="session")
def sizing_scenario():
    return _load("sizing_threshold.json")


@pytest.fixture(scope="session")
def highuse_scenario():
    return _load("highuse_degradation.json")


def write_sizing_doc(tmp_path, edit):
    """Copy of the sizing fixture with ``edit`` applied to its document."""
    doc = json.loads((FIXTURES / "sizing_threshold.json").read_text())
    edit(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    # Profile files resolve relative to the config location.
    for f in ("load_deficit_24.csv", "pv_zero_24.csv"):
        (tmp_path / f).write_text((FIXTURES / f).read_text())
    return path


def constraint_csr(problem):
    """A problem's constraint matrix as a scipy CSR matrix over its own arrays."""
    indptr, indices, data, _, _ = problem.constraint_matrix()
    return sp.csr_matrix((data, indices, indptr),
                         shape=(problem.n_constraints, problem.n_variables))


def enum_solve(problem):
    """The oracle: exhaustive enumeration over binary assignments, one LP each.

    Independent of :func:`dbio.milp.solve`: every assignment of at most 20
    binaries is fixed in the bounds and solved with ``linprog``, on every
    column. The best objective wins; the result's path is ``enum``.
    """
    bin_idx = problem.binary_indices
    assert len(bin_idx) <= 20, f"enumeration limited to 20 binaries, got {len(bin_idx)}"
    A = constraint_csr(problem)
    A_ub = sp.vstack([A, -A]).tocsr()
    b_ub = np.concatenate([problem.ub, -problem.lb])
    finite = np.isfinite(b_ub)
    A_ub, b_ub = A_ub[finite], b_ub[finite]
    best = None
    for combo in itertools.product((0.0, 1.0), repeat=len(bin_idx)):
        lo, hi = problem.lower.copy(), problem.upper.copy()
        if any(v < lo[i] - 1e-12 or v > hi[i] + 1e-12 for i, v in zip(bin_idx, combo)):
            continue
        lo[bin_idx] = hi[bin_idx] = combo
        res = linprog(problem.c, A_ub=A_ub, b_ub=b_ub, bounds=np.column_stack([lo, hi]),
                      method="highs")
        if res.status == 3:
            return milp.SolveResult(status=milp.UNBOUNDED, objective=-milp.INF, primal=None,
                                    path="enum")
        if res.status == 0 and (best is None or res.fun < best.fun):
            best = res
    if best is None:
        return milp.SolveResult(status=milp.INFEASIBLE, objective=np.nan, primal=None,
                                path="enum")
    return milp.SolveResult(status=milp.OPTIMAL,
                            objective=float(best.fun) + problem.objective_constant,
                            primal=np.asarray(best.x), path="enum")


def solve_plan(scenario, mip_gap=None):
    """One integrated planning solve; returns (solution, profiles, result)."""
    profiles = scenario.profiles()
    opts = scenario.cfg.solver
    if mip_gap is not None:
        opts = dataclasses.replace(opts, mip_gap=mip_gap)
    problem, index = build_integrated(scenario)
    result = solve_dispatch(problem, index, opts)
    assert result.has_solution, result.status
    return extract_solution(result, index), profiles, result


@pytest.fixture(scope="session")
def islanded_plan(islanded_scenario):
    return solve_plan(islanded_scenario)


@pytest.fixture(scope="session")
def grid_plan(grid_scenario):
    return solve_plan(grid_scenario)


@pytest.fixture(scope="session")
def sizing_plan(sizing_scenario):
    return solve_plan(sizing_scenario)


@pytest.fixture(scope="session")
def highuse_plan(highuse_scenario):
    return solve_plan(highuse_scenario)


def make_scenario(load, pv_cf, *, years=1, tie=0.0, ls_penalty=1e6, load_growth=0.0,
                  import_price=0.0, cder=None, pv=None, bess=None, cyclic_soc=True):
    """Small in-code scenario for unit tests: one representative day (alpha =
    365) from 1-D profiles, or one per row of 2-D (days, hours) profiles."""
    load = np.atleast_2d(np.asarray(load, dtype=float))
    pv_cf = np.atleast_2d(np.asarray(pv_cf, dtype=float))
    cfg = ScenarioConfig(planning_years=years, load_growth=load_growth, ls_penalty=ls_penalty,
                         tie_limit=tie, cyclic_soc=cyclic_soc,
                         solver=milp.SolveOptions(mip_gap=0.0))
    tariff = TariffSchedule(import_price=np.full(load.shape, float(import_price)))
    return Scenario(cfg=cfg,
                    cder=cder or CderParams(capital=1e5, op_cost=50.0,
                                            no_load=0.0, p_min=0.0),
                    pv=pv or PvParams(capital=8e4, rep_frac=0.4, deg_rate=0.01),
                    bess=bess or BessParams(capital=5e4),
                    tariff=tariff, base_load=load, base_pv_cf=pv_cf)


def check_dispatch_invariants(sol, scenario, profiles, eta_pv_by_year=None,
                              capacity=None):
    """Physical feasibility of an extracted dispatch.

    Checks the hourly power balance, that no hour charges and discharges or
    imports and exports at once, the stored-energy window, and tie-line bounds. ``capacity`` overrides the battery capacity
    used for the stored-energy window (degraded single-year dispatches).
    """
    cfg, bess = scenario.cfg, scenario.bess
    Y, D, T = sol.shape
    load = profiles.load
    tol = 1e-6
    bal_tol = tol * max(1.0, float(load.max()))
    if eta_pv_by_year is None:
        eta_pv_by_year = scenario.pv.efficiency_schedule(Y)

    pv_power = (np.asarray(eta_pv_by_year)[:, None, None] * profiles.pv_cf
                * sol.investment.s_pv)
    s = sol.series
    supply = s["p_cder"] + s["p_dchg"] + pv_power + s["p_ls"] + s["p_imp"]
    demand = load + s["p_chg"] + s["p_curt"] + s["p_exp"]
    assert np.max(np.abs(supply - demand)) <= bal_tol, "power balance violated"

    assert np.max(np.minimum(s["p_chg"], s["p_dchg"])) <= tol, "simultaneous charge/discharge"
    assert np.max(np.minimum(s["p_imp"], s["p_exp"])) <= tol, "simultaneous import/export"

    cap = sol.investment.s_bess if capacity is None else capacity
    assert np.min(s["e_bess"]) >= bess.soc_min * cap - tol, "stored energy below window"
    assert np.max(s["e_bess"]) <= bess.soh_init * bess.soc_max * cap + tol, \
        "stored energy above window"

    assert np.max(s["p_imp"]) <= cfg.tie_limit + tol
    assert np.max(s["p_exp"]) <= cfg.tie_limit + tol
    if cfg.tie_limit == 0:
        assert np.max(s["p_imp"]) <= tol and np.max(s["p_exp"]) <= tol
