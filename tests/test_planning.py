"""Planning model structure, dispatch physics, and cost accounting."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from dbio import milp
from dbio.degradation import DegradationState
from dbio.planning import (InvestmentDecision, ModelBuildError, build_integrated,
                           build_single_year, extract_solution)
from dbio.scenario import BessParams, CderParams, load_scenario, representative_day_indices
from dbio.validation import validate

from conftest import FIXTURES, check_dispatch_invariants, make_scenario, write_sizing_doc

OPTS = milp.SolveOptions(mip_gap=0.0, time_limit=300.0)


def _solve(scenario, pin_s_bess=None):
    problem, index = build_integrated(scenario, pin_s_bess=pin_s_bess)
    result = milp.solve(problem, OPTS)
    assert result.has_solution, result.status
    return extract_solution(result, index), scenario.profiles(), result


def _state(year, capacity, eta_pv, eta_bess):
    """Degradation state of a single-year build; the build does not read ``soh``."""
    return DegradationState(year=year, capacity=capacity, soh=1.0, eta_bess=eta_bess,
                            eta_pv=eta_pv)


def test_variable_count_single_day():
    sc = make_scenario(np.full(24, 0.5), np.zeros(24))
    problem, _ = build_integrated(sc)
    # 13 series variables per hour plus the 4 sizing/initial-energy globals.
    assert problem.n_variables == 24 * 13 + 4


def test_zero_load_costs_nothing():
    sc = make_scenario(np.zeros(24), np.zeros(24))
    sol, _, res = _solve(sc)
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert sol.investment == InvestmentDecision(0.0, 0.0, 0.0)
    for name in ("p_cder", "p_chg", "p_dchg", "p_ls"):
        assert np.max(sol.series[name]) <= 1e-9


def test_cost_breakdown_matches_objective():
    sc = make_scenario(np.linspace(0.2, 0.8, 24), np.zeros(24))
    sol, _, res = _solve(sc)
    assert sol.cost_total == pytest.approx(res.objective, rel=1e-9)
    assert sol.costs["capital"] > 0 and sol.costs["cder_op"] > 0


@pytest.mark.parametrize("price_file", ["tou_prices.csv", "wholesale_prices.csv"])
def test_price_file_tariff_prices_the_imports(tmp_path, price_file):
    def grid_tied_with_price_file(doc):
        doc["tariff"] = {"price_file": str(FIXTURES / price_file)}
        doc["horizon"]["tie_limit"] = 0.5

    sc = load_scenario(write_sizing_doc(tmp_path, grid_tied_with_price_file))
    # The one representative day is the file's day 182 of 365.
    year = np.loadtxt(FIXTURES / price_file, delimiter=",", skiprows=1)[:, 1]
    day = year.reshape(365, 24)[representative_day_indices(365, 1)]
    np.testing.assert_array_equal(sc.tariff.import_price, day)
    if price_file == "tou_prices.csv":
        assert sc.tariff.import_price[0, 0] == 80.0
    sol, _, _ = _solve(sc)
    assert np.sum(sol.series["p_imp"]) > 0
    assert sol.costs["import_cost"] == pytest.approx(
        365.0 * np.sum(sol.series["p_imp"] * day), rel=1e-12)


def test_objective_check_prices_the_primal_as_solved():
    # A load shed of -4e-7 MW is solver round-off; at the 1e6 $/MWh penalty
    # it moves the objective by far more than the 1e-6 relative check allows.
    sc = make_scenario(np.linspace(0.2, 0.8, 24), np.zeros(24))
    problem, index = build_integrated(sc)
    result = milp.solve(problem, OPTS)
    x = result.primal.copy()
    i = index.series["p_ls"][0, 0, 5]
    shift = sc.alpha * sc.cfg.ls_penalty * (-4e-7 - x[i])
    x[i] = -4e-7
    perturbed = dataclasses.replace(result, primal=x, objective=result.objective + shift)
    sol = extract_solution(perturbed, index)
    assert sol.objective == perturbed.objective
    # The reported dispatch, and the breakdown of it, have the shed clipped to 0.
    assert np.min(sol.series["p_ls"]) == 0.0
    assert sol.cost_total == pytest.approx(result.objective, rel=1e-9)


def test_extracted_sizes_have_no_negative_zero():
    sc = make_scenario(np.linspace(0.2, 0.8, 24), np.zeros(24))
    problem, index = build_integrated(sc, pin_s_bess=0.0)
    result = milp.solve(problem, OPTS)
    x = result.primal.copy()
    x[index.scalars["s_bess"]] = x[index.scalars["e_init"]] = -0.0
    sol = extract_solution(dataclasses.replace(result, primal=x), index)
    assert math.copysign(1.0, sol.investment.s_bess) == math.copysign(1.0, sol.e_init) == 1.0


def test_islanded_never_touches_grid():
    sc = make_scenario(np.linspace(0.2, 0.8, 24), np.zeros(24), tie=0.0)
    sol, prof, _ = _solve(sc)
    assert np.max(sol.series["p_imp"]) == 0.0 and np.max(sol.series["p_exp"]) == 0.0
    check_dispatch_invariants(sol, sc, prof)


def test_energy_tracking_recursion():
    # Load shaped so the optimum must cycle the battery: cheap CDER hours
    # charge it, an expensive capped peak discharges it.
    load = np.concatenate([np.full(12, 0.2), np.full(12, 0.9)])
    from dbio.scenario import CderParams
    sc = make_scenario(load, np.zeros(24),
                       cder=CderParams(capital=1e5, op_cost=50.0, max_size=0.6))
    sol, prof, _ = _solve(sc)
    assert np.sum(sol.series["p_chg"]) > 1e-6, "battery unused; fixture not exercising storage"
    eta = sc.bess.efficiency(sc.bess.soh_init)
    e = sol.series["e_bess"][0, 0]
    prev = sol.e_init
    for t in range(24):
        assert e[t] == pytest.approx(prev + eta * sol.series["p_chg"][0, 0, t]
                                     - sol.series["p_dchg"][0, 0, t], abs=1e-7)
        prev = e[t]
    # Cyclic closure: the day ends where it started.
    assert e[-1] == pytest.approx(sol.e_init, abs=1e-7)
    check_dispatch_invariants(sol, sc, prof)


def test_no_cyclic_soc_drains_free_initial_energy():
    load = np.full(24, 0.5)
    sc = make_scenario(load, np.zeros(24))
    sc_open = dataclasses.replace(
        sc, cfg=dataclasses.replace(sc.cfg, cyclic_soc=False))
    _, _, res_cyc = _solve(sc)
    _, _, res_open = _solve(sc_open)
    # Without the closure constraint the model may start full and drain,
    # so the optimum can only improve.
    assert res_open.objective <= res_cyc.objective + 1e-6


def test_big_m_invariance():
    load = np.linspace(0.1, 0.9, 24)
    sc = make_scenario(load, np.zeros(24), big_m=5.0)
    sc2 = dataclasses.replace(sc, cfg=dataclasses.replace(sc.cfg, big_m=10.0))
    _, _, r1 = _solve(sc)
    _, _, r2 = _solve(sc2)
    assert r1.objective == pytest.approx(r2.objective, rel=1e-7)


def test_pv_displaces_generation():
    load = np.full(24, 0.5)
    cf = np.concatenate([np.zeros(8), np.full(8, 0.9), np.zeros(8)])
    from dbio.scenario import PvParams
    sc = make_scenario(load, cf, pv=PvParams(capital=100.0, rep_frac=0.4,
                                             deg_rate=0.0))
    sol, prof, _ = _solve(sc)
    assert sol.investment.s_pv > 0.1
    check_dispatch_invariants(sol, sc, prof)


def test_pv_efficiency_schedule_values():
    from dbio.scenario import PvParams
    pv = PvParams(eta_init=0.95, deg_rate=0.01)
    sched = pv.efficiency_schedule(3)
    np.testing.assert_allclose(sched, [0.95, 0.95 * 0.99, 0.95 * 0.99 ** 2])


def test_single_year_equals_integrated_minus_capital():
    load = np.linspace(0.2, 0.8, 24)
    sc = make_scenario(load, np.zeros(24))
    sol, prof, res = _solve(sc)
    inv = sol.investment
    state = _state(1, inv.s_bess, eta_pv=sc.pv.eta_init,
                   eta_bess=sc.bess.efficiency(sc.bess.soh_init))
    problem, index = build_single_year(sc, state, inv)
    r2 = milp.solve(problem, OPTS)
    assert r2.status == "optimal"
    assert r2.objective == pytest.approx(res.objective - sol.costs["capital"],
                                         rel=1e-7, abs=1e-6)


def test_degraded_capacity_shrinks_window():
    load = np.concatenate([np.full(12, 0.2), np.full(12, 0.9)])
    from dbio.scenario import CderParams
    sc = make_scenario(load, np.zeros(24),
                       cder=CderParams(capital=1e5, op_cost=50.0, max_size=0.6))
    sol, prof, _ = _solve(sc)
    inv = sol.investment
    assert inv.s_bess > 0
    degraded = 0.5 * inv.s_bess
    state = _state(1, degraded, eta_pv=sc.pv.eta_init,
                   eta_bess=sc.bess.efficiency(sc.bess.soh_init))
    problem, index = build_single_year(sc, state, inv)
    r = milp.solve(problem, OPTS)
    d = extract_solution(r, index)
    assert np.max(d.series["e_bess"]) <= sc.bess.soc_max * degraded + 1e-7
    check_dispatch_invariants(d, sc, prof, eta_pv_by_year=[sc.pv.eta_init],
                              capacity=degraded)


def test_pin_s_bess_fixes_only_the_battery():
    load = np.linspace(0.2, 0.8, 24)
    sc = make_scenario(load, np.zeros(24))
    sol, _, _ = _solve(sc, pin_s_bess=0.25)
    assert sol.investment.s_bess == pytest.approx(0.25, abs=1e-9)
    assert sol.investment.p_cder_max > 0


def test_build_option_validation():
    sc = make_scenario(np.full(24, 0.5), np.zeros(24))
    with pytest.raises(ModelBuildError):
        build_integrated(sc, pin_s_bess=-1.0)


def test_negative_investment_rejected():
    with pytest.raises(ModelBuildError):
        InvestmentDecision(-0.1, 0.0, 0.0)


def test_override_capacity_cannot_exceed_rated():
    sc = make_scenario(np.full(24, 0.5), np.zeros(24))
    inv = InvestmentDecision(0.0, 0.2, 1.0)
    state = _state(1, 0.3, eta_pv=1.0, eta_bess=0.9)
    with pytest.raises(ModelBuildError, match="exceeds rated"):
        build_single_year(sc, state, inv)


@pytest.mark.parametrize("year", [0, 3])
def test_single_year_outside_horizon_rejected(year):
    sc = make_scenario(np.full(24, 0.5), np.zeros(24), years=2)
    inv = InvestmentDecision(0.0, 0.2, 1.0)
    with pytest.raises(ModelBuildError, match="outside the horizon"):
        build_single_year(sc, _state(year, 0.2, eta_pv=1.0, eta_bess=0.9), inv)


def test_extract_requires_solution():
    sc = make_scenario(np.full(24, 0.5), np.zeros(24))
    problem, index = build_integrated(sc)
    bad = milp.SolveResult(status="infeasible", objective=float("nan"), primal=None)
    with pytest.raises(ModelBuildError, match="no solution"):
        extract_solution(bad, index)


# SHA-256 of the solver input of each build: dtype, shape and bytes of
# A.indptr, A.indices, A.data, lb, ub, c, lower, upper and integrality, then
# the 8 bytes of objective_constant (see _solver_input_digest). Recorded from
# the per-variable, per-row builder at commit 363faaf, where the same arrays
# came from constraint_matrix(), bounds(), objective_vector() and an int
# integrality vector with 1 at binary_indices, exactly as its HiGHS backend
# assembled them. Equal digests mean HiGHS receives the same problem.
# The integrated and pinned builds of grid_fixed, islanded_base,
# highuse_degradation and synthetic, and islanded_base_8760h/integrated, were
# re-recorded when the plan began charging at bess.efficiency(soh_init) instead
# of a separate 0.9: their arrays equal the earlier ones except the
# energy-tracking p_chg entries of A.data, now -0.9000000000000001, the fitted
# value. sizing_threshold's samples fit exactly 0.9, so its digests stand.
# sizing_threshold and highuse_degradation differ only in horizon length and
# degradation curves, so their single-year builds coincide.
SEED_SOLVER_INPUT = {
    "islanded_base/integrated":
        "4c5b03584992731f7c9a285847ed936096365d3f3efce6f98678f25418851036",
    "islanded_base/pinned":
        "5cad2cd0b7e5128521f3186cdddc679ba11b21a2c7cf06704fb600a8235eaa22",
    "islanded_base/single_year":
        "847122ef86445e1a5529ac37c0ae307d6a934e973f40da06901917a517a1e006",
    "grid_fixed/integrated":
        "ffd80879ccc72721e903dd5106ec8e7e66264daddd4173159d30ef2137baf962",
    "grid_fixed/pinned":
        "ec8b9f5884a93a4b5c6be0c8709e15c1f1cf7292607f30de2d84472a267d5a4c",
    "grid_fixed/single_year":
        "2f61a1d2bc1cf2c715b91f9bd2d01ae76be8c737667ba8c98fab4406c939f0f1",
    "sizing_threshold/integrated":
        "f6647049bb09e271464f1bdd4ffe2d10fb01001effcbe0f399391f0de7d7654a",
    "sizing_threshold/pinned":
        "949429b2c4a22a57f36c917c437e990593a21146fc707a7b8ddd7eac7a7c5586",
    "sizing_threshold/single_year":
        "7ce67061ea454e5b160ca8624ab360505d8e55249afb9e8ef8264fe39fd84956",
    "highuse_degradation/integrated":
        "23b9f9d927ed967538bb540d90546daead1e99b2378fc7a63dad75b8d8ff17bc",
    "highuse_degradation/pinned":
        "0874e11c28fb4523b0fcaded5c0680bdf60aedd0a49f36f4a648ed40c3660b80",
    "highuse_degradation/single_year":
        "7ce67061ea454e5b160ca8624ab360505d8e55249afb9e8ef8264fe39fd84956",
    "synthetic/integrated":
        "342866ffd2a1961b2106eb384a5c753a047bd96105e2566464449ddb12edb781",
    "synthetic/pinned":
        "b8094eddd279ea34eb74e9690a2da9be382d8586480fd79c570d42c1e74b2d7b",
    "synthetic/single_year":
        "426e76a073061f81aa0d446101b1b543fde5b53ce1caa347bc194da656fdb188",
    "islanded_base_8760h/integrated":
        "1590bb5691a8e632a74f49d59e933321a329e8a30a7eb27de4a3a725b56b3888",
    "islanded_base_8760h/single_year":
        "ab60b5225ffa726e487f41059191cefc19619f612eda92b04229da661dae2a4f",
}


def _solver_input_digest(problem):
    A, lb, ub = problem.constraint_matrix()
    h = hashlib.sha256()
    for a in (A.indptr, A.indices, A.data, lb, ub, problem.c, problem.lower,
              problem.upper, problem.integrality):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    h.update(np.float64(problem.objective_constant).tobytes())
    return h.hexdigest()


def _hourly_year(tmp_path):
    """``islanded_base`` at full hourly resolution, one year (8760 h)."""
    doc = json.loads((FIXTURES / "islanded_base.json").read_text())
    doc["horizon"].update(planning_years=1, rep_days=365)
    for key in ("load_file", "pv_cf_file"):
        doc["profiles"][key] = str(FIXTURES / doc["profiles"][key])
    path = tmp_path / "hourly.json"
    path.write_text(json.dumps(doc))
    return load_scenario(path)


def _synthetic():
    """Covers what the fixtures do not: soc_min = 0, no cyclic rows, a tie-line,
    p_min and no-load cost."""
    return make_scenario(np.linspace(0.2, 0.8, 24),
                         np.clip(np.sin(np.linspace(0, np.pi, 24)), 0, 1), years=2,
                         tie=0.3, import_price=40.0, cyclic_soc=False,
                         cder=CderParams(capital=1e5, op_cost=50.0, no_load=5.0, p_min=0.1),
                         bess=BessParams(capital=5e4, soc_min=0.0))


def _build_mode(sc, mode):
    if mode == "integrated":
        return build_integrated(sc)
    if mode == "pinned":
        return build_integrated(sc, pin_s_bess=0.37)
    # Last planning year, degraded below the rated 0.5 MWh.
    inv = InvestmentDecision(s_pv=0.25, s_bess=0.5, p_cder_max=0.75)
    state = _state(sc.cfg.planning_years, 0.4, eta_pv=0.97 * sc.pv.eta_init,
                   eta_bess=0.98 * 0.9)
    return build_single_year(sc, state, inv)


@pytest.mark.parametrize("case", [k for k in SEED_SOLVER_INPUT if "8760h" not in k])
def test_solver_input_matches_seed_builder(case):
    fixture, mode = case.split("/")
    sc = _synthetic() if fixture == "synthetic" else load_scenario(FIXTURES / f"{fixture}.json")
    problem, index = _build_mode(sc, mode)
    # Explicit zeros stay in A, as before (PV terms at night, soc_min = 0):
    # 40 terms per hour, 2 per einit row and per cyclic row.
    Y, D, T = index.shape
    A = problem.constraint_matrix()[0]
    assert A.nnz == 40 * Y * D * T + 4 + 2 * Y * D * sc.cfg.cyclic_soc
    assert np.any(A.data == 0)
    assert _solver_input_digest(problem) == SEED_SOLVER_INPUT[case]


def test_hourly_year_solver_input_matches_seed_builder(tmp_path):
    sc = _hourly_year(tmp_path)
    problem, _ = build_integrated(sc)
    assert (problem.n_variables, problem.n_constraints) == (113_884, 140_527)
    assert _solver_input_digest(problem) == SEED_SOLVER_INPUT["islanded_base_8760h/integrated"]
    inv = InvestmentDecision(s_pv=0.11, s_bess=0.077, p_cder_max=0.8)
    problem, _ = build_single_year(sc, _state(1, 0.07, eta_pv=1.0, eta_bess=0.9), inv)
    assert _solver_input_digest(problem) == SEED_SOLVER_INPUT["islanded_base_8760h/single_year"]


@pytest.mark.parametrize("prefix", ["islanded", "grid", "sizing", "highuse"],
                         ids=["islanded_base", "grid_fixed", "sizing_threshold",
                              "highuse_degradation"])
def test_fixture_solves_are_certified(request, prefix):
    # Each fixture's LP relaxation is exact: its plan and every validation year
    # come from the certificate, and the plan is branch-and-bound's.
    scenario = request.getfixturevalue(f"{prefix}_scenario")
    sol, _, result = request.getfixturevalue(f"{prefix}_plan")
    assert result.path == "certified"
    problem, index = build_integrated(scenario)
    bb = extract_solution(milp._branch_and_bound(problem, scenario.cfg.solver), index)
    assert sol.objective == pytest.approx(bb.objective, rel=1e-9)
    assert dataclasses.astuple(sol.investment) == pytest.approx(
        dataclasses.astuple(bb.investment), rel=1e-9)
    report = validate(sol.investment, scenario)
    assert {r.solve_path for r in report.per_year} == {"certified"}
