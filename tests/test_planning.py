"""Planning model structure, dispatch physics, and cost accounting."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from scipy import optimize

from dbio import milp, planning
from dbio.degradation import DegradationState
from dbio.planning import (InvestmentDecision, ModelBuildError, _add_battery_exclusion,
                           build_integrated, build_single_year, extract_solution,
                           solve_dispatch)
from dbio.scenario import BessParams, CderParams, load_scenario, representative_day_indices
from dbio.sizing import probe
from dbio.validation import validate

from conftest import (FIXTURES, check_dispatch_invariants, make_scenario, solve_plan,
                      write_sizing_doc)

OPTS = milp.SolveOptions(mip_gap=0.0, time_limit=300.0)


def _solve(scenario, pin_s_bess=None):
    problem, index = build_integrated(scenario, pin_s_bess=pin_s_bess)
    result = solve_dispatch(problem, index, OPTS)
    assert result.has_solution, result.status
    return extract_solution(result, index), scenario.profiles(), result


def _state(year, capacity, eta_pv, eta_bess):
    """Degradation state of a single-year build; the build does not read ``soh``."""
    return DegradationState(year=year, capacity=capacity, soh=1.0, eta_bess=eta_bess,
                            eta_pv=eta_pv)


def test_variable_count_single_day():
    sc = make_scenario(np.full(24, 0.5), np.zeros(24))
    problem, _ = build_integrated(sc)
    # 8 continuous series per hour plus the 4 sizing/initial-energy globals;
    # without a minimum output or no-load cost the generator has no binary.
    assert problem.n_variables == 24 * 8 + 4
    assert problem.binary_indices.size == 0


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


def test_extract_nets_simultaneous_import_and_export():
    # At export_factor 1 an hour that both imports and exports costs nothing
    # extra, so the solver's answer may hold one; the extracted dispatch nets it.
    sc = make_scenario(np.linspace(0.2, 0.8, 24), np.zeros(24), tie=1.0, import_price=40.0)
    sc = dataclasses.replace(sc, tariff=dataclasses.replace(sc.tariff, export_factor=1.0))
    problem, index = build_integrated(sc)
    result = milp.solve(problem, OPTS)
    x = result.primal.copy()
    imp, exp = index.series["p_imp"][0, 0, 5], index.series["p_exp"][0, 0, 5]
    x[imp] += 0.1
    x[exp] += 0.1
    assert min(x[imp], x[exp]) >= 0.1 and max(x[imp], x[exp]) <= sc.cfg.tie_limit
    sol = extract_solution(dataclasses.replace(result, primal=x), index)
    assert sol.series["p_imp"][0, 0, 5] - sol.series["p_exp"][0, 0, 5] == pytest.approx(
        x[imp] - x[exp], abs=1e-12)
    assert sol.cost_total == pytest.approx(result.objective, rel=1e-9)
    check_dispatch_invariants(sol, sc, sc.profiles())


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


def test_small_big_m_does_not_cap_the_plan(islanded_scenario):
    # big_m is in no row of a model without commitment: a value below the
    # optimal generator size (0.69 MW) neither caps it nor moves the objective.
    def plan(big_m):
        sc = dataclasses.replace(islanded_scenario,
                                 cfg=dataclasses.replace(islanded_scenario.cfg, big_m=big_m))
        return _solve(sc)

    small, _, r_small = plan(0.5)
    large, _, r_large = plan(10.0)
    assert r_small.objective == pytest.approx(r_large.objective, rel=1e-9)
    assert r_small.objective == pytest.approx(1_934_038.86, abs=0.01)
    assert small.investment.p_cder_max == pytest.approx(large.investment.p_cder_max, rel=1e-9)
    assert small.investment.p_cder_max > 0.5


def test_forced_surplus_falls_back_to_the_exclusion():
    # A 0.5 MW minimum output against a 0.1 MW load leaves a surplus. Without
    # the exclusion the optimum burns it by charging and discharging in one
    # hour; solve_dispatch then appends the exclusion and solves again.
    sc = make_scenario(np.full(24, 0.1), np.zeros(24),
                       cder=CderParams(capital=1e5, op_cost=50.0, p_min=0.5))
    inv = InvestmentDecision(0.0, 10.0, 0.5)
    state = _state(1, 10.0, eta_pv=sc.pv.eta_init,
                   eta_bess=sc.bess.efficiency(sc.bess.soh_init))
    problem, index = build_single_year(sc, state, inv)
    convex = milp.solve(problem, OPTS)
    burnt = np.minimum(convex.primal[index.series["p_chg"]],
                       convex.primal[index.series["p_dchg"]])
    assert np.max(burnt) > 1.0

    result = solve_dispatch(problem, index, OPTS)
    assert result.path == "highs" and problem.binary_indices.size == 3 * 24
    direct, direct_index = build_single_year(sc, state, inv)
    _add_battery_exclusion(direct, direct_index)
    expected = milp.solve(direct, OPTS)
    assert result.objective == pytest.approx(expected.objective, rel=1e-9)
    # The model with per-hour charge, discharge and grid binaries gave this optimum.
    assert result.objective == pytest.approx(36_552_833.75, abs=0.01)
    sol = extract_solution(result, index)
    check_dispatch_invariants(sol, sc, sc.profiles(), eta_pv_by_year=[sc.pv.eta_init],
                              capacity=10.0)


def test_small_big_m_does_not_cap_a_validation_year():
    # cder_on switches the generator off with its own bound, the pinned
    # 0.75 MW. With big_m in that row, 0.3 capped the output and the year
    # cost 138,616.24.
    sc = _synthetic()
    state = _state(1, 0.5, eta_pv=sc.pv.eta_init, eta_bess=sc.bess.efficiency(sc.bess.soh_init))
    inv = InvestmentDecision(s_pv=0.25, s_bess=0.5, p_cder_max=0.75)

    def year_cost(big_m):
        year = dataclasses.replace(sc, cfg=dataclasses.replace(sc.cfg, big_m=big_m))
        return solve_dispatch(*build_single_year(year, state, inv), OPTS).objective

    assert year_cost(0.3) == pytest.approx(year_cost(10.0), rel=1e-9)
    assert year_cost(10.0) == pytest.approx(134_870.56, abs=0.01)


def test_small_big_m_does_not_cap_the_exclusion():
    # chg_on/dchg_on switch with the pinned 10 MW rate limits. With big_m in
    # those rows, 0.3 left the surplus nowhere to go and the year shed its load.
    sc = make_scenario(np.full(24, 0.1), np.zeros(24), big_m=0.3,
                       cder=CderParams(capital=1e5, op_cost=50.0, p_min=0.5))
    state = _state(1, 10.0, eta_pv=sc.pv.eta_init, eta_bess=sc.bess.efficiency(sc.bess.soh_init))
    inv = InvestmentDecision(s_pv=0.0, s_bess=10.0, p_cder_max=0.5)
    result = solve_dispatch(*build_single_year(sc, state, inv), OPTS)
    assert result.path == "highs"
    assert result.objective == pytest.approx(36_552_833.75, abs=0.01)


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
# the 8 bytes of objective_constant (see _solver_input_digest). Equal digests
# mean HiGHS receives the same problem. Recorded when the charge/discharge and
# import/export binaries and their rows left the model, and the generator's
# binary with its two rows became conditional on a minimum output or no-load
# cost (only "synthetic" has one). Each fixture's plan objective and sizes
# equal the exclusion model's (test_fixture_solves_equal_the_exclusion_model).
# The */pinned and */single_year entries and islanded_base_8760h/single_year
# were re-recorded when a pinned size's rows (einit_*, cder_cap, curt_cap,
# soc_*, *chg_rate) became bounds on the series they cap and cder_on's
# coefficient became the generator's upper bound, where finite, in place of
# big_m; the */integrated entries did not move.
# test_pinned_bounds_solve_as_the_pinned_rows checks the new builds against
# the row formulation.
# sizing_threshold and highuse_degradation differ only in horizon length and
# degradation curves, so their single-year builds coincide.
SEED_SOLVER_INPUT = {
    "islanded_base/integrated":
        "9eb622be7c80b5842786277e5ad5d7ee094cf10604b8ed95230661a1d4c77d4d",
    "islanded_base/pinned":
        "7dede6d6584c6efc8335e42ccea22f0343b2d418767b81a7777e932775493a6f",
    "islanded_base/single_year":
        "fcc3289fcde0f2aa956c7c35a0399afc4dfe4867a0dd28e90896cb9f3e8d263e",
    "grid_fixed/integrated":
        "0315cb2d8c772d71fb2a4c6c3bb65f77b46379095afc3b89c6f94dee548a27fa",
    "grid_fixed/pinned":
        "39e7909fc0c7e4306c5d003907895317ab1e54e237f957792ae4f3e787c24660",
    "grid_fixed/single_year":
        "b4bc1d2eae9cabbf5c2ed811ca5a755e1b1878530f4b1d066ae3a05bb6cd6ea8",
    "sizing_threshold/integrated":
        "c74f76a2484717e6bb9473d497706bf2785b62ea68bd23eea856e2ceaeddf230",
    "sizing_threshold/pinned":
        "a7f68eee4372d1f24f6c2e2f53042afee92df098a46e7d3a7357104f177208a2",
    "sizing_threshold/single_year":
        "b7999a52fa1c14b4314b1cde573f81706b0847161f2cb670c44fcddfc13fcf64",
    "highuse_degradation/integrated":
        "b83ba7d50006e97ba2b52bb1c631a1a0942987ae4baf87ae6712ffcf53599e14",
    "highuse_degradation/pinned":
        "0200b0015f4ca3863a3099654bdb8a7b8f8ae65222a783e79799e516a10f2b91",
    "highuse_degradation/single_year":
        "b7999a52fa1c14b4314b1cde573f81706b0847161f2cb670c44fcddfc13fcf64",
    "synthetic/integrated":
        "7cf238c79f68ff49192ea9ab0fbd7df947969b960e2f2407b3502e35632eee56",
    "synthetic/pinned":
        "3a6a94cc0a29c170846dd58666b34f14cba220530571660cf54e9d9955c99f48",
    "synthetic/single_year":
        "3a35f3bd5887fd264ee6da364f36868def53f69fc0dfdf23dce90095dc643565",
    "islanded_base_8760h/integrated":
        "e42d31fe85c252b75710fda6e5a9e483c33f17bcb41f27d18eefbc3066f37bc5",
    "islanded_base_8760h/single_year":
        "f3e37f8834bbee1558e6c8b5fda2e403121ad8681369328d8bd3a22861e0ca5a",
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


def _scenario(fixture):
    return _synthetic() if fixture == "synthetic" else load_scenario(FIXTURES / f"{fixture}.json")


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
    sc = _scenario(fixture)
    problem, index = _build_mode(sc, mode)
    # Explicit zeros stay in A, as before (PV terms at night, soc_min = 0).
    # Per hour: 8 balance and 4 tracking terms, 2 per cder_cap and curt_cap
    # row while the generator and PV are free, 8 in the battery's four rows
    # while it is free, and 4 in the commitment rows; 2 per einit row and per
    # cyclic row.
    Y, D, T = index.shape
    A = problem.constraint_matrix()[0]
    free_caps, free_bess = {"integrated": (1, 1), "pinned": (1, 0), "single_year": (0, 0)}[mode]
    per_hour = 12 + 4 * free_caps + 8 * free_bess + 4 * bool(problem.binary_indices.size)
    assert A.nnz == per_hour * Y * D * T + 4 * free_bess + 2 * Y * D * sc.cfg.cyclic_soc
    assert np.any(A.data == 0)
    assert _solver_input_digest(problem) == SEED_SOLVER_INPUT[case]


PINNED_CASES = [k for k in SEED_SOLVER_INPUT if "8760h" not in k and "integrated" not in k]


@pytest.mark.parametrize("case", PINNED_CASES)
def test_pinned_size_is_read_only_by_the_balance(case):
    # A pinned size bounds the series it caps, so its column is in no row
    # but the power balance's PV term.
    fixture, mode = case.split("/")
    problem, index = _build_mode(_scenario(fixture), mode)
    A = problem.constraint_matrix()[0].tocsc()
    rows = milp._names(problem._row_names)
    pinned = [k for k in ("s_pv", "s_bess", "p_cder_max")
              if problem.lower[index.scalars[k]] == problem.upper[index.scalars[k]]]
    assert pinned == (["s_bess"] if mode == "pinned" else ["s_pv", "s_bess", "p_cder_max"])
    for k in pinned:
        col = A[:, index.scalars[k]]
        read = {rows[r].split("_")[0] for r in col.indices[col.data != 0]}
        assert read <= ({"balance"} if k == "s_pv" else set()), k


@pytest.mark.parametrize("case", PINNED_CASES)
def test_pinned_bounds_solve_as_the_pinned_rows(monkeypatch, case):
    # The oracle is the row formulation: the same build with every size free,
    # so each size keeps its rows, then pinned through its column bounds.
    fixture, mode = case.split("/")
    sc = _scenario(fixture)
    problem, index = _build_mode(sc, mode)
    build = planning._build

    def free_then_pinned(*args, size_lo, size_hi, **kwargs):
        rows, rows_index = build(*args, size_lo=(0.0,) * 3, size_hi=(math.inf,) * 3, **kwargs)
        sizes = [rows_index.scalars[k] for k in ("s_pv", "s_bess", "p_cder_max")]
        rows.lower[sizes], rows.upper[sizes] = size_lo, size_hi
        return rows, rows_index

    monkeypatch.setattr(planning, "_build", free_then_pinned)
    oracle, oracle_index = _build_mode(sc, mode)
    assert oracle.n_constraints > problem.n_constraints
    got = extract_solution(solve_dispatch(problem, index, OPTS), index)
    want = extract_solution(solve_dispatch(oracle, oracle_index, OPTS), oracle_index)
    assert got.objective == pytest.approx(want.objective, rel=1e-9)
    assert dataclasses.astuple(got.investment) == pytest.approx(
        dataclasses.astuple(want.investment), rel=1e-9)


def test_hourly_year_solver_input_matches_seed_builder(tmp_path):
    sc = _hourly_year(tmp_path)
    problem, _ = build_integrated(sc)
    assert (problem.n_variables, problem.n_constraints) == (70_084, 70_447)
    assert _solver_input_digest(problem) == SEED_SOLVER_INPUT["islanded_base_8760h/integrated"]
    inv = InvestmentDecision(s_pv=0.11, s_bess=0.077, p_cder_max=0.8)
    problem, _ = build_single_year(sc, _state(1, 0.07, eta_pv=1.0, eta_bess=0.9), inv)
    assert (problem.n_variables, problem.n_constraints) == (70_084, 17_885)
    assert _solver_input_digest(problem) == SEED_SOLVER_INPUT["islanded_base_8760h/single_year"]


@pytest.mark.parametrize("prefix", ["islanded", "grid", "sizing", "highuse"],
                         ids=["islanded_base", "grid_fixed", "sizing_threshold",
                              "highuse_degradation"])
def test_fixture_solves_equal_the_exclusion_model(request, prefix):
    # Each fixture's plan is one LP with no binaries, and its objective and
    # sizes are those of branch-and-bound on the same model with the
    # charge/discharge exclusion appended. No validation year falls back.
    scenario = request.getfixturevalue(f"{prefix}_scenario")
    sol, _, result = request.getfixturevalue(f"{prefix}_plan")
    assert result.path == "lp"
    problem, index = build_integrated(scenario)
    _add_battery_exclusion(problem, index)
    bb = milp.solve(problem, scenario.cfg.solver)
    assert bb.path == "highs"
    bb = extract_solution(bb, index)
    assert sol.objective == pytest.approx(bb.objective, rel=1e-9)
    assert dataclasses.astuple(sol.investment) == pytest.approx(
        dataclasses.astuple(bb.investment), rel=1e-9)
    report = validate(sol.investment, scenario)
    assert {r.solve_path for r in report.per_year} == {"lp"}


def _all_columns_solve(problem, opts):
    """The solver input before fixed columns left it: scipy's HiGHS on every column."""
    res = optimize.milp(problem.c, constraints=[optimize.LinearConstraint(
                            *problem.constraint_matrix())],
                        bounds=optimize.Bounds(problem.lower, problem.upper),
                        integrality=problem.integrality,
                        options={"mip_rel_gap": opts.mip_gap, "time_limit": opts.time_limit,
                                 "presolve": True, "disp": False})
    assert res.status == 0, res.message
    return milp.SolveResult(status=milp.OPTIMAL, objective=res.fun + problem.objective_constant,
                            primal=res.x)


def test_hourly_year_hands_highs_only_the_free_columns(tmp_path, monkeypatch):
    sc = _hourly_year(tmp_path)
    inv = InvestmentDecision(s_pv=0.11, s_bess=0.077, p_cder_max=0.8)
    problem, _ = build_single_year(sc, _state(1, 0.07, eta_pv=1.0, eta_bess=0.9), inv)
    free = problem.lower < problem.upper
    assert (problem.n_variables, free.sum()) == (70_084, 47_816)
    seen, highs = [], milp.milp

    def capture(c, *, constraints, bounds, integrality, options):
        seen.append((c.size, constraints[0].A.shape, bounds.lb.size, integrality.size))
        return highs(c, constraints=constraints, bounds=bounds, integrality=integrality,
                     options=options)

    monkeypatch.setattr(milp, "milp", capture)
    got = milp.solve(problem, OPTS)
    assert seen == [(47_816, (17_885, 47_816), 47_816, 47_816)]
    assert (got.status, got.path, got.primal.shape) == ("optimal", "lp", (70_084,))
    assert np.array_equal(got.primal[~free], problem.lower[~free])
    assert got.objective == pytest.approx(_all_columns_solve(problem, OPTS).objective, rel=1e-9)


@pytest.mark.parametrize("prefix", ["islanded", "grid", "sizing", "highuse"],
                         ids=["islanded_base", "grid_fixed", "sizing_threshold",
                              "highuse_degradation"])
def test_free_columns_solve_as_all_columns(monkeypatch, request, prefix):
    # The plan, a pinned-size probe with its validation years, and the plan's
    # validation years: each solve equals scipy's HiGHS on every column, in
    # objective and in the sizes (ids 0-2).
    scenario = request.getfixturevalue(f"{prefix}_scenario")
    pairs, reduced = [], milp._BACKENDS["highs"]

    def both(problem, opts):
        pairs.append((reduced(problem, opts), _all_columns_solve(problem, opts)))
        return pairs[-1][0]

    monkeypatch.setitem(milp._BACKENDS, "highs", both)
    monkeypatch.setenv("DBIO_SOLVER", "highs")
    sol = solve_plan(scenario)[0]
    probe(0.5 * sol.investment.s_bess, scenario)
    validate(sol.investment, scenario)
    assert len(pairs) >= 2 + 2 * scenario.cfg.planning_years
    for got, want in pairs:
        assert got.objective == pytest.approx(want.objective, rel=1e-9)
        assert got.primal[:3] == pytest.approx(want.primal[:3], rel=1e-9)
