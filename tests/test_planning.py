"""Planning model structure, dispatch physics, and cost accounting."""

import dataclasses
import hashlib
import json
import math
import time

import numpy as np
import pytest
from scipy import optimize
from scipy.optimize._highspy._core import HighsModelStatus as Status

from dbio import milp, planning
from dbio.degradation import DegradationState
from dbio.planning import (InvestmentDecision, ModelBuildError, ModelIndex,
                           _add_battery_exclusion, build_integrated, build_single_year,
                           extract_solution, solve_dispatch, solve_single_year)
from dbio.scenario import (BessParams, CderParams, TariffSchedule, load_scenario,
                           representative_day_indices)
from dbio.sizing import probe
from dbio.validation import ValidationError, compute_eue, validate

from conftest import (FIXTURES, check_dispatch_invariants, constraint_csr, make_scenario,
                      solve_plan, write_sizing_doc)

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


def test_extract_clips_solver_round_off_in_a_size():
    # Branch-and-bound can return a size of -1e-14. The check prices it as
    # solved; the reported size and breakdown have it clipped to 0.
    sc = make_scenario(np.linspace(0.2, 0.8, 24), np.zeros(24))
    problem, index = build_integrated(sc)
    result = milp.solve(problem, OPTS)
    x = result.primal.copy()
    assert x[index.scalars["s_pv"]] == 0.0
    x[index.scalars["s_pv"]] = -1e-14
    sol = extract_solution(dataclasses.replace(result, primal=x), index)
    assert sol.investment.s_pv == 0.0 and sol.costs["pv_deg"] == 0.0
    assert sol.objective == result.objective
    assert sol.cost_total == pytest.approx(result.objective, rel=1e-9)


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


def _switch_coefficients(problem, family):
    """The coefficient ``M`` of each row ``series <= M*u`` of ``family``, in row order."""
    A = constraint_csr(problem)
    rows = [r for r, name in enumerate(milp._names(problem._row_names))
            if name.startswith(f"{family}_")]
    return -A[rows][:, problem.binary_indices].toarray().sum(axis=1)


def _committed(load, cf, p_min, no_load=0.0, bess_capital=5e4):
    """A committed generator of at most 1 MW, every size free."""
    return make_scenario(load, cf, bess=BessParams(capital=bess_capital),
                         cder=CderParams(capital=1e5, op_cost=50.0, no_load=no_load,
                                         p_min=p_min, max_size=1.0))


# Committed plans whose optimum burns a surplus, so the exclusion is appended
# (6 commitment and 12 exclusion binaries). The objectives are those of the
# same plans with 1000 MW in every switch row the scenario bounds, so the
# bounds cut off no optimum.
BURNS = [([0.58, 0.13, 0.58, 0.54, 0.5, 0.31], [0, 0.7, 0.89, 0, 0.31, 0.16], 0.57, 1e4,
          119_212.031229947),
         ([0.16, 0.09, 0.48, 0.5, 0.27, 0.21], [0, 0.04, 0.37, 0.29, 0.03, 0.46], 0.47, 1e3,
          92_550.826203704)]


@pytest.mark.parametrize("load,cf,p_min,bess_capital,objective", BURNS, ids=["burn-1", "burn-2"])
def test_committed_plan_switch_rows_take_the_scenario_bounds(load, cf, p_min, bess_capital,
                                                             objective):
    sc = _committed(load, cf, p_min, no_load=1.0, bess_capital=bess_capital)
    problem, index = build_integrated(sc)
    result = solve_dispatch(problem, index, OPTS)
    assert (result.path, problem.binary_indices.size) == ("highs", 18)
    assert result.objective == pytest.approx(objective, rel=1e-9)
    np.testing.assert_array_equal(_switch_coefficients(problem, "cder_on"), [1.0] * 6)
    # An islanded discharging hour's balance caps it at its load; a cyclic
    # day charges 1/eta times what it discharges.
    np.testing.assert_array_equal(_switch_coefficients(problem, "dchg_on"), load)
    np.testing.assert_array_equal(_switch_coefficients(problem, "chg_on"),
                                  [sum(load) / sc.bess.efficiency(sc.bess.soh_init)] * 6)
    check_dispatch_invariants(extract_solution(result, index), sc, sc.profiles())


def test_a_plans_exclusion_solve_gets_what_the_first_solve_left(monkeypatch):
    # A plan's HiGHS calls share the time limit as a validation year's do.
    # Every solve takes 2 s here; burn-1's first optimum burns a surplus.
    load, cf, p_min, bess_capital, objective = BURNS[0]
    sc = _committed(load, cf, p_min, no_load=1.0, bess_capital=bess_capital)
    problem, index = build_integrated(sc)
    seen, solve = [], milp.solve

    def two_seconds(problem, opts, basis=None):
        seen.append(opts.time_limit)
        return dataclasses.replace(solve(problem, opts, basis), runtime=2.0)

    monkeypatch.setattr(milp, "solve", two_seconds)
    result = solve_dispatch(problem, index, dataclasses.replace(OPTS, time_limit=10.0))
    assert seen == [10.0, 8.0]
    assert (result.path, result.runtime) == ("highs", 4.0)
    assert result.objective == pytest.approx(objective, rel=1e-9)


def test_warm_solve_not_optimal_is_repeated_cold(monkeypatch):
    # The cold call gets what the warm call left of the time limit, and the
    # total's runtime and iterations cover both calls.
    p = milp.MilpProblem("lp")
    x, y = p.add_variable("x"), p.add_variable("y", 0.0, 1.5)
    p.add_constraint([(x, 1.0), (y, 1.0)], milp.GE, 3.0, "cover")
    p.set_objective([(x, 1.0), (y, 2.0)])
    basis = milp.solve(p).basis
    calls, highs = [], milp.milp

    def warm_times_out(c, **kwargs):
        calls.append(kwargs)
        if kwargs.get("basis") is not None:
            time.sleep(0.05)
            return milp.HighsResult(status=Status.kTimeLimit, objective=math.inf,
                                    x=np.zeros(0), mip_gap=math.inf, mip_node_count=0,
                                    iterations=7)
        calls.append(highs(c, **kwargs))
        return calls[-1]

    monkeypatch.setattr(milp, "milp", warm_times_out)
    solves = planning._Solves(milp.SolveOptions(time_limit=10.0))
    got = solves.total(solves.solve(p, basis))
    warm, cold, cold_result = calls
    assert warm["basis"] is not None and cold.get("basis") is None
    assert warm["time_limit"] == 10.0 and cold["time_limit"] <= 10.0 - 0.05
    assert (got.status, got.objective) == ("optimal", 3.0)
    assert got.runtime >= 0.05 and got.iterations == 7 + cold_result.iterations


def test_committed_plan_is_capped_by_max_size():
    # A 0.3 MW coefficient in cder_on held the generator below its 0.5 MW
    # minimum output, and the plan shed every hour (876,000,000.00).
    sc = _committed(np.full(24, 0.1), np.zeros(24), p_min=0.5)
    problem, index = build_integrated(sc)
    sol = extract_solution(solve_dispatch(problem, index, OPTS), index)
    np.testing.assert_array_equal(_switch_coefficients(problem, "cder_on"), [1.0] * 24)
    assert sol.objective == pytest.approx(135_215.717593, abs=1e-6)
    assert 0.5 <= sol.investment.p_cder_max <= 1.0 and np.max(sol.series["p_ls"]) <= 1e-9


def test_switch_rows_the_scenario_does_not_bound_are_an_error():
    committed = CderParams(capital=1e5, op_cost=50.0, p_min=0.5)  # max_size is infinite
    sc = make_scenario(np.full(24, 0.1), np.zeros(24), cder=committed)
    with pytest.raises(ModelBuildError, match="cder.max_size"):
        build_integrated(sc)
    # A validation year pins the generator's size, which bounds its output.
    state = _state(1, 1.0, eta_pv=1.0, eta_bess=0.9)
    assert build_single_year(sc, state, InvestmentDecision(0.0, 1.0, 0.5))[0].n_variables > 0

    open_days = make_scenario(np.full(24, 0.1), np.zeros(24), cyclic_soc=False)
    problem, index = build_integrated(open_days)
    n = problem.n_variables
    with pytest.raises(ModelBuildError, match="horizon.cyclic_soc"):
        _add_battery_exclusion(problem, index)
    assert problem.n_variables == n
    # A pinned battery's rate limits bound its charge.
    _add_battery_exclusion(*build_integrated(open_days, pin_s_bess=1.0))


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


def test_small_big_m_does_not_cap_the_exclusion():
    # chg_on/dchg_on switch with the pinned 10 MWh battery's rate limits. A
    # 0.3 MW coefficient there left the surplus nowhere to go and the year
    # shed its load.
    sc = make_scenario(np.full(24, 0.1), np.zeros(24),
                       cder=CderParams(capital=1e5, op_cost=50.0, p_min=0.5))
    state = _state(1, 10.0, eta_pv=sc.pv.eta_init, eta_bess=sc.bess.efficiency(sc.bess.soh_init))
    inv = InvestmentDecision(s_pv=0.0, s_bess=10.0, p_cder_max=0.5)
    problem, index = build_single_year(sc, state, inv)
    result = solve_dispatch(problem, index, OPTS)
    assert result.path == "highs"
    np.testing.assert_array_equal(_switch_coefficients(problem, "chg_on"), 10.0 / sc.bess.t_chg)
    np.testing.assert_array_equal(_switch_coefficients(problem, "dchg_on"), 10.0 / sc.bess.t_dchg)
    assert result.objective == pytest.approx(36_552_833.75, abs=0.01)

def test_committed_year_switches_with_the_pinned_capacity():
    # cder_on switches the generator off with its own bound, the pinned
    # 0.75 MW. A 0.3 MW coefficient there capped the output and the year
    # cost 138,616.24.
    sc = _synthetic()
    state = _state(1, 0.5, eta_pv=sc.pv.eta_init, eta_bess=sc.bess.efficiency(sc.bess.soh_init))
    problem, index = build_single_year(sc, state, InvestmentDecision(0.25, 0.5, 0.75))
    np.testing.assert_array_equal(_switch_coefficients(problem, "cder_on"), 0.75)
    assert solve_dispatch(problem, index, OPTS).objective == pytest.approx(134_870.56, abs=0.01)


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
# a constant; the */integrated entries did not move.
# synthetic/integrated and synthetic/pinned were re-recorded when a planned
# commitment row came to need a finite cder.max_size and _synthetic() gained
# max_size = 10, the value the constant held there: each equals the previous
# build with only p_cder_max's upper bound moved from inf to 10.
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
        "4e751a514a2d97dde0e00d54e2e29e4e31a5ef20fc719e559ea8ac7d87e9c192",
    "synthetic/pinned":
        "8618e37bddd004b0a4fba972edd88bf039980c0767cb8db3e56afb0d82407f54",
    "synthetic/single_year":
        "3a35f3bd5887fd264ee6da364f36868def53f69fc0dfdf23dce90095dc643565",
    "islanded_base_8760h/integrated":
        "e42d31fe85c252b75710fda6e5a9e483c33f17bcb41f27d18eefbc3066f37bc5",
    "islanded_base_8760h/single_year":
        "f3e37f8834bbee1558e6c8b5fda2e403121ad8681369328d8bd3a22861e0ca5a",
}


def _solver_input_digest(problem):
    indptr, indices, data, lb, ub = problem.constraint_matrix()
    h = hashlib.sha256()
    for a in (indptr, indices, data, lb, ub, problem.c, problem.lower,
              problem.upper, problem.integrality):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    h.update(np.float64(problem.objective_constant).tobytes())
    return h.hexdigest()


def _hourly_year(tmp_path, days=365):
    """``islanded_base`` at full hourly resolution, one year (8760 h), or
    reduced to ``days`` representative days."""
    doc = json.loads((FIXTURES / "islanded_base.json").read_text())
    doc["horizon"].update(planning_years=1, rep_days=days)
    for key in ("load_file", "pv_cf_file"):
        doc["profiles"][key] = str(FIXTURES / doc["profiles"][key])
    path = tmp_path / "hourly.json"
    path.write_text(json.dumps(doc))
    return load_scenario(path)


def _synthetic():
    """Covers what the fixtures do not: soc_min = 0, no cyclic rows, a tie-line,
    p_min and no-load cost, with the generator's size capped at 10 MW."""
    return make_scenario(np.linspace(0.2, 0.8, 24),
                         np.clip(np.sin(np.linspace(0, np.pi, 24)), 0, 1), years=2,
                         tie=0.3, import_price=40.0, cyclic_soc=False,
                         cder=CderParams(capital=1e5, op_cost=50.0, no_load=5.0, p_min=0.1,
                                         max_size=10.0),
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
    A = constraint_csr(problem)
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
    A = constraint_csr(problem).tocsc()
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


def _case_build(case, tmp_path):
    """``(build, scenario)``: the build of a SEED_SOLVER_INPUT case as a
    function of its scenario, and the case's scenario."""
    fixture, mode = case.split("/")
    if fixture == "islanded_base_8760h":
        inv = InvestmentDecision(s_pv=0.11, s_bess=0.077, p_cder_max=0.8)
        state = _state(1, 0.07, eta_pv=1.0, eta_bess=0.9)
        build = (build_integrated if mode == "integrated"
                 else lambda sc: build_single_year(sc, state, inv))
        return build, _hourly_year(tmp_path)
    return (lambda sc: _build_mode(sc, mode)), _scenario(fixture)


def _other_values(sc):
    """``sc`` with another load and PV profile: every build of it has the
    layout of ``sc``'s build and other values."""
    return dataclasses.replace(sc, base_load=1.25 * sc.base_load,
                               base_pv_cf=0.5 * sc.base_pv_cf)


@pytest.mark.parametrize("case", list(SEED_SOLVER_INPUT))
@planning.holding_layouts()
def test_builds_of_a_held_layout_match_the_seed_builder(tmp_path, case):
    # The first build in a scope assembles and holds the layout; a build of
    # other values then rewrites every value, and the case's next build only
    # writes its own.
    build, sc = _case_build(case, tmp_path)
    problem, _ = build(sc)
    (layout,) = planning._layouts.values()
    assert problem.indptr is layout.rows.indptr and problem.indices is layout.rows.indices
    assert _solver_input_digest(problem) == SEED_SOLVER_INPUT[case]
    build(_other_values(sc))
    problem, _ = build(sc)
    assert list(planning._layouts.values()) == [layout]
    assert problem.indptr is layout.rows.indptr and problem.indices is layout.rows.indices
    assert _solver_input_digest(problem) == SEED_SOLVER_INPUT[case]


def test_a_build_outside_any_scope_holds_no_layout(islanded_scenario):
    for _ in range(2):
        problem, _ = build_integrated(islanded_scenario)
        assert problem._layout is None and planning._layouts is None


def test_a_nested_scope_shares_the_outer_layouts(islanded_scenario):
    with planning.holding_layouts():
        held = planning._layouts
        with planning.holding_layouts():
            assert planning._layouts is held
            problem, _ = build_integrated(islanded_scenario)
        (layout,) = held.values()
        assert planning._layouts is held and problem.indptr is layout.rows.indptr
        problem, _ = build_integrated(islanded_scenario)
        assert problem.indptr is layout.rows.indptr
    assert planning._layouts is None


def test_an_exception_drops_the_held_layouts(islanded_scenario):
    with pytest.raises(ModelBuildError, match="outside the horizon"):
        with planning.holding_layouts():
            build_integrated(islanded_scenario)
            assert len(planning._layouts) == 1
            build_single_year(islanded_scenario, _state(99, 0.3, eta_pv=1.0, eta_bess=0.9),
                              InvestmentDecision(0.2, 0.3, 0.6))
    assert planning._layouts is None
    problem, _ = build_integrated(islanded_scenario)
    assert problem._layout is None


def test_a_search_and_a_validation_hold_layouts_while_they_run(sizing_scenario):
    inv = solve_plan(sizing_scenario)[0].investment
    held = []
    probe(inv.s_bess, sizing_scenario)  # outside a search: only its validation holds
    assert planning._layouts is None
    validate(inv, sizing_scenario, on_year=lambda r: held.append(len(planning._layouts)))
    assert held == [1, 1] and planning._layouts is None


@planning.holding_layouts()
def test_appending_the_exclusion_leaves_a_held_layout_alone():
    sc = _scenario("highuse_degradation")
    problem, index = _build_mode(sc, "pinned")
    (layout,) = planning._layouts.values()
    assert problem.indptr is layout.rows.indptr
    with pytest.raises(ValueError, match="read-only"):
        problem.indices[0] = 0
    rows = problem.n_constraints
    _add_battery_exclusion(problem, index)
    assert problem.n_constraints > rows and problem.indptr is not layout.rows.indptr
    assert milp.solve(problem, OPTS).path == "highs"
    problem, _ = _build_mode(sc, "pinned")
    assert problem.indptr is layout.rows.indptr
    assert _solver_input_digest(problem) == SEED_SOLVER_INPUT["highuse_degradation/pinned"]


def test_a_warm_solve_that_stops_off_a_bound_is_solved_again_cold(sizing_scenario):
    # sizing_threshold's battery fades by about 1e-11 MWh a year. From year
    # 1's basis HiGHS takes year 2's stored energy 8.5e-12 MWh above its new
    # bound as feasible and stops; solved again cold, with the time the warm
    # run left, the year sheds those 8.5e-12 MW at 3.65e8 $/MW, as a cold
    # solve does.
    inv = solve_plan(sizing_scenario)[0].investment
    year1 = validate(inv, sizing_scenario).per_year[0]
    first, _ = solve_single_year(sizing_scenario, year1.state_in, inv, OPTS)
    assert 0 < year1.state_in.capacity - year1.state_out.capacity < 1e-9
    problem, _ = build_single_year(sizing_scenario, year1.state_out, inv)
    cold = milp.solve(problem, OPTS)
    warm = milp.solve(problem, OPTS, basis=first.basis)
    assert cold.off_bound <= planning.WARM_SLACK < warm.off_bound < 1e-7
    assert (warm.status, cold.status) == ("optimal", "optimal")
    solves = planning._Solves(OPTS)
    got = solves.total(solves.solve(problem, first.basis))
    assert got.objective == pytest.approx(cold.objective, rel=1e-12)
    assert got.iterations == warm.iterations + cold.iterations
    assert np.all(got.primal <= problem.upper + planning.WARM_SLACK)


def test_a_basis_that_does_not_cover_the_model_is_dropped(sizing_scenario, islanded_scenario,
                                                          monkeypatch):
    # A basis of another layout starts nothing: the solve is one cold call.
    inv = InvestmentDecision(0.0, 0.6, 0.6)
    state = _state(1, 0.6, eta_pv=1.0, eta_bess=0.9)
    other, _ = build_single_year(islanded_scenario, state, inv)
    problem, _ = build_single_year(sizing_scenario, state, inv)
    basis = milp.solve(other, OPTS).basis
    assert basis[0].size != problem.n_variables
    bases, solve = [], milp.solve

    def spy(problem, opts=None, basis=None):
        bases.append(basis)
        return solve(problem, opts, basis)

    monkeypatch.setattr(milp, "solve", spy)
    got = planning._Solves(OPTS).solve(problem, basis)
    monkeypatch.undo()
    assert bases == [None]
    cold = milp.solve(problem, OPTS)
    assert (got.status, got.objective, got.iterations) == ("optimal", cold.objective,
                                                           cold.iterations)


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
                            constraint_csr(problem), problem.lb, problem.ub)],
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

    def capture(c, **kwargs):
        shape = (kwargs["row_lower"].size, kwargs["indptr"].size - 1)
        seen.append((c.size, shape, kwargs["lower"].size, kwargs["integrality"].size))
        return highs(c, **kwargs)

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
    # objective and in the sizes (ids 0-2). A warm solve that stops off a
    # bound is no answer: the same model is solved cold next, and compared.
    scenario = request.getfixturevalue(f"{prefix}_scenario")
    pairs, reduced = [], milp.solve

    def both(problem, opts, basis=None):
        got = reduced(problem, opts, basis)
        pairs.append((problem, basis is not None, got, _all_columns_solve(problem, opts)))
        return got

    monkeypatch.setattr(milp, "solve", both)
    sol = solve_plan(scenario)[0]
    probe(0.5 * sol.investment.s_bess, scenario)
    validate(sol.investment, scenario)
    assert len(pairs) >= 2 + 2 * scenario.cfg.planning_years
    for (problem, warm, got, want), after in zip(pairs, pairs[1:] + [(None, None)]):
        if warm and got.off_bound > planning.WARM_SLACK:
            assert after[:2] == (problem, False)
            continue
        assert got.objective == pytest.approx(want.objective, rel=1e-9)
        assert got.primal[:3] == pytest.approx(want.primal[:3], rel=1e-9)


@pytest.fixture(scope="module")
def hourly_year(tmp_path_factory):
    return _hourly_year(tmp_path_factory.mktemp("hourly"))


def _highs_calls(monkeypatch):
    """The column count of each HiGHS call from here on."""
    seen, highs = [], milp.milp

    def capture(c, **kwargs):
        seen.append(c.size)
        return highs(c, **kwargs)

    monkeypatch.setattr(milp, "milp", capture)
    return seen


def _builds(monkeypatch):
    """(days, problem arrays as built) of each single-year build from here on."""
    seen, build = [], planning.build_single_year

    def capture(scenario, state, investment, days=slice(None)):
        problem, index = build(scenario, state, investment, days=days)
        seen.append((days, {k: getattr(problem, k).copy() for k in _ARRAYS}))
        return problem, index

    monkeypatch.setattr(planning, "build_single_year", capture)
    return seen


_ARRAYS = ("indptr", "indices", "data", "lb", "ub", "c", "lower", "upper", "integrality")
BLOCK_COLUMNS = 4 + planning.BLOCK_DAYS * 24 * len(ModelIndex.SERIES)


def _year(sizes, year=1):
    inv = InvestmentDecision(*sizes)
    return _state(year, inv.s_bess, eta_pv=1.0, eta_bess=0.9), inv


# The benchmark's investment, whose year starts with the battery at the bottom
# of its window, and two whose year starts with it inside the window.
@pytest.mark.parametrize("sizes,interior", [((0.11, 0.077, 0.8), False),
                                            ((0.3, 0.5, 0.8), True), ((0.5, 2.0, 0.5), True)],
                         ids=["bottom", "interior", "interior-large"])
def test_hourly_year_solves_in_day_blocks(hourly_year, monkeypatch, sizes, interior):
    state, inv = _year(sizes)
    seen, built = _highs_calls(monkeypatch), _builds(monkeypatch)
    got, index = solve_single_year(hourly_year, state, inv, OPTS)
    monkeypatch.undo()
    assert (got.status, got.path) == ("optimal", "days")
    blocks = -(-365 // planning.BLOCK_DAYS)
    assert len(seen) >= blocks and max(seen) <= BLOCK_COLUMNS
    assert len(built) == len(seen) and max(a["c"].size for _, a in built) <= BLOCK_COLUMNS
    problem, whole_index = build_single_year(hourly_year, state, inv)
    assert index.shape == whole_index.shape and index.scalars == whole_index.scalars
    assert all(np.array_equal(index.series[k], ids) for k, ids in whole_index.series.items())
    residuals, objective = problem.evaluate(got.primal)
    # The year's objective sums the block objectives: equal up to round-off.
    assert residuals.max() <= 1e-7 and objective == pytest.approx(got.objective, rel=1e-14)
    whole = milp.solve(problem, OPTS)
    assert got.objective == pytest.approx(whole.objective, rel=1e-9)
    e = index.scalars["e_init"]
    assert (problem.lower[e] < whole.primal[e] < problem.upper[e]) == interior
    # Each block starts from the basis of the one before: fewer than half the
    # simplex iterations of the same blocks started cold.
    solve = milp.solve
    monkeypatch.setattr(milp, "solve", lambda problem, opts=None, basis=None: solve(problem, opts))
    cold, _ = solve_single_year(hourly_year, state, inv, OPTS)
    monkeypatch.undo()
    assert cold.path == "days" and 0 < got.iterations < cold.iterations / 2


def test_split_year_without_a_basis_is_seeded_by_its_first_two_days(hourly_year,
                                                                   monkeypatch):
    # The year's one cold HiGHS call solves its first two days; every block,
    # the first too, starts from a basis, and the first from the seed's.
    state, inv = _year((0.11, 0.077, 0.8))
    calls, highs = [], milp.milp

    def capture(c, **kwargs):
        calls.append((c.size, kwargs["basis"] is not None))
        return highs(c, **kwargs)

    monkeypatch.setattr(milp, "milp", capture)
    got, _ = solve_single_year(hourly_year, state, inv, OPTS)
    monkeypatch.undo()
    seed, _ = build_single_year(hourly_year, state, inv, days=slice(0, planning.SEED_DAYS))
    assert planning.SEED_DAYS == 2 and seed.n_constraints == 2 * (24 * 2 + 1)
    assert calls[0] == (np.count_nonzero(seed.lower < seed.upper), False)
    assert all(warm for _, warm in calls[1:]) and len(calls) > -(-365 // planning.BLOCK_DAYS)
    assert (got.status, got.path) == ("optimal", "days")
    assert got.iterations < 1000


def _shifting_year():
    """120 islanded days whose sunrise, sunset and zero-load hours move from
    day to day, so each block fixes other curtailment and shed columns."""
    days, hours = np.arange(120)[:, None], np.arange(24)
    rise, dusk = 5 + days % 4, 17 + days % 3
    pv_cf = np.where((hours > rise) & (hours < dusk),
                     np.sin(np.pi * (hours - rise) / (dusk - rise)), 0.0)
    load = 0.3 + 0.2 * np.sin(days + hours / 3.0) ** 2
    load[(hours + days) % 7 == 0] = 0.0
    return make_scenario(load, pv_cf)


def test_blocks_with_other_free_columns_start_warm(monkeypatch):
    # The basis a block hands on covers other free columns than the next
    # block's; HiGHS repairs it as an alien basis and the year stays optimal.
    sc = _shifting_year()
    state, inv = _year((0.3, 0.1, 0.5))
    built, bases, solve = _builds(monkeypatch), [], milp.solve

    def spy(problem, opts=None, basis=None):
        bases.append(basis)
        return solve(problem, opts, basis)

    monkeypatch.setattr(milp, "solve", spy)
    got, _ = solve_single_year(sc, state, inv, OPTS)
    monkeypatch.undo()
    # The cold seed, then the first pass over the blocks; re-solves follow.
    (seed, _), *built = built
    blocks = built[:-(-120 // planning.BLOCK_DAYS)]
    assert seed == slice(0, planning.SEED_DAYS) and blocks[-1][0].stop == 120
    masks = {(a["lower"] < a["upper"]).tobytes() for _, a in blocks}
    assert len(masks) == len(blocks) == 5
    assert bases[0] is None and all(b is not None for b in bases[1:])
    assert (got.status, got.path) == ("optimal", "days")
    problem, _ = build_single_year(sc, state, inv)
    assert got.objective == pytest.approx(milp.solve(problem, OPTS).objective, rel=1e-9)


def _grid_year():
    """56 grid-tied days, year 2 of 2 with growing load, priced by a tariff that
    varies by day and hour."""
    days = np.arange(56)[:, None]
    hours = np.arange(24)
    load = 0.4 + 0.2 * np.sin(days + hours / 4.0) ** 2
    pv_cf = np.clip(np.sin(np.pi * (hours - 6) / 12.0), 0.0, 1.0) * (0.5 + 0.5 * (days % 3 == 0))
    sc = make_scenario(load, pv_cf, years=2, tie=0.3, load_growth=0.03)
    price = 30.0 + days + 2.0 * hours
    return dataclasses.replace(sc, tariff=TariffSchedule(import_price=price, export_factor=0.7))


@pytest.mark.parametrize("case", ["islanded_base_8760h", "grid_tied_56d"])
def test_day_blocks_are_slices_of_the_whole_year(hourly_year, monkeypatch, case):
    # Every block a split year builds, as built, is the whole year's rows of
    # its days over the four scalars and its days' columns.
    sc, year = (hourly_year, 1) if case == "islanded_base_8760h" else (_grid_year(), 2)
    state, inv = _year((0.3, 0.5, 0.8), year)
    built = _builds(monkeypatch)
    solve_single_year(sc, state, inv, OPTS)
    monkeypatch.undo()
    whole, index = build_single_year(sc, state, inv)
    # The whole year's load and PV are Scenario.profiles' entries of the year, bit for bit.
    profiles = sc.profiles()
    assert np.array_equal(whole.upper[index.series["p_ls"]], profiles.load[year - 1:year])
    assert np.array_equal(whole.upper[index.series["p_curt"]],
                          np.asarray([1.0])[:, None, None] * profiles.pv_cf[year - 1:year] * 0.3)
    A, D = constraint_csr(whole), index.shape[1]
    assert whole.n_constraints % D == 0
    per_day = whole.n_constraints // D
    blocks = [(days, arrays) for days, arrays in built if days != slice(None)]
    assert blocks and sum(days.stop - days.start for days, _ in blocks) >= D
    for days, got in blocks:
        rows = slice(per_day * days.start, per_day * days.stop)
        cols = np.concatenate([sorted(index.scalars.values()), np.sort(np.concatenate(
            [ids[:, days].ravel() for ids in index.series.values()]))])
        block = A[rows][:, cols]
        want = {"indptr": block.indptr, "indices": block.indices, "data": block.data,
                "lb": whole.lb[rows], "ub": whole.ub[rows],
                **{k: getattr(whole, k)[cols] for k in ("c", "lower", "upper", "integrality")}}
        for k in _ARRAYS:
            assert got[k].dtype == want[k].dtype and np.array_equal(got[k], want[k]), (days, k)


def test_block_names_are_the_whole_years(hourly_year):
    # A block's columns and rows carry the names of the same ids in the whole
    # year, so an error message or LP export names the year's day.
    state, inv = _year((0.3, 0.5, 0.8))
    whole, index = build_single_year(hourly_year, state, inv)
    block, _ = build_single_year(hourly_year, state, inv, days=slice(26, 52))
    cols = np.concatenate([sorted(index.scalars.values()), np.sort(np.concatenate(
        [ids[:, 26:52].ravel() for ids in index.series.values()]))])
    per_day = whole.n_constraints // index.shape[1]
    var_names, row_names = milp._names(whole._var_names), milp._names(whole._row_names)
    assert milp._names(block._var_names) == [var_names[i] for i in cols]
    assert milp._names(block._row_names) == row_names[per_day * 26:per_day * 52]
    assert "p_cder_0_26_0" in milp._names(block._var_names)


def test_validation_never_builds_a_split_year_whole(hourly_year, monkeypatch):
    seen, built = _highs_calls(monkeypatch), _builds(monkeypatch)
    report = validate(InvestmentDecision(0.11, 0.077, 0.8), hourly_year)
    assert [r.solve_path for r in report.per_year] == ["days"]
    assert max(seen) <= BLOCK_COLUMNS and max(a["c"].size for _, a in built) <= BLOCK_COLUMNS
    assert slice(None) not in [days for days, _ in built]


def _two_regime_year():
    """56 days, a 1 MWh battery with a [0.1, 0.9] MWh window, no generator and
    1 MW of PV. The first 28 days discharge 0.2 MWh at hour 0 and refill at
    noon, so they need e_init >= 0.3. The last 28 store 0.6 MWh of PV at hour 0
    for a 0.6 MW load at hour 20, so they need e_init <= 0.3."""
    load, pv_cf = np.zeros((56, 24)), np.zeros((56, 24))
    load[:28, 0], pv_cf[:28, 12] = 0.2, 1.0
    pv_cf[28:, 0], load[28:, 20] = 1.0, 0.6
    return make_scenario(load, pv_cf)


def test_split_year_that_fails_the_check_is_solved_whole(monkeypatch):
    sc = _two_regime_year()
    state, inv = _year((1.0, 1.0, 0.0))
    seen, built = _highs_calls(monkeypatch), _builds(monkeypatch)
    got, index = solve_single_year(sc, state, inv, OPTS)
    monkeypatch.undo()
    assert (got.status, got.path) == ("optimal", "lp")
    # The two-day seed, two blocks, one failed re-solve, the whole year.
    assert [days for days, _ in built] == [slice(0, 2), slice(0, 28), slice(28, 56),
                                           slice(0, 28), slice(None)]
    assert len(seen) == len(built)
    problem, _ = build_single_year(sc, state, inv)
    whole = milp.solve(problem, OPTS)
    assert got.objective == pytest.approx(whole.objective, rel=1e-9)
    assert got.primal[index.scalars["e_init"]] == pytest.approx(0.3, abs=1e-9)
    assert compute_eue(extract_solution(got, index), 365 / 56) == pytest.approx(0.0, abs=1e-9)


def test_split_year_with_a_block_not_optimal_is_solved_whole(monkeypatch):
    sc = _two_regime_year()
    state, inv = _year((1.0, 1.0, 0.0))
    calls, solve = [], milp.solve

    def first_block_times_out(problem, opts=None, basis=None):
        calls.append((problem.n_variables, basis is not None))
        if problem.n_variables == 4 + 28 * 24 * 8:
            return milp.SolveResult(status=milp.TIME_LIMIT, objective=math.nan, primal=None)
        return solve(problem, opts, basis)

    monkeypatch.setattr(milp, "solve", first_block_times_out)
    got, _ = solve_single_year(sc, state, inv, OPTS)
    monkeypatch.undo()
    whole, _ = build_single_year(sc, state, inv)
    # The two-day seed, the first block from its basis and again cold, the whole year.
    assert calls == [(4 + 2 * 24 * 8, False), (4 + 28 * 24 * 8, True),
                     (4 + 28 * 24 * 8, False), (whole.n_variables, False)]
    assert (got.status, got.path) == ("optimal", "lp")
    assert got.objective == pytest.approx(milp.solve(whole, OPTS).objective, rel=1e-9)


@pytest.mark.parametrize("limit,limits", [(10.0, [10.0, 7.75, 5.5, 3.25, 1.0]),
                                          (9.0, [9.0, 6.75, 4.5, 2.25])])
def test_split_year_solves_share_the_time_limit(monkeypatch, limit, limits):
    # Every solve takes 2.25 s here. Each HiGHS call of the year (the two-day
    # seed, two blocks, the failed re-solve, the whole year) gets what the
    # calls before it left; once that is spent the year is time-limit without
    # another call, and without a build of the whole year.
    sc = _two_regime_year()
    state, inv = _year((1.0, 1.0, 0.0))
    seen, solve, built = [], milp.solve, _builds(monkeypatch)

    def slow(problem, opts=None, basis=None):
        seen.append(opts.time_limit)
        if opts.time_limit <= 2.25:
            return milp.SolveResult(status=milp.TIME_LIMIT, objective=math.nan, primal=None,
                                    runtime=opts.time_limit)
        return dataclasses.replace(solve(problem, opts, basis), runtime=2.25)

    monkeypatch.setattr(milp, "solve", slow)
    opts = dataclasses.replace(OPTS, time_limit=limit)
    got, _ = solve_single_year(sc, state, inv, opts)
    assert seen == limits
    assert (got.status, got.runtime) == ("time-limit", limit)
    assert [days for days, _ in built].count(slice(None)) == (len(limits) == 5)
    sc = dataclasses.replace(sc, cfg=dataclasses.replace(sc.cfg, solver=opts))
    with pytest.raises(ValidationError, match="year 1: solver returned time-limit"):
        validate(inv, sc)


def test_year_of_block_days_is_one_solve(tmp_path, monkeypatch):
    sc = _hourly_year(tmp_path, days=planning.BLOCK_DAYS)
    seen, built = _highs_calls(monkeypatch), _builds(monkeypatch)
    got, _ = solve_single_year(sc, *_year((0.11, 0.077, 0.8)), OPTS)
    assert (got.status, got.path, len(seen)) == ("optimal", "lp", 1)
    assert [days for days, _ in built] == [slice(None)]
