"""Year-by-year validation loop and the degradation state threading."""

import dataclasses
import json

import numpy as np
import pytest

from dbio import milp, validation
from dbio.planning import InvestmentDecision, build_integrated
from dbio.scenario import CycleLifeCurveSpec, load_scenario
from dbio.validation import compute_eue, initial_state, validate

from conftest import FIXTURES, constraint_csr


@pytest.fixture(scope="module")
def highuse_validation(highuse_scenario, highuse_plan):
    sol, _, _ = highuse_plan
    return validate(sol.investment, highuse_scenario)


def test_initial_state_matches_configuration(highuse_scenario):
    inv = InvestmentDecision(0.0, 1.5, 0.5)
    state = initial_state(highuse_scenario, inv)
    assert state.year == 1
    assert state.capacity == 1.5
    assert state.soh == highuse_scenario.bess.soh_init
    assert state.eta_bess == pytest.approx(highuse_scenario.bess.efficiency(state.soh))
    assert state.eta_pv == highuse_scenario.pv.eta_init


@pytest.mark.parametrize("fixture", ["grid_fixed", "islanded_base", "highuse_degradation",
                                     "sizing_threshold"])
def test_plan_and_first_validation_year_charge_at_one_efficiency(fixture):
    sc = load_scenario(FIXTURES / f"{fixture}.json")
    problem, index = build_integrated(sc)
    # A p_chg column holds -1 (balance), 1 (chg_rate) and the energy-tracking
    # charge coefficient, -efficiency.
    cols = constraint_csr(problem).tocsc()[:, index.series["p_chg"].ravel()]
    charge = cols.data[np.abs(cols.data) != 1.0]
    assert charge.size == index.series["p_chg"].size
    eta = initial_state(sc, InvestmentDecision(0.0, 1.0, 0.0)).eta_bess
    assert set(charge.tolist()) == {-eta}


def test_states_thread_year_to_year(highuse_validation):
    report = highuse_validation
    for prev, nxt in zip(report.per_year, report.per_year[1:]):
        assert nxt.state_in == prev.state_out
        assert nxt.year == prev.year + 1


def test_capacity_decreases_under_heavy_cycling(highuse_validation):
    report = highuse_validation
    caps = [r.state_in.capacity for r in report.per_year]
    assert all(a > b for a, b in zip(caps, caps[1:]))
    sohs = [r.state_in.soh for r in report.per_year]
    assert all(a > b for a, b in zip(sohs, sohs[1:]))


def test_eue_appears_as_capacity_fades(highuse_validation):
    report = highuse_validation
    assert report.per_year[0].eue_y <= report.eue_tolerance
    assert report.total_eue > 0
    assert not report.feasible


def test_degradation_off_baseline(highuse_scenario, highuse_plan):
    sol, _, _ = highuse_plan
    report = validate(sol.investment, highuse_scenario, apply_degradation=False)
    assert report.total_eue <= report.eue_tolerance
    assert report.feasible and not report.truncated
    caps = [r.state_in.capacity for r in report.per_year]
    assert len(set(caps)) == 1, "battery chain must be frozen"
    # PV fade still follows the configured rate.
    etas = [r.state_in.eta_pv for r in report.per_year]
    rate = highuse_scenario.pv.deg_rate
    for a, b in zip(etas, etas[1:]):
        assert b == pytest.approx(a * (1.0 - rate), rel=1e-12)


def test_pv_efficiency_follows_the_plan_schedule(islanded_scenario):
    inv = InvestmentDecision(s_pv=0.11, s_bess=0.077, p_cder_max=0.8)
    report = validate(inv, islanded_scenario)
    years = islanded_scenario.cfg.planning_years
    assert len(report.per_year) == years
    # Bit for bit: the plan prices year y's PV at this schedule's entry.
    schedule = islanded_scenario.pv.efficiency_schedule(years)
    assert [r.state_in.eta_pv for r in report.per_year] == schedule.tolist()


def test_zero_size_battery_keeps_a_frozen_chain(sizing_scenario):
    rate = 0.01
    sc = dataclasses.replace(sizing_scenario,
                             pv=dataclasses.replace(sizing_scenario.pv, deg_rate=rate))
    inv = InvestmentDecision(s_pv=0.5, s_bess=0.0, p_cder_max=0.6)
    report = validate(inv, sc)
    assert len(report.per_year) == sc.cfg.planning_years
    assert not report.truncated
    eta_bess = report.per_year[0].state_in.eta_bess
    for r in report.per_year:
        assert r.state_in.capacity == r.state_out.capacity == 0.0
        assert r.state_out.efc == r.state_out.deg == 0.0
        assert r.state_out.eta_bess == eta_bess
        assert r.state_out.eta_pv == pytest.approx(r.state_in.eta_pv * (1.0 - rate),
                                                   rel=1e-12)


def test_truncation_on_battery_exhaustion(highuse_scenario, highuse_plan):
    sol, _, _ = highuse_plan
    # A cycle-life curve three orders of magnitude harsher exhausts the
    # battery before the horizon ends.
    brutal = dataclasses.replace(
        highuse_scenario,
        bess=dataclasses.replace(
            highuse_scenario.bess,
            cycle_life_curve=CycleLifeCurveSpec(points=((0.10, 14.5), (1.00, 2.0)))))
    report = validate(sol.investment, brutal)
    assert report.truncated
    assert len(report.per_year) < highuse_scenario.cfg.planning_years
    assert not report.feasible


def test_eue_monotone_in_capacity(sizing_scenario):
    base = InvestmentDecision(s_pv=0.0, s_bess=0.0, p_cder_max=0.6)
    eues = []
    for size in (0.1, 0.3, 0.5):
        inv = dataclasses.replace(base, s_bess=size)
        report = validate(inv, sizing_scenario)
        eues.append(report.total_eue)
    assert eues[0] > eues[1] > eues[2]
    assert eues[2] <= 1e-6


def test_compute_eue_scales_with_alpha(highuse_validation):
    report = highuse_validation
    r = report.per_year[-1]
    shed = float(np.sum(r.dispatch.series["p_ls"]))
    assert r.eue_y == pytest.approx(365.0 * shed, rel=1e-12)
    assert compute_eue(r.dispatch, 1.0) == pytest.approx(shed, rel=1e-12)


def test_total_cost_is_sum_of_years(highuse_validation):
    report = highuse_validation
    assert report.total_cost == pytest.approx(
        sum(r.operating_cost_y for r in report.per_year), rel=1e-12)


def test_each_hourly_year_starts_from_the_basis_of_the_year_before(tmp_path, monkeypatch):
    # Three hourly years of islanded_base, each solved in day blocks: the first
    # block of years 2 and 3 starts from the basis the year before ended with.
    doc = json.loads((FIXTURES / "islanded_base.json").read_text())
    doc["horizon"].update(planning_years=3, rep_days=365)
    for key in ("load_file", "pv_cf_file"):
        doc["profiles"][key] = str(FIXTURES / doc["profiles"][key])
    path = tmp_path / "hourly.json"
    path.write_text(json.dumps(doc))
    years, solve, solve_year = [], milp.solve, validation.solve_single_year

    def per_year(*args):
        years.append([])
        return solve_year(*args)

    def spy(problem, opts=None, basis=None):
        years[-1].append(basis)
        return solve(problem, opts, basis)

    monkeypatch.setattr(validation, "solve_single_year", per_year)
    monkeypatch.setattr(milp, "solve", spy)
    report = validate(InvestmentDecision(0.11, 0.077, 0.8), load_scenario(path))
    assert [r.solve_path for r in report.per_year] == ["days"] * 3
    assert [calls[0] is not None for calls in years] == [False, True, True]
    assert all(basis is not None for calls in years for basis in calls[1:])
    assert [r.simplex_iterations > 0 for r in report.per_year] == [True] * 3
