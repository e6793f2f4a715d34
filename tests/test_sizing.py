"""Battery sizing searches against a fixture with a known shed-free threshold.

The fixture serves a single nightly deficit hour (0.4 MWh beyond the capped
generator) from storage with an 0.8-wide state-of-charge window and inert
degradation, so the smallest shed-free capacity is exactly 0.5 MWh.
"""

import dataclasses
import math

import numpy as np
import pytest

from dbio import milp, sizing
from dbio.planning import InvestmentDecision
from dbio.scenario import CycleLifeCurveSpec
from dbio.sizing import (SearchConfig, SizingError, UnservableLoadError, probe,
                         run_search, size_binary, size_fixed_step)

THRESHOLD = 0.5  # MWh


@pytest.fixture(scope="module")
def start(sizing_scenario):
    # Deliberately undersized so the doubling phase has work to do.
    return InvestmentDecision(s_pv=0.0, s_bess=0.05, p_cder_max=0.6)


@pytest.fixture(scope="module")
def binary_result(sizing_scenario, start):
    cfg = SearchConfig(method="binary", tolerance=0.01)
    return size_binary(start, sizing_scenario, cfg)


@pytest.fixture(scope="module")
def fixed_result(sizing_scenario, start):
    cfg = SearchConfig(method="fixed_step", step_frac=0.01, max_iterations=300)
    return size_fixed_step(start, sizing_scenario, cfg)


def test_binary_converges_to_threshold(binary_result):
    assert binary_result.converged
    assert THRESHOLD - 1e-9 <= binary_result.final_size <= THRESHOLD + 0.01
    assert binary_result.final_investment.s_bess == pytest.approx(
        binary_result.final_size, abs=1e-9)


def test_binary_bracketing_invariant(binary_result):
    shed_sizes = [r.candidate_size for r in binary_result.iterations if r.shed]
    ok_sizes = [r.candidate_size for r in binary_result.iterations if not r.shed]
    assert ok_sizes, "no shed-free probe recorded"
    assert max(shed_sizes) < min(ok_sizes)
    assert binary_result.final_size == min(ok_sizes)
    for rec in binary_result.iterations:
        if rec.phase == "bisection":
            assert rec.lb < rec.candidate_size < rec.ub


def test_binary_iteration_bound(binary_result):
    doubling = sum(1 for r in binary_result.iterations if r.phase == "doubling")
    bisect_recs = [r for r in binary_result.iterations if r.phase == "bisection"]
    first = bisect_recs[0]
    bound = doubling + math.ceil(math.log2((first.ub - first.lb) / 0.01)) + 1
    assert len(binary_result.iterations) <= bound


def test_fixed_step_converges_just_above_threshold(fixed_result, start):
    assert fixed_result.converged
    assert THRESHOLD - 1e-9 <= fixed_result.final_size <= 1.01 * THRESHOLD
    expected = math.ceil(math.log(THRESHOLD / start.s_bess) / math.log(1.01)) + 1
    assert len(fixed_result.iterations) == expected


def test_fixed_step_needs_more_probes_than_binary(binary_result, fixed_result):
    assert len(fixed_result.iterations) >= len(binary_result.iterations)
    assert fixed_result.final_size >= binary_result.final_size - 1e-9


def test_methods_agree_on_threshold(binary_result, fixed_result):
    assert abs(binary_result.final_size - fixed_result.final_size) <= 0.01 * THRESHOLD


def test_already_sufficient_start_bisects_down(sizing_scenario):
    cfg = SearchConfig(method="binary", tolerance=0.02)
    big = InvestmentDecision(s_pv=0.0, s_bess=0.8, p_cder_max=0.6)
    res = size_binary(big, sizing_scenario, cfg)
    assert res.converged
    assert res.iterations[0].phase == "doubling" and not res.iterations[0].shed
    assert THRESHOLD - 1e-9 <= res.final_size <= THRESHOLD + 0.02


def test_probe_reports_consistent_eue(sizing_scenario):
    objective, eue, inv, report, plan = probe(0.3, sizing_scenario)
    assert (plan.status, plan.objective) == ("optimal", objective)
    assert inv.s_bess == pytest.approx(0.3, abs=1e-9)
    assert eue == pytest.approx(report.total_eue)
    assert eue > 1e-6  # below the threshold, shedding is unavoidable
    assert math.isfinite(objective)


def test_unservable_load_raises(sizing_scenario):
    # Cap the generator below the base load and keep PV at zero: no amount of
    # storage can close the gap, so doubling must hit its hard stop.
    hopeless = dataclasses.replace(
        sizing_scenario,
        cder=dataclasses.replace(sizing_scenario.cder, max_size=0.2))
    cfg = SearchConfig(method="binary", tolerance=0.01)
    start = InvestmentDecision(s_pv=0.0, s_bess=0.05, p_cder_max=0.2)
    with pytest.raises(UnservableLoadError) as exc:
        size_binary(start, hopeless, cfg)
    assert "wore out" not in str(exc.value)


def test_worn_out_battery_error_says_no_load_was_shed(islanded_scenario, monkeypatch):
    # Three cycles of life at full depth wear every probed battery out before
    # the horizon ends while nothing is shed; a cap of 4x stops after 3 probes.
    monkeypatch.setattr(sizing, "DOUBLING_HARD_CAP", 4.0)
    worn = dataclasses.replace(islanded_scenario, bess=dataclasses.replace(
        islanded_scenario.bess,
        cycle_life_curve=CycleLifeCurveSpec(points=((0.1, 30.0), (1.0, 3.0)))))
    start = InvestmentDecision(s_pv=0.11, s_bess=0.077, p_cder_max=0.8)
    seen = []
    with pytest.raises(UnservableLoadError, match="battery wore out .* no load was shed"):
        size_binary(start, worn, SearchConfig(method="binary", tolerance=0.05),
                    on_iteration=seen.append)
    assert [(r.shed, r.truncated) for r in seen] == [(True, True)] * 3
    assert all(r.total_eue <= 1e-6 for r in seen)


def test_unconverged_bisection_reports_its_last_shed_free_probe(sizing_scenario, start,
                                                                binary_result):
    # Eight probes end the search at its 0.45 MWh probe, which sheds: the
    # result is the last shed-free probe, 0.5 MWh, with the bracket's midpoint.
    res = size_binary(start, sizing_scenario,
                      SearchConfig(method="binary", tolerance=0.01, max_iterations=8))
    assert not res.converged
    assert ([(r.candidate_size, r.shed) for r in res.iterations]
            == [(r.candidate_size, r.shed) for r in binary_result.iterations[:8]])
    last = res.iterations[-1]
    assert (last.phase, last.candidate_size, last.shed) == ("bisection", 0.45, True)
    assert res.final_size == 0.5 and res.final_investment.s_bess == pytest.approx(0.5, abs=1e-9)
    assert res.final_objective == res.iterations[-2].objective
    assert res.final_midpoint == pytest.approx((0.45 + 0.5) / 2.0)


def test_exhausted_battery_is_never_shed_free(sizing_scenario):
    # Three cycles of life at full depth: every probe exhausts its battery in
    # year 1 without shedding, so no probe may count as shed-free.
    worn = dataclasses.replace(sizing_scenario, bess=dataclasses.replace(
        sizing_scenario.bess,
        cycle_life_curve=CycleLifeCurveSpec(points=((0.1, 30.0), (1.0, 3.0)))))
    big = InvestmentDecision(s_pv=0.0, s_bess=0.8, p_cder_max=0.6)
    res = size_binary(big, worn, SearchConfig(method="binary", tolerance=0.02,
                                              max_iterations=3))
    assert [(r.shed, r.truncated) for r in res.iterations] == [(True, True)] * 3
    assert not res.converged and res.final_report.truncated


def test_zero_initial_size_is_searchable(sizing_scenario):
    cfg = SearchConfig(method="binary", tolerance=0.02)
    start = InvestmentDecision(s_pv=0.0, s_bess=0.0, p_cder_max=0.6)
    res = size_binary(start, sizing_scenario, cfg)
    assert res.converged
    assert THRESHOLD - 1e-9 <= res.final_size <= THRESHOLD + 0.02


def test_unconverged_fixed_step_reports_its_last_probe(sizing_scenario, start):
    cfg = SearchConfig(method="fixed_step", step_frac=0.01, max_iterations=2)
    res = size_fixed_step(start, sizing_scenario, cfg)
    assert not res.converged and len(res.iterations) == 2
    last = res.iterations[-1]
    assert res.final_size == last.candidate_size == pytest.approx(0.05 * 1.01)
    assert res.final_objective == last.objective
    assert res.final_investment.s_bess == pytest.approx(res.final_size, abs=1e-9)


def test_fixed_step_rejects_zero_initial(sizing_scenario):
    start = InvestmentDecision(s_pv=0.0, s_bess=0.0, p_cder_max=0.6)
    with pytest.raises(SizingError, match="positive"):
        size_fixed_step(start, sizing_scenario)


def test_search_config_validation():
    with pytest.raises(SizingError):
        SearchConfig(method="golden")
    with pytest.raises(SizingError):
        SearchConfig(tolerance=0.0)
    with pytest.raises(SizingError):
        SearchConfig(step_frac=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(SizingError, match="tolerance must be finite"):
            SearchConfig(tolerance=bad)
        with pytest.raises(SizingError, match="step_frac must be finite"):
            SearchConfig(step_frac=bad)
    with pytest.raises(SizingError):
        SearchConfig(max_iterations=0)


def test_run_search_dispatches(sizing_scenario, start, binary_result):
    res = run_search(start, sizing_scenario,
                     SearchConfig(method="binary", tolerance=0.01))
    assert res.method == "binary"
    assert res.final_size == pytest.approx(binary_result.final_size, abs=1e-9)


def test_iteration_callback_invoked(sizing_scenario, start):
    seen = []
    cfg = SearchConfig(method="binary", tolerance=0.05)
    size_binary(start, sizing_scenario, cfg, on_iteration=seen.append)
    assert [r.index for r in seen] == list(range(len(seen)))
    assert len(seen) >= 2


def test_probes_start_from_the_plan_before_and_years_from_the_year_before(
        sizing_scenario, start, monkeypatch):
    # Every probe's plan after the first starts from the final basis of the
    # plan before it, and every validation year after a probe's first from
    # the year before; a probe's first year starts cold, as a validation of
    # its investment alone does. A record counts the iterations of them all,
    # a warm solve that was solved again cold included.
    models, solve = {}, milp.solve  # id -> [problem, name, warm, iterations]

    def spy(problem, opts=None, basis=None):
        result = solve(problem, opts, basis)
        model = models.setdefault(id(problem), [problem, problem.name, basis is not None, 0])
        model[3] += result.iterations
        return result

    monkeypatch.setattr(milp, "solve", spy)
    result = size_binary(start, sizing_scenario, SearchConfig(tolerance=0.05))
    years = sizing_scenario.cfg.planning_years
    calls = [model[1:] for model in models.values()]
    probes = [calls[k:k + 1 + years] for k in range(0, len(calls), 1 + years)]
    assert len(probes) == len(result.iterations) >= 3
    for k, (probe_calls, rec) in enumerate(zip(probes, result.iterations)):
        assert [name for name, *_ in probe_calls] == ["integrated"] + ["single_year"] * years
        assert [warm for _, warm, _ in probe_calls] == [k > 0, False] + [True] * (years - 1)
        assert rec.simplex_iterations == sum(iterations for *_, iterations in probe_calls)
