"""Cycle-life weighting, capacity chain, and efficiency regression."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbio.degradation import (BatteryExhaustedError, DegradationError,
                              DegradationState, advance_state, bin_midpoint,
                              count_cycles, degradation_factor,
                              degradation_per_cycle, equivalent_full_cycles)
from dbio.scenario import (BessParams, CycleLifeCurveSpec, PvParams, ScenarioError,
                           load_scenario)
from dbio.validation import validate

from conftest import FIXTURES

CURVE = CycleLifeCurveSpec()


def test_curve_interpolates_and_clamps():
    assert CURVE.cycle_life(0.10) == 14500.0
    assert CURVE.cycle_life(1.00) == 2000.0
    assert CURVE.cycle_life(0.15) == pytest.approx(13250.0)
    # Queries outside the knot span clamp to the end values.
    assert CURVE.cycle_life(0.01) == 14500.0
    assert CURVE.cycle_life(1.5) == 2000.0


def test_degradation_factor_is_one_at_max_dod():
    assert degradation_factor(CURVE.max_dod, CURVE) == 1.0


def test_degradation_factor_monotone_in_dod():
    dods = np.linspace(0.05, 1.0, 40)
    dfs = [degradation_factor(d, CURVE) for d in dods]
    assert all(a <= b + 1e-15 for a, b in zip(dfs, dfs[1:]))
    assert dfs[0] < dfs[-1]


def test_degradation_factor_rejects_nonpositive_dod():
    with pytest.raises(DegradationError):
        degradation_factor(0.0, CURVE)


def test_efc_linear_in_alpha():
    hist = {0.25: 3.0, 0.80: 1.5}
    base = equivalent_full_cycles(hist, CURVE, alpha=1.0)
    for alpha in (2.0, 52.142857, 365.0):
        scaled = equivalent_full_cycles(hist, CURVE, alpha=alpha)
        assert abs(scaled - alpha * base) <= 1e-12 * abs(scaled)


def test_dpc_arithmetic_identity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rated = float(rng.uniform(0.1, 50.0))
        eol = float(rng.uniform(0.05, 0.95))
        cl = float(rng.uniform(100.0, 20000.0))
        assert degradation_per_cycle(rated, eol, cl) == (1.0 - eol) * rated / cl


def test_dpc_example_value():
    assert degradation_per_cycle(2.725, 0.8, 2000.0) == pytest.approx(2.725e-4, rel=1e-12)


def test_dpc_input_validation():
    with pytest.raises(DegradationError):
        degradation_per_cycle(0.0, 0.8, 2000.0)
    with pytest.raises(DegradationError):
        degradation_per_cycle(1.0, 1.0, 2000.0)
    with pytest.raises(DegradationError):
        degradation_per_cycle(1.0, 0.8, 0.0)


def test_capacity_chain_conserves_total_loss():
    bess = BessParams()
    pv = PvParams()
    rng = np.random.default_rng(17)
    rated = 5.0
    state = DegradationState(year=1, capacity=rated, soh=1.0,
                             eta_bess=bess.efficiency(1.0), eta_pv=1.0)
    total_deg = 0.0
    for _ in range(100):
        hist = {0.25: float(rng.uniform(0, 10)), 0.60: float(rng.uniform(0, 4))}
        state = advance_state(state, hist, bess, pv, rated, alpha=1.0)
        total_deg += state.deg
    assert rated - state.capacity == pytest.approx(total_deg, rel=1e-12)
    assert state.soh == pytest.approx(state.capacity / rated * bess.soh_init, rel=1e-12)


def test_two_point_efficiency_fit_is_exact():
    eff = BessParams(eff_model_points=((1.0, 0.90), (0.8, 0.86))).efficiency
    # Slope w = eff(1) - eff(0), intercept b = eff(0).
    assert eff(1.0) - eff(0.0) == pytest.approx(0.2, rel=1e-9)
    assert eff(0.0) == pytest.approx(0.70, rel=1e-9)
    assert eff(1.0) == pytest.approx(0.90, rel=1e-12)
    assert eff(0.8) == pytest.approx(0.86, rel=1e-12)


@pytest.mark.parametrize("fixture", ["grid_fixed", "highuse_degradation", "islanded_base",
                                     "sizing_threshold"])
def test_fixture_efficiency_lines_are_exact_at_their_knots(fixture):
    # np.polyfit's line gave 0.9000000000000001 at SOH 1.0 on these points.
    bess = load_scenario(FIXTURES / f"{fixture}.json").bess
    assert len(bess.eff_model_points) == 2
    for soh, eta in bess.eff_model_points:
        assert bess.efficiency(soh) == eta
    assert bess.efficiency(bess.soh_init) == 0.9


def test_efficiency_fit_validation():
    with pytest.raises(ScenarioError, match="distinct SOH"):
        BessParams(eff_model_points=((0.9, 0.8), (0.9, 0.7)))
    with pytest.raises(ScenarioError):
        BessParams(eff_model_points=((0.9, 0.8),))


def test_prediction_clamped_to_unit_interval():
    eff = BessParams(eff_model_points=((1.0, 0.90), (0.8, 0.86))).efficiency
    assert eff(3.0) == 1.0
    assert eff(-100.0) == 1e-9


def _efficiency_fitted_per_call(bess, soh):
    """Reference: one closed-form least-squares fit per call, about the means."""
    x, y = np.asarray(bess.eff_model_points, dtype=float).T.tolist()
    x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
    w = (sum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
         / sum((a - x_mean) ** 2 for a in x))
    return min(1.0, max(1e-9, y_mean + w * (soh - x_mean)))


@pytest.mark.parametrize("points", [((1.0, 0.90), (0.8, 0.86)),
                                    ((1.0, 0.90), (0.8, 0.82)),
                                    ((1.0, 0.91), (0.93, 0.885), (0.85, 0.87), (0.8, 0.83))])
def test_kept_efficiency_line_equals_the_per_call_fit(points):
    bess = BessParams(eff_model_points=points)
    for soh in (1.0, 0.97, 0.9123456789, 0.85, 0.8, 0.5, 3.0, -100.0):
        assert bess.efficiency(soh) == _efficiency_fitted_per_call(bess, soh)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 1000).map(lambda k: k / 1000),
                          st.floats(min_value=0.01, max_value=1.0)),
                min_size=2, max_size=8, unique_by=lambda p: p[0]))
def test_efficiency_line_agrees_with_polyfit(points):
    # np.polyfit is the oracle here only; distinct SOH values on a 0.001 grid.
    bess = BessParams(eff_model_points=tuple(points))
    x, y = np.asarray(points).T
    w, b = np.polyfit(x, y, 1)
    for soh in (*x, 0.0, 0.5, 1.0):
        want = min(1.0, max(1e-9, w * soh + b))
        # 1e-12 relative to the efficiencies' scale, which is at most 1
        assert bess.efficiency(soh) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_validation_fits_the_efficiency_line_once(highuse_plan, monkeypatch):
    fits = []
    fit = BessParams._efficiency_line.func

    def counting_fit(bess):
        fits.append(bess)
        return fit(bess)

    counting = functools.cached_property(counting_fit)
    counting.__set_name__(BessParams, "_efficiency_line")
    monkeypatch.setattr(BessParams, "_efficiency_line", counting)
    scenario = load_scenario(FIXTURES / "highuse_degradation.json")
    report = validate(highuse_plan[0].investment, scenario)
    assert len(report.per_year) == scenario.cfg.planning_years > 1
    assert len(fits) == 1


def test_bin_midpoint_half_up():
    assert bin_midpoint(0.074, 0.05) == pytest.approx(0.05)
    assert bin_midpoint(0.12, 0.05) == pytest.approx(0.10)
    assert bin_midpoint(0.024, 0.05) == 0.0
    # Exact tie rounds up (0.375 / 0.25 is exactly 1.5 in binary floats).
    assert bin_midpoint(0.375, 0.25) == pytest.approx(0.50)


def test_count_cycles_hand_trace():
    hist = count_cycles([1.0, 0.5, 1.0, 0.5, 1.0])
    assert list(hist) == [pytest.approx(0.50)]
    assert sum(hist.values()) == pytest.approx(2.0)


def test_count_cycles_drops_flat_noise():
    trace = 0.5 + 1e-9 * np.sin(np.arange(50))
    assert count_cycles(np.clip(trace, 0, 1)) == {}


def test_count_cycles_validation():
    with pytest.raises(DegradationError):
        count_cycles([0.5])
    with pytest.raises(DegradationError):
        count_cycles([0.5, 1.2])


def test_advance_state_updates_chain():
    bess = BessParams()
    state = DegradationState(year=1, capacity=2.0, soh=1.0,
                             eta_bess=0.9, eta_pv=1.0)
    out = advance_state(state, {1.0: 10.0}, bess, PvParams(deg_rate=0.005),
                        rated=2.0, alpha=1.0)
    # 10 full-DOD cycles at DF=1; loss = 10 * (1-0.8)*2/2000.
    assert out.efc == pytest.approx(10.0)
    assert out.deg == pytest.approx(10.0 * 0.2 * 2.0 / 2000.0, rel=1e-12)
    assert out.capacity == pytest.approx(2.0 - out.deg, rel=1e-12)
    assert out.eta_pv == pytest.approx(0.995)
    assert out.year == 2
    assert out.eta_bess == pytest.approx(bess.efficiency(out.soh), rel=1e-12)


def test_advance_state_exhaustion_raises():
    bess = BessParams()
    state = DegradationState(year=1, capacity=0.001, soh=0.0005,
                             eta_bess=0.9, eta_pv=1.0)
    with pytest.raises(BatteryExhaustedError):
        advance_state(state, {1.0: 100.0}, bess, PvParams(), rated=2.0, alpha=1.0)
