"""Scenario parsing, validation, and profile generation."""

import dataclasses
import json

import numpy as np
import pytest

from dbio.scenario import (BessParams, CderParams, ScenarioError, TariffSchedule,
                           load_scenario, reduce_to_representative_days,
                           representative_day_indices)

from conftest import FIXTURES, make_scenario, write_sizing_doc


def test_representative_day_indices_identity():
    idx = representative_day_indices(365, 365)
    assert np.array_equal(idx, np.arange(365))


def test_representative_day_indices_stride():
    idx = representative_day_indices(365, 7)
    expected = [int(np.floor((k + 0.5) * 365 / 7)) for k in range(7)]
    assert idx.tolist() == expected
    assert len(set(idx.tolist())) == 7


def test_reduce_identity_at_full_resolution():
    series = np.arange(8760, dtype=float)
    assert np.array_equal(reduce_to_representative_days(series, 365), series)


def test_reduce_preserves_whole_days():
    series = np.arange(8760, dtype=float)
    out = reduce_to_representative_days(series, 7)
    days = representative_day_indices(365, 7)
    for k, d in enumerate(days):
        assert np.array_equal(out[24 * k:24 * (k + 1)], series[24 * d:24 * (d + 1)])


def test_reduce_rejects_bad_length():
    with pytest.raises(ScenarioError):
        reduce_to_representative_days(np.zeros(100), 7)


def test_growth_compounds_per_year():
    prof = make_scenario(np.full(24, 2.0), np.zeros(24), years=4, load_growth=0.02).profiles()
    for y in range(4):
        assert prof.load[y] == pytest.approx(2.0 * 1.02 ** y, rel=1e-12)
    # PV capacity factors do not grow.
    assert np.all(prof.pv_cf == 0.0)


def test_islanded_fixture_peak_load(islanded_scenario):
    prof = islanded_scenario.profiles()
    years = islanded_scenario.cfg.planning_years
    expected = float(islanded_scenario.base_load.max()) * 1.005 ** (years - 1)
    assert float(prof.load.max()) == pytest.approx(expected, rel=1e-9)
    assert float(prof.load.min()) > 0.0


def test_alpha_is_days_per_year_over_rep_days(islanded_scenario, sizing_scenario):
    assert islanded_scenario.base_load.shape[0] == 7 and islanded_scenario.alpha == 365 / 7
    assert sizing_scenario.alpha == 365.0


def test_export_factor_default():
    tariff = TariffSchedule(import_price=np.full((1, 24), 100.0))
    assert tariff.export_factor == 0.8
    assert np.all(tariff.export_price == 80.0)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(tmp_path / "nope.json")


@pytest.mark.parametrize("section, key", [
    ("cder", "banana"), ("solver", "thread"), ("horizon", "hours_per_day"),
    ("horizon", "alpha"),       # derived: 365 over the representative days
    ("horizon", "solver"),      # the solver settings are their own section
    ("horizon", "big_m"),       # switch rows take bounds the scenario implies
    ("tariff", "mode"),         # the price source is import_price or price_file
    ("tariff", "import_prize"), ("profiles", "extra")])
def test_load_scenario_rejects_unknown_field(tmp_path, section, key):
    path = write_sizing_doc(tmp_path, lambda doc: doc[section].update({key: 1}))
    with pytest.raises(ScenarioError, match=f"{section}: unknown field.*{key}"):
        load_scenario(path)


def test_load_scenario_rejects_unknown_section(tmp_path):
    path = write_sizing_doc(tmp_path, lambda doc: doc.update(bes=doc.pop("bess")))
    with pytest.raises(ScenarioError, match="scenario: unknown field.*'bes'"):
        load_scenario(path)


@pytest.mark.parametrize("section, key, name", [
    ("profiles", "load_file", 5), ("profiles", "pv_cf_file", "missing.csv"),
    ("tariff", "price_file", "missing.csv")])
def test_load_scenario_rejects_bad_file_field(tmp_path, section, key, name):
    def edit(doc):
        doc[section].pop("import_price", None)
        doc[section][key] = name
    path = write_sizing_doc(tmp_path, edit)
    with pytest.raises(ScenarioError,
                       match=f"{section}.{key}: (must be a file name|file not found)"):
        load_scenario(path)


def test_load_scenario_rejects_non_object(tmp_path):
    path = write_sizing_doc(tmp_path, lambda doc: doc.update(pv=[]))
    with pytest.raises(ScenarioError, match="pv: must be an object"):
        load_scenario(path)
    path.write_text("[]")
    with pytest.raises(ScenarioError, match="scenario: must be an object"):
        load_scenario(path)


def test_tariff_takes_one_price_source(tmp_path):
    path = write_sizing_doc(tmp_path, lambda doc: doc["tariff"].update(
        price_file=str(FIXTURES / "tou_prices.csv")))
    with pytest.raises(ScenarioError, match="tariff: give import_price or price_file"):
        load_scenario(path)


@pytest.mark.parametrize("key, value", [("mip_gap", -0.1), ("time_limit", 0.0)])
def test_load_scenario_rejects_bad_solver_value(tmp_path, key, value):
    path = write_sizing_doc(tmp_path, lambda doc: doc["solver"].update({key: value}))
    with pytest.raises(ScenarioError, match=f"solver: {key}"):
        load_scenario(path)


BAD_VALUES = [
    ("horizon", "ls_penalty", float("inf")),
    ("cder", "capital", float("inf")),
    ("tariff", "import_price", float("inf")),
    ("horizon", "planning_years", 2.5),
    ("horizon", "rep_days", 3.7),
    ("bess", "cycle_life_curve", [[0.1]]),
    ("tariff", "export_factor", "high"),
    ("horizon", "tie_limit", float("inf")),
    ("horizon", "load_growth", -2),
    ("bess", "eff_model_points", [[0.9, 0.8], [0.9, 0.7]]),
    ("horizon", "cyclic_soc", "yes"),
    ("bess", "t_chg", float("inf")),
    ("bess", "eff_model_points", [[1.0, 1.2], [0.8, 0.9]]),  # an efficiency above 1
]
BAD_IDS = [f"{section}.{key}" for section, key, _ in BAD_VALUES]
BAD_IDS[-1] += "-range"  # the first eff_model_points case is a degenerate fit


@pytest.mark.parametrize("section, key, value", BAD_VALUES, ids=BAD_IDS)
def test_load_scenario_rejects_bad_value(tmp_path, section, key, value):
    path = write_sizing_doc(tmp_path, lambda doc: doc[section].update({key: value}))
    with pytest.raises(ScenarioError, match=f"{section}.{key}"):
        load_scenario(path)


def test_replace_checks_the_new_record(sizing_scenario):
    with pytest.raises(ScenarioError, match="horizon.load_growth"):
        dataclasses.replace(sizing_scenario.cfg, load_growth=-2.0)
    with pytest.raises(ScenarioError, match="one \\(days, hours\\) shape"):
        dataclasses.replace(sizing_scenario, base_pv_cf=sizing_scenario.base_pv_cf[:, :12])


def test_load_scenario_requires_profiles(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"horizon": {"planning_years": 1, "rep_days": 1}}))
    with pytest.raises(ScenarioError, match="load_file"):
        load_scenario(path)


def test_soc_window_must_be_ordered():
    with pytest.raises(ScenarioError, match="soc_min"):
        BessParams(soc_min=0.9, soc_max=0.1)
    # Below soh_init the window [soc_min, soh_init*soc_max] can be empty.
    with pytest.raises(ScenarioError, match="soc_min: must be below soh_init"):
        BessParams(soc_min=0.5, soc_max=0.6, soh_init=0.8, eol_frac=0.7)


def test_cycle_life_curve_must_decrease():
    from dbio.scenario import CycleLifeCurveSpec
    with pytest.raises(ScenarioError, match="decreasing"):
        CycleLifeCurveSpec(points=((0.1, 100.0), (0.5, 200.0)))


def test_cder_defaults_and_validation():
    cder = CderParams()
    with pytest.raises(ScenarioError, match="op_cost"):
        dataclasses.replace(cder, op_cost=-1.0)


def test_profile_values_must_be_finite(tmp_path):
    path = write_sizing_doc(tmp_path, lambda doc: None)
    rows = [f"{t},{'inf' if t == 5 else 0.0}" for t in range(24)]
    (tmp_path / "pv_zero_24.csv").write_text("hour,value\n" + "\n".join(rows) + "\n")
    with pytest.raises(ScenarioError, match="non-finite"):
        load_scenario(path)


def test_profiles_validate_capacity_factor_range(tmp_path, fixtures_dir):
    doc = json.loads((fixtures_dir / "sizing_threshold.json").read_text())
    (tmp_path / "load_deficit_24.csv").write_text(
        (fixtures_dir / "load_deficit_24.csv").read_text())
    bad = "hour,value\n" + "\n".join(f"{t},1.5" for t in range(24)) + "\n"
    (tmp_path / "pv_zero_24.csv").write_text(bad)
    path = tmp_path / "bad_cf.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="capacity factors"):
        load_scenario(path)
