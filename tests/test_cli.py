"""End-to-end command-line runs on the small fixtures."""

import hashlib
import json

import pytest

from dbio import milp, reports
from dbio.cli import load_investment, main
from dbio.scenario import ScenarioError, load_scenario

from conftest import FIXTURES, write_sizing_doc

SCENARIO = "sizing_threshold.json"


def run(args):
    return main([str(a) for a in args])


def test_plan_mode_outputs(fixtures_dir, tmp_path):
    out = tmp_path / "plan"
    assert run(["--scenario", fixtures_dir / SCENARIO,
                "--out", out, "--mode", "plan"]) == 0
    for name in ("costs.csv", "sizing.csv", "dispatch_y1.csv", "dispatch_y2.csv",
                 "report.json", "manifest.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    inv = report["plan"]["investment"]
    assert inv["s_bess"] > 0 and inv["p_cder_max"] > 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "plan" and manifest["converged"]


def test_plan_mode_deterministic(fixtures_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["--scenario", fixtures_dir / SCENARIO,
                    "--out", out, "--mode", "plan"]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "costs.csv").read_bytes() == (b / "costs.csv").read_bytes()


def test_dump_lp(fixtures_dir, tmp_path):
    out = tmp_path / "lp"
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", out,
                "--mode", "plan", "--dump-lp"]) == 0
    text = (out / "integrated.lp").read_text()
    assert text.startswith("\\") and text.rstrip().endswith("End")


# SHA-256 of the integrated.lp this command writes, names and all. Recorded
# when the charge/discharge and import/export binaries left the model and LP
# export began writing each row's terms in column order; until then it was
# the export of the per-variable, per-row builder at commit 363faaf.
SEED_LP_SHA256 = "91cdc4a8bf9fa16176b96a6fef17b7db05e7f621afab512f8c1cfe9ef8818fc0"


def test_dump_lp_matches_seed_export(fixtures_dir, tmp_path):
    out = tmp_path / "lp"
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", out,
                "--mode", "plan", "--dump-lp"]) == 0
    assert hashlib.sha256((out / "integrated.lp").read_bytes()).hexdigest() == SEED_LP_SHA256

def test_validate_mode_feasible(fixtures_dir, tmp_path):
    inv_path = tmp_path / "inv.json"
    inv_path.write_text(json.dumps({"s_pv": 0.0, "s_bess": 0.6, "p_cder_max": 0.6}))
    out = tmp_path / "val"
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", out,
                "--mode", "validate", "--investment", inv_path]) == 0
    for name in ("degradation.csv", "validation.csv", "sizing.csv",
                 "costs.csv", "report.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["validation"]["feasible"]
    assert report["validation"]["total_eue_mwh"] <= 1e-6


def test_validate_mode_infeasible_exit_code(fixtures_dir, tmp_path):
    inv_path = tmp_path / "inv.json"
    inv_path.write_text(json.dumps({"s_pv": 0.0, "s_bess": 0.2, "p_cder_max": 0.6}))
    out = tmp_path / "val"
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", out,
                "--mode", "validate", "--investment", inv_path]) == 1
    report = json.loads((out / "report.json").read_text())
    assert not report["validation"]["feasible"]


def test_validate_mode_requires_investment(fixtures_dir, tmp_path):
    assert run(["--scenario", fixtures_dir / SCENARIO,
                "--out", tmp_path / "x", "--mode", "validate"]) == 2


def test_size_mode(fixtures_dir, tmp_path):
    out = tmp_path / "size"
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", out,
                "--mode", "size", "--method", "binary", "--tol", 0.02]) == 0
    report = json.loads((out / "report.json").read_text())
    final = report["sizing"]["final_size_mwh"]
    assert 0.5 - 1e-9 <= final <= 0.5 + 0.02
    assert report["sizing"]["converged"]
    assert (out / "iterations.csv").exists()
    rows = (out / "iterations.csv").read_text().strip().splitlines()
    assert rows[0] == "iter,phase,size_mwh,objective_usd,eue_mwh,shed,truncated,lb,ub"
    assert len(rows) - 1 == len(report["sizing"]["iterations"])


def test_bad_scenario_path_exit_code(tmp_path):
    assert run(["--scenario", tmp_path / "missing.json",
                "--out", tmp_path / "o"]) == 2


def test_load_investment_plain_and_report(tmp_path):
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"s_pv": 0.1, "s_bess": 0.2, "p_cder_max": 0.3}))
    inv = load_investment(plain)
    assert (inv.s_pv, inv.s_bess, inv.p_cder_max) == (0.1, 0.2, 0.3)

    nested = tmp_path / "report.json"
    nested.write_text(json.dumps(
        {"plan": {"investment": {"s_pv": 0.4, "s_bess": 0.5, "p_cder_max": 0.6}}}))
    inv = load_investment(nested)
    assert (inv.s_pv, inv.s_bess, inv.p_cder_max) == (0.4, 0.5, 0.6)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"s_pv": 0.1}))
    with pytest.raises(ScenarioError, match="missing field"):
        load_investment(bad)


def test_no_cyclic_soc_flag(fixtures_dir, tmp_path):
    out = tmp_path / "open"
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", out,
                "--mode", "plan", "--no-cyclic-soc"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["cyclic_soc_disabled"]


@pytest.mark.parametrize("flag, value", [
    ("--mip-gap", -1), ("--time-limit", 0), ("--mip-gap", "inf"), ("--mip-gap", "nan"),
    ("--time-limit", "nan"), ("--time-limit", "inf")])
def test_bad_solver_override_exit_code(fixtures_dir, tmp_path, monkeypatch, capsys,
                                       flag, value):
    solves = []
    monkeypatch.setattr(milp, "solve", lambda *a, **k: solves.append(a))
    out = tmp_path / "o"
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", out, flag, value]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "solver" in err[0]
    assert not solves and not (out / "manifest.json").exists()


TOU = str(FIXTURES / "tou_prices.csv")
# Documents that loaded without error while the scenario format restated alpha
# and the tariff mode and did not close every section; each is an error now.
BAD_DOCUMENTS = {
    "section-bes": (lambda doc: doc.update(bes=doc.pop("bess")), "scenario", "bes"),
    "tariff-import_prize": (lambda doc: doc["tariff"].update(import_prize=500),
                            "tariff", "import_prize"),
    "tariff-fixed-with-file": (lambda doc: doc.update(tariff={"mode": "fixed",
                                                              "price_file": TOU}),
                               "tariff", "mode"),
    "tariff-tou-with-price": (lambda doc: doc["tariff"].update(
        mode="tou", price_file=TOU, import_price=999), "tariff", "mode"),
    "horizon-alpha": (lambda doc: doc["horizon"].update(alpha=1.0), "horizon", "alpha"),
    "profiles-extra": (lambda doc: doc["profiles"].update(extra="x.csv"),
                       "profiles", "extra"),
    "tariff-fixed": (lambda doc: doc["tariff"].update(mode="fixed"), "tariff", "mode"),
    "tariff-both-sources": (lambda doc: doc["tariff"].update(price_file=TOU),
                            "tariff", "price_file"),
}


@pytest.mark.parametrize("case", BAD_DOCUMENTS)
def test_bad_scenario_document_exits_before_solving(tmp_path, monkeypatch, capsys, case):
    edit, section, key = BAD_DOCUMENTS[case]
    solves = []
    monkeypatch.setattr(milp, "solve", lambda *a, **k: solves.append(a))
    out = tmp_path / "o"
    assert run(["--scenario", write_sizing_doc(tmp_path, edit), "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {section}:") and key in err[0]
    assert not solves and not (out / "manifest.json").exists()


def test_solver_overrides_reach_every_solve(fixtures_dir, tmp_path, monkeypatch):
    seen = []
    real_solve = milp.solve

    def recording_solve(problem, opts=None, backend=None):
        seen.append((problem.name, opts))
        return real_solve(problem, opts, backend)

    monkeypatch.setattr(milp, "solve", recording_solve)
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", tmp_path / "size",
                "--mode", "size", "--tol", 0.05, "--time-limit", 77]) == 0
    # The plan and the probes solve "integrated" models, validation years "single_year".
    assert {name for name, _ in seen} == {"integrated", "single_year"}
    assert all(opts.time_limit == 77 for _, opts in seen)


@pytest.mark.parametrize("content", [
    None,                                            # missing file
    "{not json",
    json.dumps({"s_pv": 0.1, "s_bess": 0.2}),        # missing field
    json.dumps({"s_pv": 0.1, "s_bess": -0.2, "p_cder_max": 0.3}),
    json.dumps({"s_pv": float("nan"), "s_bess": 0.2, "p_cder_max": 0.3}),
    json.dumps({"investment": {"s_pv": 0.1, "s_bess": 0.2, "p_cder_max": 0.3}}),
], ids=["missing", "invalid-json", "missing-field", "negative-size", "nan-size",
        "unknown-shape"])
def test_bad_investment_file_exit_code(fixtures_dir, tmp_path, capsys, content):
    inv_path = tmp_path / "inv.json"
    if content is not None:
        inv_path.write_text(content)
    out = tmp_path / "o"
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", out,
                "--mode", "validate", "--investment", inv_path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: investment file")
    assert not (out / "manifest.json").exists()


def test_validation_solver_failure_exits_one_with_manifest(fixtures_dir, tmp_path,
                                                           monkeypatch, capsys):
    inv_path = tmp_path / "inv.json"
    inv_path.write_text(json.dumps({"s_pv": 0.0, "s_bess": 0.6, "p_cder_max": 0.6}))
    monkeypatch.setattr(milp, "solve", lambda *a, **k: milp.SolveResult(
        status=milp.TIME_LIMIT, objective=float("nan"), primal=None))
    out = tmp_path / "val"
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", out,
                "--mode", "validate", "--investment", inv_path]) == 1
    err = capsys.readouterr().err
    assert "error: year 1: solver returned" in err and "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert not manifest["converged"]


def test_size_mode_validates_each_probe_once(fixtures_dir, tmp_path, monkeypatch):
    names = []
    real_solve = milp.solve

    def recording_solve(problem, opts=None, backend=None):
        names.append(problem.name)
        return real_solve(problem, opts, backend)

    monkeypatch.setattr(milp, "solve", recording_solve)
    out = tmp_path / "size"
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", out,
                "--mode", "size", "--tol", 0.05]) == 0
    years = load_scenario(fixtures_dir / SCENARIO).cfg.planning_years
    iterations = json.loads((out / "report.json").read_text())["sizing"]["iterations"]
    assert names.count("single_year") == years * len(iterations)


@pytest.mark.parametrize("flags", [("--tol", 0), ("--tol", "nan"), ("--tol", "inf"),
                                   ("--method", "fixed", "--step", 0),
                                   ("--method", "fixed", "--step", "nan"),
                                   ("--method", "fixed", "--step", "inf")],
                         ids=["tol-0", "tol-nan", "tol-inf", "step-0", "step-nan", "step-inf"])
def test_bad_search_setting_exits_before_solving(fixtures_dir, tmp_path, monkeypatch,
                                                 capsys, flags):
    solves = []
    monkeypatch.setattr(milp, "solve", lambda *a, **k: solves.append(a))
    out = tmp_path / "o"
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", out,
                "--mode", "size", *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not solves and not (out / "manifest.json").exists()


def test_reports_never_print_negative_zero():
    assert [reports.fmt_qty(x) for x in (-0.0, 0.0, -1e-20, -2.5)] == ["0", "0", "-1e-20",
                                                                       "-2.5"]
    assert [reports.fmt_usd(x) for x in (-0.0, -0.004, 0.0, -0.005001, -3.0)] == [
        "0.00", "0.00", "0.00", "-0.01", "-3.00"]
