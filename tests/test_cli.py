"""End-to-end command-line runs on the small fixtures."""

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

from dbio import milp, planning, reports
from dbio.cli import load_investment, main
from dbio.scenario import ScenarioError, load_scenario
from dbio.sizing import SizingResult

from conftest import FIXTURES, write_sizing_doc

SCENARIO = "sizing_threshold.json"
SRC = Path(__file__).resolve().parent.parent / "src"


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
    scenario_bytes = (fixtures_dir / SCENARIO).read_bytes()
    assert manifest["scenario_sha256"] == hashlib.sha256(scenario_bytes).hexdigest()
    assert manifest["environment"] == {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "highs": _highs_build(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _highs_build():
    """``major.minor.patch (githash)`` of the HiGHS extension scipy vendors."""
    core = milp._highs
    return (f"{core.HIGHS_VERSION_MAJOR}.{core.HIGHS_VERSION_MINOR}."
            f"{core.HIGHS_VERSION_PATCH} ({core._Highs().githash()})")


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
    # A year of one representative day is never split into day blocks.
    paths = [y["solve_path"] for y in report["validation"]["per_year"]]
    assert paths and set(paths) == {"lp"}
    assert all(type(y["simplex_iterations"]) is int and y["simplex_iterations"] >= 0
               for y in report["validation"]["per_year"])


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
    assert rows[0] == ("iter,phase,size_mwh,objective_usd,eue_mwh,shed,truncated,"
                       "simplex_iterations,lb,ub")
    assert len(rows) - 1 == len(report["sizing"]["iterations"])
    assert [int(row.split(",")[7]) for row in rows[1:]] == [
        r["simplex_iterations"] for r in report["sizing"]["iterations"]]
    assert all(r["simplex_iterations"] > 0 for r in report["sizing"]["iterations"])


def test_validate_a_size_run_checks_the_sized_investment(fixtures_dir, tmp_path):
    size, check = tmp_path / "size", tmp_path / "check"
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", size,
                "--mode", "size", "--tol", 0.02]) == 0
    report = json.loads((size / "report.json").read_text())
    assert report["sizing"]["final_investment"] != report["plan"]["investment"]
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", check, "--mode", "validate",
                "--investment", size / "report.json"]) == 0
    assert (check / "sizing.csv").read_bytes() == (size / "sizing.csv").read_bytes()
    checked = load_investment(size / "report.json")
    assert checked.s_bess == report["sizing"]["final_size_mwh"]
    sized = dict(line.split(",")[:2] for line in
                 (size / "sizing.csv").read_text().splitlines()[1:])
    assert reports.fmt_qty(checked.p_cder_max) == sized["cder_mw"]
    assert reports.fmt_qty(checked.s_bess) == sized["bess_mwh"]


@pytest.mark.parametrize("scenario", [SCENARIO, "highuse_degradation.json"])
def test_a_size_runs_validation_is_that_of_its_investment(fixtures_dir, tmp_path, scenario):
    # The sized investment's validation is reported as --mode validate reports
    # it: no probe's validation starts from another probe's.
    size, check = tmp_path / "size", tmp_path / "check"
    assert run(["--scenario", fixtures_dir / scenario, "--out", size,
                "--mode", "size", "--tol", 0.02]) == 0
    assert run(["--scenario", fixtures_dir / scenario, "--out", check, "--mode", "validate",
                "--investment", size / "report.json"]) == 0
    for name in ("validation.csv", "degradation.csv", "sizing.csv"):
        assert (check / name).read_bytes() == (size / name).read_bytes(), name
    sized = json.loads((size / "report.json").read_text())["validation"]
    checked = json.loads((check / "report.json").read_text())["validation"]
    assert sized == checked


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_size_mode_report_is_strict_json(fixtures_dir, tmp_path):
    out = tmp_path / "size"
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", out,
                "--mode", "size", "--tol", 0.05]) == 0
    report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
    iterations = report["sizing"]["iterations"]
    doubling = [r for r in iterations if r["phase"] == "doubling"]
    assert doubling and all(r["ub"] is None for r in doubling)
    assert all(math.isfinite(r["ub"]) for r in iterations if r["phase"] != "doubling")
    # iterations.csv writes the open bound as inf.
    csv_ub = [line.rsplit(",", 1)[1]
              for line in (out / "iterations.csv").read_text().split()[1:]]
    assert csv_ub[:len(doubling)] == ["inf"] * len(doubling)


def test_report_json_refuses_a_non_finite_number(tmp_path):
    sizing = SizingResult(final_size=1.0, final_objective=math.nan, iterations=[],
                          converged=False, method="binary")
    with pytest.raises(ValueError):
        reports.write_report_json(tmp_path, sizing=sizing)


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

    sized = tmp_path / "sized.json"
    sized.write_text(json.dumps(
        {"plan": {"investment": {"s_pv": 0.4, "s_bess": 0.5, "p_cder_max": 0.6}},
         "sizing": {"final_investment": {"s_pv": 0.4, "s_bess": 0.7, "p_cder_max": 0.8}}}))
    inv = load_investment(sized)
    assert (inv.s_pv, inv.s_bess, inv.p_cder_max) == (0.4, 0.7, 0.8)

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


@pytest.mark.parametrize("mode", ["plan", "size"])
@pytest.mark.parametrize("cder", [{"p_min": 0.1}, {"no_load": 5.0}], ids=["p_min", "no_load"])
def test_committed_generator_without_max_size_exits_before_planning(tmp_path, monkeypatch,
                                                                    capsys, mode, cder):
    # The plan's commitment rows switch the generator off at cder.max_size,
    # so planning one without a cap is an input error.
    solves = []
    monkeypatch.setattr(milp, "solve", lambda *a, **k: solves.append(a))
    scenario = write_sizing_doc(tmp_path, lambda doc: doc["cder"].update(cder, max_size=None))
    out = tmp_path / "o"
    assert run(["--scenario", scenario, "--out", out, "--mode", mode]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cder.max_size must be finite")
    assert not solves and not (out / "manifest.json").exists()


def test_committed_generator_without_max_size_still_validates(tmp_path):
    # Validation pins the generator's size, which caps its commitment rows.
    inv = tmp_path / "inv.json"
    inv.write_text(json.dumps({"s_pv": 0.0, "s_bess": 0.6, "p_cder_max": 0.6}))
    scenario = write_sizing_doc(tmp_path, lambda doc: doc["cder"].update(p_min=0.1,
                                                                         max_size=None))
    out = tmp_path / "val"
    assert run(["--scenario", scenario, "--out", out, "--mode", "validate",
                "--investment", inv]) == 0
    assert (out / "manifest.json").exists()


def test_solver_overrides_reach_every_solve(fixtures_dir, tmp_path, monkeypatch):
    seen = []
    real_solve = milp.solve

    def recording_solve(problem, opts=None, basis=None):
        result = real_solve(problem, opts, basis)
        seen.append((problem.name, opts.time_limit, basis is not None, result))
        return result

    monkeypatch.setattr(milp, "solve", recording_solve)
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", tmp_path / "size",
                "--mode", "size", "--tol", 0.05, "--time-limit", 77]) == 0
    # The plan and the probes solve "integrated" models, validation years "single_year".
    assert {name for name, *_ in seen} == {"integrated", "single_year"}
    # Each solve gets the override; one that repeats cold a warm solve which
    # stopped off a bound gets what the warm solve left of it.
    for (_, _, warm, before), (_, limit, _, _) in zip([(None, None, False, None)] + seen, seen):
        assert limit == (77 - before.runtime if warm and before.off_bound > planning.WARM_SLACK
                         else 77)


@pytest.mark.parametrize("content", [
    None,                                            # missing file
    "{not json",
    json.dumps({"s_pv": 0.1, "s_bess": 0.2}),        # missing field
    json.dumps({"s_pv": 0.1, "s_bess": -0.2, "p_cder_max": 0.3}),
    json.dumps({"s_pv": float("nan"), "s_bess": 0.2, "p_cder_max": 0.3}),
    json.dumps({"investment": {"s_pv": 0.1, "s_bess": 0.2, "p_cder_max": 0.3}}),
    json.dumps([0.1, 0.2, 0.3]),
    json.dumps({"sizing": [0.1, 0.2, 0.3]}),
], ids=["missing", "invalid-json", "missing-field", "negative-size", "nan-size",
        "unknown-shape", "not-an-object", "sizing-not-an-object"])
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
    models = {}  # id -> (problem, name) of each model solved; a model may be solved twice
    real_solve = milp.solve

    def recording_solve(problem, opts=None, basis=None):
        models.setdefault(id(problem), (problem, problem.name))
        return real_solve(problem, opts, basis)

    monkeypatch.setattr(milp, "solve", recording_solve)
    out = tmp_path / "size"
    assert run(["--scenario", fixtures_dir / SCENARIO, "--out", out,
                "--mode", "size", "--tol", 0.05]) == 0
    years = load_scenario(fixtures_dir / SCENARIO).cfg.planning_years
    iterations = json.loads((out / "report.json").read_text())["sizing"]["iterations"]
    names = [name for _, name in models.values()]
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


def _fresh_python(*args, **env):
    """Run ``python *args`` in a new interpreter with ``src`` on the path and
    ``OPENBLAS_NUM_THREADS`` unset unless given; returns its stdout."""
    env = {**{k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"},
           "PYTHONPATH": str(SRC), **env}
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_importing_the_package_loads_no_numpy():
    code = "import sys, dbio; print('numpy' in sys.modules)"
    assert _fresh_python("-c", code).strip() == "False"


_CLI_IMPORT = """
import json, os
import dbio.cli
tasks = "/proc/self/task"
print(json.dumps({"blas": os.environ["OPENBLAS_NUM_THREADS"],
                  "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None}))
"""


def test_cli_import_starts_no_blas_thread():
    seen = json.loads(_fresh_python("-c", _CLI_IMPORT))
    assert seen["blas"] == "1"
    if seen["threads"] is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert seen["threads"] == 1


def test_cli_import_keeps_a_user_blas_setting():
    seen = json.loads(_fresh_python("-c", _CLI_IMPORT, OPENBLAS_NUM_THREADS="2"))
    assert seen["blas"] == "2"


_IMPORT_ORDER = """
import json, sys
import {first}
import {second}
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp as scipy_milp
from dbio import milp

# Producing x costs a 10-unit commitment u; x >= 2 forces u = 1: objective 12.
p = milp.MilpProblem()
u = p.add_variable("u", 0, 1, binary=True)
x = p.add_variable("x", 0.0, 5.0)
p.add_constraint([(x, 1.0), (u, -5.0)], milp.LE, 0.0)
p.add_constraint([(x, 1.0)], milp.GE, 2.0)
p.set_objective([(x, 1.0), (u, 10.0)])
ref = scipy_milp([10.0, 1.0], integrality=[1, 0], bounds=Bounds([0, 0], [1, 5]),
                 constraints=LinearConstraint([[-5.0, 1.0], [0.0, 1.0]], [-np.inf, 2.0],
                                              [0.0, np.inf]))
print(json.dumps({{"dbio": milp.solve(p).objective, "scipy": ref.fun,
                  "shared": milp._highs is sys.modules["scipy.optimize._highspy._core"]}}))
"""


@pytest.mark.parametrize("first, second", [("dbio.milp", "scipy.optimize"),
                                           ("scipy.optimize", "dbio.milp")],
                         ids=["dbio-first", "scipy-first"])
def test_dbio_and_scipy_share_one_highs_extension(first, second):
    seen = json.loads(_fresh_python("-c", _IMPORT_ORDER.format(first=first, second=second)))
    assert seen == {"dbio": pytest.approx(12.0), "scipy": pytest.approx(12.0), "shared": True}


_IMPORT_THEN_EVERY_MODE = """
import json, sys
from dbio.cli import main
after_import = list(sys.modules)
scenario, out = sys.argv[1:]
assert main(["--scenario", scenario, "--out", out + "/plan"]) == 0
assert main(["--scenario", scenario, "--out", out + "/validate", "--mode", "validate",
             "--investment", out + "/plan/report.json"]) == 0
assert main(["--scenario", scenario, "--out", out + "/size", "--mode", "size"]) == 0
print(json.dumps({"import": after_import, "runs": list(sys.modules)}))
"""


def test_cli_import_loads_no_scipy_package_but_the_highs_extension(tmp_path):
    # Checked after the import and again after a plan, validate and size run.
    seen = json.loads(_fresh_python("-c", _IMPORT_THEN_EVERY_MODE, str(FIXTURES / SCENARIO),
                                    str(tmp_path)))

    def under(package, module):
        return module == package or module.startswith(package + ".")

    for loaded in seen.values():
        # No scipy package (the HiGHS extension is loaded on its own), and not
        # the OpenSSL binding _hashlib.
        stray = [m for m in loaded
                 if m in ("scipy", "_hashlib")
                 or any(under(pkg, m) for pkg in ("scipy.sparse", "scipy.linalg", "numpy.f2py"))
                 or (under("scipy.optimize", m) and not under("scipy.optimize._highspy", m))]
        assert stray == []
        assert "scipy.optimize._highspy._core" in loaded


_GC_AFTER_IMPORT = """
import gc, json
{before}
import dbio.cli
print(json.dumps({{"enabled": gc.isenabled(), "frozen": gc.get_freeze_count()}}))
"""


def test_cli_import_freezes_the_module_state_and_keeps_gc_on():
    seen = json.loads(_fresh_python("-c", _GC_AFTER_IMPORT.format(before="")))
    assert seen["enabled"] and seen["frozen"] > 0


def test_cli_import_keeps_a_host_disabled_gc_disabled():
    seen = json.loads(_fresh_python("-c", _GC_AFTER_IMPORT.format(before="gc.disable()")))
    assert not seen["enabled"] and seen["frozen"] > 0


def test_cli_run_records_the_blas_setting(tmp_path):
    out = tmp_path / "plan"
    _fresh_python("-m", "dbio.cli", "--scenario", str(FIXTURES / SCENARIO), "--out", str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["environment"]["OPENBLAS_NUM_THREADS"] == "1"
    # The run takes both without hashlib or the scipy package.
    assert manifest["scenario_sha256"] == hashlib.sha256(
        (FIXTURES / SCENARIO).read_bytes()).hexdigest()
    assert manifest["environment"]["scipy"] == scipy.__version__


def test_cli_plan_run_prints_nothing_to_stdout(tmp_path):
    # HiGHS logs to stdout unless its console log is turned off.
    out = tmp_path / "plan"
    assert _fresh_python("-m", "dbio.cli", "--scenario", str(FIXTURES / SCENARIO),
                         "--mode", "plan", "--out", str(out)) == ""
    assert (out / "report.json").exists()
