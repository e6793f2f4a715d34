"""Smoke test of the pipeline benchmark on a tiny input.

    python3 -m pytest perfbench/test_smoke.py -q

``sizing_threshold.json`` solves in well under a second in plan and size
modes, so each case costs little more than the child processes' start-up.
The last test reproduces the program defect that keeps ``validate-hourly``
on the fixture alone; it takes about 5 s.
"""

import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
KNOWN_FAILING = (1, 5)  # (seed, operation) of a perturbed validate-hourly instance


def exit_zero(out, rc, wl, amplitude):
    if rc != 0:
        raise bench.CheckFailed(f"exit code {rc}")
    return {}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("args", [("--mode", "plan"),
                                  ("--mode", "size", "--method", "binary", "--tol", "0.01")],
                         ids=["plan", "size"])
def test_every_metric_is_emitted_with_its_unit(args, trace):
    wl = bench.Workload("smoke", "sizing_threshold.json", args, exit_zero)
    result = bench.run_workload(wl, seed=1, seconds=0.0, trace=trace)

    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["milp.solves"]["value"] >= 1
    assert not list(bench.WORK.glob(f"smoke-*-{os.getpid()}"))


def test_names_match_the_benchmark_spec():
    assert set(bench.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    assert set(bench.END_TO_END) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(bench.PER_LAYER) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.xfail(strict=True, raises=bench.CheckFailed,
                   reason="dbio.planning.extract_solution clips a load shed of about "
                          "-3e-7 MW to 0, then finds the cost breakdown 2e-6 away from "
                          "the objective and raises ModelBuildError")
def test_perturbed_hourly_validation_succeeds():
    """The known failure on perturbed ``validate-hourly`` instances.

    Once this passes, the program is fixed: turn ``perturb`` back on for
    ``validate-hourly`` and delete this test.
    """
    wl = dataclasses.replace(bench.WORKLOADS["validate-hourly"], perturb=True)
    work = bench.WORK / f"known-failure-{os.getpid()}"
    try:
        inst = bench.make_instance(wl, seed=KNOWN_FAILING[0], k=KNOWN_FAILING[1], work=work)
        out = inst.dir / "out"
        run = bench.spawn(bench.cli_cmd(inst, out), inst.dir / "run.log")
        bench.check_validate(out, run.rc, wl, inst.amplitude)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if bench.WORK.is_dir() and not any(bench.WORK.iterdir()):
            bench.WORK.rmdir()
