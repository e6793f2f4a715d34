"""Pipeline benchmark: whole ``dbio`` CLI runs, with per-layer timings.

    python3 perfbench/run.py --workload plan-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the program is run from ``src`` as it is,
with ``DBIO_SOLVER=highs`` set in the child environment.

``--trace 0`` spawns the CLI one run at a time and measures each run from
outside the process (wall, CPU, peak RSS), plus ``setup_s``: a child that
imports the CLI, loads the scenario and builds its profiles. ``--trace 1``
runs one instance twice untraced and twice in-process under
``perfbench/child.py``, which times each layer; the exact counts of the two
traced runs must agree. Without ``--trace`` both are run. Every run's outputs
are checked against the stored reference. The last line of standard output
is one JSON object: ``correct`` (no completed run disagreed with the
reference), ``attempted`` and ``failed`` (runs with an unexpected exit code or
a failed check; ``failed / attempted`` is the fail ratio) and ``metrics``.

Inputs come from ``tests/fixtures`` and are only read. A run starts one CLI
process at a time, each on an instance of its own: operation ``k`` of seed
``s`` scales each hour of the base load profile by ``1 + a*u``, with ``u``
uniform in [-1, 1] drawn from ``random.Random(f"{s}/{k}")`` and ``a`` =
``PERTURBATION``. Seed 0, and every seed of a workload with ``perturb``
off, runs the fixture itself. The end-to-end metrics are medians over all
operations of the run, so the spread between seeds' instances is averaged
within the run. Generated scenario and investment files go in ``.bench_tmp``
under the checkout root, which is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
FIXTURES = ROOT / "tests" / "fixtures"
WORK = ROOT / ".bench_tmp"

# Relative amplitude of the seeded load perturbation. It is small enough that
# the stored references below stay valid within the scenario's own tolerances,
# yet it changes the branch-and-bound path from instance to instance.
PERTURBATION = 1e-6
SETUP_REPEATS = 5  # set-up children per run; setup_s is their median
MIN_OPS = 3  # CLI runs per end-to-end run, however short --seconds is
EUE_FREE_MWH = 1e-6  # dbio.validation.DEFAULT_EUE_TOLERANCE

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metric -> unit. Self times come from the traced child;
# counts are exact and must repeat between the two traced runs.
PER_LAYER = {
    "milp.highs_s": "s", "milp.matrix_s": "s", "milp.solve_self_s": "s",
    "milp.bb_nodes": "count", "milp.solves": "count", "milp.nonoptimal": "count",
    "planning.build_s": "s", "planning.extract_s": "s",
    "planning.build_calls": "count", "planning.vars": "count",
    "planning.rows": "count", "planning.binaries": "count",
    "scenario.load_s": "s", "scenario.profiles_s": "s",
    "validation.self_s": "s", "validation.years": "count",
    "degradation.count_cycles_s": "s", "degradation.advance_s": "s",
    "degradation.trace_points": "count",
    "sizing.self_s": "s", "sizing.probes": "count", "sizing.shed_probes": "count",
    "reports.write_s": "s", "reports.bytes": "bytes",
    "cli.self_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
}
SELF_TIME_SPANS = {
    "milp.highs_s": ["milp.highs"], "milp.matrix_s": ["milp.matrix"],
    "milp.solve_self_s": ["milp.solve"],
    "planning.build_s": ["planning.build"], "planning.extract_s": ["planning.extract"],
    "scenario.load_s": ["scenario.load"], "scenario.profiles_s": ["scenario.profiles"],
    "validation.self_s": ["validation.validate"],
    "degradation.count_cycles_s": ["degradation.count_cycles"],
    "degradation.advance_s": ["degradation.advance"],
    "sizing.self_s": ["sizing.search", "sizing.probe"],
    "reports.write_s": ["reports.write"],
}
EXACT_COUNTS = ("milp.solves", "milp.bb_nodes", "sizing.probes", "planning.vars",
                "planning.rows", "degradation.trace_points")


class CheckFailed(Exception):
    pass


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def check_plan(out: Path, rc: int, wl: "Workload", amplitude: float) -> dict:
    """Objective within the scenario's MIP gap of the reference; costs.csv sums to it."""
    if rc != 0:
        raise CheckFailed(f"exit code {rc}, expected 0")
    plan = _report(out)["plan"]
    ref = wl.reference["objective_usd"]
    tol = (wl.fixture_doc["solver"]["mip_gap"] + amplitude) * abs(ref)
    if abs(plan["objective_usd"] - ref) > tol:
        raise CheckFailed(f"objective {plan['objective_usd']} not within {tol:.3g} of {ref}")
    rows = dict(line.split(",") for line in (out / "costs.csv").read_text().split()[1:])
    objective = float(rows.pop("objective"))
    parts = sum(float(v) for v in rows.values())
    # Each row, the objective row too, is printed rounded to the cent.
    if abs(parts - objective) > 0.005 * (len(rows) + 1) or abs(objective - plan["objective_usd"]) > 0.005:
        raise CheckFailed(f"costs.csv sums to {parts}, objective row {objective}, "
                          f"report {plan['objective_usd']}")
    return {"objective_usd": plan["objective_usd"],
            "eue_mwh": plan["costs"]["shed_penalty"] / wl.fixture_doc["horizon"]["ls_penalty"]}


def check_size(out: Path, rc: int, wl: "Workload", amplitude: float) -> dict:
    """Converged, and the final size lies in the reference bracket within --tol."""
    if rc != 0:
        raise CheckFailed(f"exit code {rc}, expected 0 (converged)")
    report = _report(out)
    sizing = report["sizing"]
    lo, hi = wl.reference["bracket_mwh"]
    slack = float(wl.args[wl.args.index("--tol") + 1]) + amplitude * hi
    size = sizing["final_size_mwh"]
    if not (sizing["converged"] and lo - slack <= size <= hi + slack):
        raise CheckFailed(f"final size {size} outside [{lo}, {hi}] +- {slack:.3g}")
    return {"final_size_mwh": size, "eue_mwh": report["validation"]["total_eue_mwh"]}


def check_validate(out: Path, rc: int, wl: "Workload", amplitude: float) -> dict:
    """Exit 0 and shed-free over the horizon."""
    if rc != 0:
        raise CheckFailed(f"exit code {rc}, expected 0")
    eue = _report(out)["validation"]["total_eue_mwh"]
    if eue > EUE_FREE_MWH:
        raise CheckFailed(f"total EUE {eue} MWh > {EUE_FREE_MWH}")
    return {"eue_mwh": eue}


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str
    args: tuple
    check: object
    horizon: dict = field(default_factory=dict)
    investment: dict | None = None
    reference: dict = field(default_factory=dict)
    perturb: bool = True  # False: every operation runs the fixture

    @property
    def fixture_doc(self) -> dict:
        doc = json.loads((FIXTURES / self.fixture).read_text())
        doc["horizon"].update(self.horizon)
        return doc


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
# References are fixture (seed 0) runs of the program this benchmark was added to.
WORKLOADS = {w.name: w for w in [
    Workload("plan-grid", "grid_fixed.json", ("--mode", "plan"), check_plan,
             horizon={"planning_years": 1},
             reference={"objective_usd": 459391.5440377014}),
    Workload("size-highuse", "highuse_degradation.json",
             ("--mode", "size", "--method", "binary", "--tol", "0.01"), check_size,
             horizon={"planning_years": 3},
             reference={"bracket_mwh": [26.709677419354836, 26.716198336693544]}),
    # Not perturbed: on perturbed hourly instances the program itself fails
    # (see "Known failure" in README.md and test_smoke.py).
    Workload("validate-hourly", "islanded_base.json", ("--mode", "validate"),
             check_validate, horizon={"planning_years": 1, "rep_days": 365},
             investment={"s_pv": 0.11, "s_bess": 0.077, "p_cder_max": 0.8},
             perturb=False),
]}


@dataclass
class Instance:
    label: str
    amplitude: float
    dir: Path
    scenario: Path
    argv: list


def make_instance(wl: Workload, seed: int, k: int, work: Path) -> Instance:
    """Write the scenario (and investment) of operation ``k`` under ``work``.

    Seed 0, or a workload without ``perturb``, gives the fixture; otherwise
    the base load profile is perturbed from ``(seed, k)``.
    """
    doc = wl.fixture_doc
    d = work / f"op{k}"
    d.mkdir(parents=True)
    load_src = FIXTURES / doc["profiles"]["load_file"]
    perturbed = seed != 0 and wl.perturb
    amplitude = PERTURBATION if perturbed else 0.0
    if perturbed:
        rng = random.Random(f"{seed}/{k}")
        lines = load_src.read_text().split()
        values = [float(line.split(",")[1]) for line in lines[1:]]
        load = d / "load.csv"
        load.write_text(lines[0] + "\n" + "".join(
            f"{h},{v * (1.0 + amplitude * rng.uniform(-1.0, 1.0))!r}\n"
            for h, v in enumerate(values)))
    else:
        load = load_src
    doc["profiles"] = {"load_file": str(load),
                       "pv_cf_file": str(FIXTURES / doc["profiles"]["pv_cf_file"])}
    if "price_file" in doc.get("tariff", {}):
        doc["tariff"]["price_file"] = str(FIXTURES / doc["tariff"]["price_file"])
    scenario = d / "scenario.json"
    scenario.write_text(json.dumps(doc, indent=2))
    argv = ["--scenario", str(scenario), *wl.args]
    if wl.investment is not None:
        inv = d / "investment.json"
        inv.write_text(json.dumps(wl.investment))
        argv += ["--investment", str(inv)]
    label = f"seed {seed} op {k}" if perturbed else f"fixture op {k}"
    return Instance(label, amplitude, d, scenario, argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["DBIO_SOLVER"] = "highs"
    return env


@dataclass
class ChildRun:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


def spawn(cmd: list, log: Path) -> ChildRun:
    """Run ``cmd`` to completion; stdout is returned, stderr goes to ``log``."""
    out_path = log.with_suffix(".stdout")
    with open(out_path, "w") as out, open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    # wait4 reaped the child; record its exit code so Popen does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, out_path.read_text())


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def check(self, wl: Workload, inst: Instance, out: Path, rc: int) -> dict | None:
        """Check one run's outputs; returns its information fields, or None."""
        self.attempted += 1
        try:
            return wl.check(out, rc, wl, inst.amplitude)
        except CheckFailed as exc:
            # A run that completed with exit 0 but disagrees with the reference
            # is a wrong answer; any other miss is a failed run.
            self.correct &= rc != 0
            self.failed += 1
            print(f"  FAILED {inst.label}: {exc}", flush=True)
        except (OSError, ValueError, KeyError) as exc:
            self.correct = False
            self.failed += 1
            print(f"  FAILED {inst.label}: unreadable output: {exc!r}", flush=True)
        return None


def cli_cmd(inst: Instance, out: Path) -> list:
    return [sys.executable, "-m", "dbio.cli", *inst.argv, "--out", str(out)]


def measure_setup(inst: Instance) -> tuple[float, dict]:
    cmd = [sys.executable, str(HERE / "child.py"), "setup", str(inst.scenario)]
    runs = [spawn(cmd, inst.dir / f"setup{k}.log") for k in range(SETUP_REPEATS)]
    if any(r.rc != 0 for r in runs):
        raise RuntimeError(f"set-up child failed; see {inst.dir}/setup*.log")
    return statistics.median(r.wall_s for r in runs), json.loads(runs[-1].stdout)


def _stderr_tail(log: Path, lines: int = 3) -> str:
    return "\n".join(log.read_text().splitlines()[-lines:]) if log.exists() else ""


def end_to_end(wl: Workload, seed: int, work: Path, seconds: float, tally: Tally) -> dict:
    first = make_instance(wl, seed, 0, work)
    setup_s, env = measure_setup(first)
    print("env", json.dumps(env), flush=True)
    ok_runs, walls = [], []
    start = time.perf_counter()
    # One instance per operation; start another while it is expected to end
    # within ``seconds``.
    k = 0
    while True:
        inst = first if k == 0 else make_instance(wl, seed, k, work)
        out = inst.dir / "out"
        run = spawn(cli_cmd(inst, out), inst.dir / "run.log")
        info = tally.check(wl, inst, out, run.rc)
        walls.append(run.wall_s)
        if info is not None:
            ok_runs.append(run)
        else:
            print(_stderr_tail(inst.dir / "run.log"), flush=True)
        print(f"  run {inst.label} rc={run.rc} wall_s={run.wall_s:.3f} "
              f"cpu_s={run.cpu_s:.3f} peak_rss_mb={run.peak_rss_mb:.1f} "
              f"{json.dumps(info)}", flush=True)
        shutil.rmtree(inst.dir, ignore_errors=True)
        k += 1
        if (k >= MIN_OPS and
                time.perf_counter() - start + statistics.median(walls) > seconds):
            break
    runs = ok_runs or [run]
    return {"wall_s": statistics.median(r.wall_s for r in runs),
            "cpu_s": statistics.median(r.cpu_s for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "setup_s": setup_s}


def _traced(wl: Workload, inst: Instance, k: int, tally: Tally) -> dict:
    out = inst.dir / f"traced{k}"
    cmd = [sys.executable, str(HERE / "child.py"), "trace", *inst.argv, "--out", str(out)]
    run = spawn(cmd, inst.dir / f"traced{k}.log")
    info = tally.check(wl, inst, out, run.rc)
    lines = run.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"traced child printed nothing; see {inst.dir}/traced{k}.log")
    doc = json.loads(lines[-1])
    doc["wall_s"] = run.wall_s
    doc["reports.bytes"] = sum(p.stat().st_size for p in out.glob("*") if p.is_file())
    print(f"  traced {inst.label} rc={run.rc} wall_s={run.wall_s:.3f} "
          f"{json.dumps(info)}", flush=True)
    shutil.rmtree(out, ignore_errors=True)
    return doc


def per_layer(wl: Workload, inst: Instance, tally: Tally) -> dict:
    # Untraced and traced runs alternate, so that both see the same caches.
    untraced, traced = [], []
    for k in range(2):
        out = inst.dir / f"untraced{k}"
        run = spawn(cli_cmd(inst, out), inst.dir / f"untraced{k}.log")
        tally.check(wl, inst, out, run.rc)
        print(f"  run {inst.label} rc={run.rc} wall_s={run.wall_s:.3f}", flush=True)
        shutil.rmtree(out, ignore_errors=True)
        untraced.append(run.wall_s)
        traced.append(_traced(wl, inst, k, tally))
    print("env", json.dumps(traced[0]["env"]), flush=True)

    counts = [t["counts"] for t in traced]
    for name in EXACT_COUNTS:
        if counts[0].get(name, 0) != counts[1].get(name, 0):
            tally.correct = False
            print(f"  FAILED: exact count {name} differs between traced runs: "
                  f"{counts[0].get(name, 0)} vs {counts[1].get(name, 0)}", flush=True)

    def self_time(t, metric):
        return sum(t["self_s"].get(span, 0.0) for span in SELF_TIME_SPANS[metric])

    metrics = {m: statistics.median(self_time(t, m) for t in traced) for m in SELF_TIME_SPANS}
    for name, unit in PER_LAYER.items():
        if unit == "count":
            metrics[name] = counts[0].get(name, 0)
    metrics["reports.bytes"] = traced[0]["reports.bytes"]
    wall = statistics.median(t["wall_s"] for t in traced)
    # Self times of all spans add up to the traced wall time; the CLI's own
    # work, interpreter start-up and imports make up the remainder.
    metrics["cli.self_s"] = statistics.median(
        t["wall_s"] - sum(t["self_s"].values()) for t in traced)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - statistics.median(untraced)
    return metrics


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of ``wl``; returns the result object that is printed."""
    work = WORK / f"{wl.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    try:
        if trace:
            inst = make_instance(wl, seed, 0, work)
            print(f"workload {wl.name} seed {seed} trace 1 instance {inst.label}", flush=True)
            values, units = per_layer(wl, inst, tally), PER_LAYER
        else:
            amplitude = PERTURBATION if seed != 0 and wl.perturb else 0.0
            print(f"workload {wl.name} seed {seed} trace 0 perturbation {amplitude}",
                  flush=True)
            values, units = end_to_end(wl, seed, work, seconds, tally), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for name, unit in units.items():
        print(f"{wl.name} {name} {values[name]:.6g} {unit}", flush=True)
    print(f"{wl.name} fail_ratio {tally.failed}/{tally.attempted}", flush=True)
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics, 1: per-layer metrics; default both")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    missing = [p for p in (ROOT / "src" / "dbio" / "cli.py", FIXTURES) if not p.exists()]
    if missing:
        print(f"error: not a dbio checkout, missing {missing}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the generated inputs are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = {(n, t): run_workload(WORKLOADS[n], args.seed, args.seconds, t)
               for n in names for t in modes}
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{m}": v for (n, _), r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
