"""Command-line entry point: plan, validate, or size a microgrid scenario.

Progress goes to stderr, one line per solve/iteration; machine-readable
results only land in files under the output directory.

A run sets ``OPENBLAS_NUM_THREADS=1`` unless the environment already sets it,
before numpy is imported: dbio gives BLAS no work worth a thread, and each
OpenBLAS pool's idle workers spin at start-up. Code that imported numpy
before this module keeps the pools it already has.

The cyclic garbage collector is held off while this module imports numpy
and dbio, which loads scipy's HiGHS extension and reads scipy's version
without importing any scipy package (see :mod:`dbio.milp`). The resulting
module state is then frozen (``gc.freeze``) so that neither collections
during the run nor interpreter shutdown traverse it again; this keeps about
0.2 MB of import-time garbage alive. A host that disabled the collector
before importing this module finds it still disabled.

Importing this module loads only the ``dbio`` modules a plan run executes
(``milp``, ``scenario``, ``planning``, ``reports``). A validate run imports
``validation`` (with ``degradation`` and ``rainflow``) and a size run also
``sizing``, each when its mode starts, after ``gc.freeze``; ``main`` reads
their functions from the module at that call.

The manifest's SHA-256 comes from CPython's own ``_sha2`` (or ``_sha256``)
module: ``hashlib`` would load OpenSSL's libcrypto, about 3.5 MB resident,
for that one digest.
"""

from __future__ import annotations

import gc
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
_gc_was_enabled = gc.isenabled()
gc.disable()

import argparse
import dataclasses
import json
import math
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

try:  # CPython's own SHA-256; hashlib would load OpenSSL's libcrypto for one digest
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11
    except ImportError:
        from hashlib import sha256

import numpy

from . import DbioError, __version__, milp, reports
from .planning import InvestmentDecision, build_integrated, extract_solution, solve_dispatch
from .scenario import ScenarioError, load_scenario

gc.freeze()
if _gc_was_enabled:
    gc.enable()


def _progress(msg):
    print(msg, file=sys.stderr, flush=True)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dbio",
        description="Degradation-aware microgrid planning: size, validate, and "
                    "iteratively refine a generator/PV/battery investment plan.")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--mode", choices=("plan", "validate", "size"), default="plan")
    p.add_argument("--investment",
                   help="investment JSON for validate mode (either "
                        '{"s_pv":..,"s_bess":..,"p_cder_max":..} or a prior '
                        "report.json: a size run's sized investment, else a "
                        "plan run's plan)")
    p.add_argument("--method", choices=("binary", "fixed"), default="binary",
                   help="sizing search method (size mode)")
    p.add_argument("--tol", type=float, default=0.01,
                   help="binary-search convergence tolerance, MWh")
    p.add_argument("--step", type=float, default=0.01,
                   help="fixed-step relative increment")
    p.add_argument("--mip-gap", type=float, default=None,
                   help="override the scenario's relative MIP gap")
    p.add_argument("--time-limit", type=float, default=None,
                   help="override the scenario's time limit, seconds, which every HiGHS call "
                        "of a plan, a probe's plan or a validation year shares")
    p.add_argument("--dump-lp", action="store_true",
                   help="write the integrated model to <out>/integrated.lp (plan and size modes)")
    p.add_argument("--no-cyclic-soc", action="store_true",
                   help="drop the end-of-day stored-energy closure constraint")
    return p


def load_investment(path) -> InvestmentDecision:
    """Sizes from a plain investment JSON or a prior report.json; a size run's
    report yields its sized investment, not the plan it started from. Every
    problem with the file is a :class:`ScenarioError`."""
    try:
        doc = json.loads(Path(path).read_text())
        if doc.get("sizing", {}).get("final_investment") is not None:
            doc = doc["sizing"]["final_investment"]
        elif "plan" in doc and "investment" in doc.get("plan", {}):
            doc = doc["plan"]["investment"]
        return InvestmentDecision(s_pv=float(doc["s_pv"]),
                                  s_bess=float(doc["s_bess"]),
                                  p_cder_max=float(doc["p_cder_max"]))
    except OSError as exc:
        raise ScenarioError(f"investment file {path}: {exc.strerror}") from exc
    except KeyError as exc:
        raise ScenarioError(f"investment file {path}: missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        # bad JSON or not an object; a non-number, negative or NaN size
        raise ScenarioError(f"investment file {path}: {exc}") from exc


def write_manifest(args, out_dir: Path, converged=True):
    scenario = Path(args.scenario)
    doc = {
        "mode": args.mode,
        "scenario": str(scenario.resolve()),
        "scenario_sha256": sha256(scenario.read_bytes()).hexdigest(),
        "out": str(out_dir.resolve()),
        "method": args.method,
        "tolerance_mwh": args.tol,
        "step_frac": args.step,
        "mip_gap_override": args.mip_gap,
        "time_limit_override": args.time_limit,
        "cyclic_soc_disabled": args.no_cyclic_soc,
        "converged": converged,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
        # The numeric environment: cost-equal optima make the dispatch depend on it.
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": milp.SCIPY_VERSION,
            "highs": milp.highs_version(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n")


def _apply_overrides(scenario, args):
    """The scenario with the command line's solver and cyclic-SOC overrides."""
    solver = scenario.cfg.solver
    try:
        solver = dataclasses.replace(
            solver,
            mip_gap=solver.mip_gap if args.mip_gap is None else args.mip_gap,
            time_limit=solver.time_limit if args.time_limit is None else args.time_limit)
    except milp.MilpError as exc:
        raise ScenarioError(f"solver override: {exc}") from exc
    cyclic_soc = scenario.cfg.cyclic_soc and not args.no_cyclic_soc
    return dataclasses.replace(scenario, cfg=dataclasses.replace(
        scenario.cfg, solver=solver, cyclic_soc=cyclic_soc))


def _plan(scenario, out_dir, dump_lp):
    problem, index = build_integrated(scenario)
    if dump_lp:
        problem.write_lp(out_dir / "integrated.lp")
    _progress(f"solving integrated model ({problem.n_variables} vars, "
              f"{problem.n_constraints} rows)...")
    result = solve_dispatch(problem, index, scenario.cfg.solver)
    _progress(f"  status={result.status} objective={result.objective:.2f} "
              f"gap={result.achieved_gap:.2%} path={result.path} ({result.runtime:.1f}s)")
    if not result.has_solution:
        raise milp.MilpError(f"integrated solve failed: status {result.status}")
    return extract_solution(result, index)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)

    try:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # an existing file, or a path under one
            raise DbioError(f"--out {args.out}: {exc.strerror}") from exc
        scenario = _apply_overrides(load_scenario(args.scenario), args)
        if (args.mode != "validate" and scenario.cder.committed
                and math.isinf(scenario.cder.max_size)):
            # The plan's commitment rows switch the generator off at its size cap.
            raise ScenarioError("cder.max_size must be finite to plan a generator with a "
                                "minimum output or a no-load cost")
        if args.mode == "validate":
            if not args.investment:
                raise ScenarioError("--investment is required in validate mode")
            investment = load_investment(args.investment)
        if args.mode == "size":
            from .sizing import SearchConfig

            search_cfg = SearchConfig(
                method="binary" if args.method == "binary" else "fixed_step",
                tolerance=args.tol, step_frac=args.step)
    except DbioError as exc:
        _progress(f"error: {exc}")
        return 2

    try:
        if args.mode == "plan":
            sol = _plan(scenario, out_dir, args.dump_lp)
            reports.write_costs(sol, out_dir)
            reports.write_sizing(sol.investment, out_dir)
            reports.write_dispatch(sol, out_dir)
            reports.write_report_json(out_dir, plan=sol)
            write_manifest(args, out_dir)
            return 0

        if args.mode == "validate":
            from .validation import validate

            def on_year(r):
                _progress(f"year {r.year}: eue={r.eue_y:.6g} MWh "
                          f"capacity={r.state_in.capacity:.6g} MWh path={r.solve_path}")

            report = validate(investment, scenario, on_year=on_year)
            reports.write_degradation(report, out_dir)
            reports.write_validation_summary(report, out_dir)
            last = report.per_year[-1].dispatch
            reports.write_sizing(investment, out_dir)
            reports.write_costs(last, out_dir)
            reports.write_report_json(out_dir, validation=report)
            write_manifest(args, out_dir, converged=report.feasible)
            return 0 if report.feasible else 1

        # size mode: plan, then search, then report everything.
        from .sizing import run_search

        sol = _plan(scenario, out_dir, args.dump_lp)

        def on_iteration(rec):
            _progress(f"iter {rec.index} [{rec.phase}] size={rec.candidate_size:.6g} "
                      f"MWh eue={rec.total_eue:.6g} shed={'YES' if rec.shed else 'NO'}")

        sizing = run_search(sol.investment, scenario, search_cfg,
                            on_iteration=on_iteration)
        final_inv, final_report = sizing.final_investment, sizing.final_report

        reports.write_costs(sol, out_dir)
        reports.write_sizing(final_inv, out_dir)
        reports.write_dispatch(sol, out_dir)
        reports.write_degradation(final_report, out_dir)
        reports.write_validation_summary(final_report, out_dir)
        reports.write_iterations(sizing, out_dir)
        reports.write_report_json(out_dir, plan=sol, validation=final_report,
                                  sizing=sizing)
        write_manifest(args, out_dir, converged=sizing.converged)
        _progress(f"final size: {sizing.final_size:.6g} MWh "
                  f"(converged={sizing.converged})")
        return 0 if sizing.converged else 1

    except DbioError as exc:
        _progress(f"error: {exc}")
        write_manifest(args, out_dir, converged=False)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
