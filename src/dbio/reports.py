"""Report file emission: CSV tables and the nested JSON report.

Formatting conventions: dollar figures to 2 decimals, power/energy to 6
significant digits. File contents are deterministic for identical inputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from pathlib import Path

from .planning import DispatchSolution, InvestmentDecision, ModelIndex
from .sizing import SizingResult
from .validation import ValidationReport


def fmt_usd(x: float) -> str:
    text = f"{x:.2f}"
    return "0.00" if text == "-0.00" else text  # e.g. -0.004 or -0.0


def fmt_qty(x: float) -> str:
    return f"{x + 0.0:.6g}"  # + 0.0 turns -0.0 into 0.0; .6g rounds nothing else to zero


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_costs(sol: DispatchSolution, out_dir: Path) -> Path:
    """Cost breakdown; export revenue is recorded with a negative sign so the
    component column sums to the objective."""
    rows = [
        ("capital", fmt_usd(sol.costs["capital"])),
        ("cder_operational", fmt_usd(sol.costs["cder_op"])),
        ("pv_degradation", fmt_usd(sol.costs["pv_deg"])),
        ("bess_degradation", fmt_usd(sol.costs["bess_deg"])),
        ("load_shed_penalty", fmt_usd(sol.costs["shed_penalty"])),
        ("grid_import", fmt_usd(sol.costs["import_cost"])),
        ("grid_export_revenue", fmt_usd(-sol.costs["export_revenue"])),
        ("objective", fmt_usd(sol.objective)),
    ]
    path = out_dir / "costs.csv"
    _write_csv(path, ("component", "usd"), rows)
    return path


def write_sizing(inv: InvestmentDecision, out_dir: Path) -> Path:
    rows = [
        ("cder_mw", fmt_qty(inv.p_cder_max)),
        ("pv_mw", fmt_qty(inv.s_pv)),
        ("bess_mwh", fmt_qty(inv.s_bess)),
    ]
    path = out_dir / "sizing.csv"
    _write_csv(path, ("asset", "size"), rows)
    return path


def write_dispatch(sol: DispatchSolution, out_dir: Path) -> list:
    """One hourly CSV per modeled year."""
    Y, D, T = sol.shape
    names = ModelIndex.SERIES
    paths = []
    for y in range(Y):
        rows = []
        for d in range(D):
            for t in range(T):
                rows.append((d, t) + tuple(fmt_qty(sol.series[n][y, d, t]) for n in names))
        path = out_dir / f"dispatch_y{y + 1}.csv"
        _write_csv(path, ("day", "hour") + names, rows)
        paths.append(path)
    return paths


def write_degradation(report: ValidationReport, out_dir: Path) -> Path:
    """Per-year condition chain behind capacity/SOH trajectory plots."""
    rows = []
    for r in report.per_year:
        s_in, s_out = r.state_in, r.state_out
        rows.append((r.year, fmt_qty(s_in.capacity), fmt_qty(s_in.soh),
                     fmt_qty(s_in.eta_bess), fmt_qty(s_in.eta_pv),
                     fmt_qty(s_out.efc), fmt_qty(s_out.deg)))
    path = out_dir / "degradation.csv"
    _write_csv(path, ("year", "capacity_mwh", "soh", "eta_bess", "eta_pv",
                      "efc", "deg_mwh"), rows)
    return path


def write_validation_summary(report: ValidationReport, out_dir: Path) -> Path:
    rows = [(r.year, fmt_qty(r.eue_y), fmt_qty(r.state_in.capacity),
             fmt_qty(r.state_in.soh), fmt_qty(r.state_in.eta_bess),
             fmt_usd(r.operating_cost_y)) for r in report.per_year]
    path = out_dir / "validation.csv"
    _write_csv(path, ("year", "eue_mwh", "capacity_mwh", "soh", "eta_bess",
                      "op_cost_usd"), rows)
    return path


def write_iterations(result: SizingResult, out_dir: Path) -> Path:
    rows = [(r.index, r.phase, fmt_qty(r.candidate_size), fmt_usd(r.objective),
             fmt_qty(r.total_eue), "YES" if r.shed else "NO",
             "YES" if r.truncated else "NO", r.simplex_iterations,
             fmt_qty(r.lb), fmt_qty(r.ub)) for r in result.iterations]
    path = out_dir / "iterations.csv"
    _write_csv(path, ("iter", "phase", "size_mwh", "objective_usd", "eue_mwh",
                      "shed", "truncated", "simplex_iterations", "lb", "ub"), rows)
    return path


def _solution_json(sol: DispatchSolution) -> dict:
    return {
        "investment": asdict(sol.investment),
        "e_init_mwh": sol.e_init,
        "objective_usd": sol.objective,
        "costs": sol.costs,
    }


def _validation_json(report: ValidationReport) -> dict:
    return {
        "total_eue_mwh": report.total_eue,
        "total_operating_cost_usd": report.total_cost,
        "feasible": report.feasible,
        "eue_tolerance_mwh": report.eue_tolerance,
        "truncated": report.truncated,
        "per_year": [{
            "year": r.year,
            "eue_mwh": r.eue_y,
            "operating_cost_usd": r.operating_cost_y,
            "solve_path": r.solve_path,
            "simplex_iterations": r.simplex_iterations,
            "state_in": asdict(r.state_in),
            "state_out": asdict(r.state_out),
        } for r in report.per_year],
    }


def _sizing_json(result: SizingResult) -> dict:
    return {
        "method": result.method,
        "final_size_mwh": result.final_size,
        "final_objective_usd": result.final_objective,
        "final_midpoint_mwh": result.final_midpoint,
        "converged": result.converged,
        # The sized plan; report["plan"] holds the plan before sizing.
        "final_investment": (None if result.final_investment is None
                             else asdict(result.final_investment)),
        # A doubling probe's bracket is open above: its ub is written as null.
        "iterations": [{**asdict(r), "ub": None if r.ub == math.inf else r.ub}
                       for r in result.iterations],
    }


def write_report_json(out_dir: Path, *, plan: DispatchSolution | None = None,
                      validation: ValidationReport | None = None,
                      sizing: SizingResult | None = None) -> Path:
    doc = {}
    if plan is not None:
        doc["plan"] = _solution_json(plan)
    if validation is not None:
        doc["validation"] = _validation_json(validation)
    if sizing is not None:
        doc["sizing"] = _sizing_json(sizing)
    path = out_dir / "report.json"
    # RFC 8259 JSON: a non-finite number fails here rather than in a reader.
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path
