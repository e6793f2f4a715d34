"""Child processes of the pipeline benchmark.

``python3 perfbench/child.py setup <scenario.json>``
    Imports ``dbio.cli``, loads the scenario, builds its multi-year profiles
    and prints the environment as one JSON line. The parent times this
    process from spawn to exit as ``setup_s``.

``python3 perfbench/child.py trace <dbio CLI arguments...>``
    Runs ``dbio.cli.main`` in this process with a timer and counters around
    the public functions of each ``dbio`` module, then prints one JSON line
    with each layer's self time and counts. The program files are not
    changed: the wrappers replace module and class attributes at run time.

Both expect ``dbio`` to be importable (the parent puts ``src`` on
``PYTHONPATH``).
"""

from __future__ import annotations

import functools
import json
import os
import platform
import sys
import time
from collections import Counter, defaultdict


def environment() -> dict:
    import numpy
    import scipy

    from dbio import milp, rainflow
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "rainflow_backend": rainflow.BACKEND,
            "solver_backend": milp.default_backend(),
            "nproc": len(os.sched_getaffinity(0))}


def setup(scenario_path: str) -> int:
    import dbio.cli  # noqa: F401  (the import is part of what is timed)
    from dbio.scenario import load_scenario

    load_scenario(scenario_path).profiles()
    print(json.dumps(environment()))
    return 0


class Tracer:
    """Self seconds of nested spans keyed by layer name, plus counters."""

    def __init__(self):
        self.stack = []  # [start, seconds covered by child spans]
        self.self_s = defaultdict(float)
        self.counts = Counter()

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                elapsed = time.perf_counter() - frame[0]
                self.self_s[name] += elapsed - frame[1]
                if self.stack:
                    self.stack[-1][1] += elapsed
            if on_result is not None:
                on_result(result, args)
            return result
        return timed


def _replace_everywhere(original, wrapper):
    """Point every ``dbio`` module attribute bound to ``original`` at ``wrapper``.

    Modules import functions by name (``from .planning import
    build_single_year``), so each importing namespace holds its own binding.
    """
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "dbio" or mod_name.startswith("dbio."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install(tracer: Tracer):
    import dbio.cli  # noqa: F401  (imports every module that is wrapped)
    from dbio import degradation, milp, planning, reports, scenario, sizing, validation

    counts = tracer.counts

    def on_build(result, args):
        problem = result[0]
        counts["planning.build_calls"] += 1
        counts["planning.vars"] += problem.n_variables
        counts["planning.rows"] += problem.n_constraints
        counts["planning.binaries"] += len(problem.binary_indices)

    def on_solve(result, args):
        counts["milp.solves"] += 1
        counts["milp.nonoptimal"] += result.status != milp.OPTIMAL

    def on_highs(result, args):
        counts["milp.bb_nodes"] += int(getattr(result, "mip_node_count", 0) or 0)

    def on_validate(report, args):
        counts["validation.years"] += len(report.per_year)

    def on_count_cycles(hist, args):
        counts["degradation.trace_points"] += len(args[0])

    def on_probe(result, args):
        counts["sizing.probes"] += 1
        counts["sizing.shed_probes"] += not result[3].feasible

    functions = [
        (scenario.load_scenario, "scenario.load", None),
        (planning.build_integrated, "planning.build", on_build),
        (planning.build_single_year, "planning.build", on_build),
        (planning.extract_solution, "planning.extract", None),
        (milp.solve, "milp.solve", on_solve),
        (milp.milp, "milp.highs", on_highs),  # scipy.optimize.milp as dbio.milp calls it
        (validation.validate, "validation.validate", on_validate),
        (degradation.count_cycles, "degradation.count_cycles", on_count_cycles),
        (degradation.advance_state, "degradation.advance", None),
        (sizing.run_search, "sizing.search", None),
        (sizing.probe, "sizing.probe", on_probe),
    ]
    functions += [(getattr(reports, name), "reports.write", None)
                  for name in dir(reports) if name.startswith("write_")]
    for fn, name, hook in functions:
        _replace_everywhere(fn, tracer.wrap(name, fn, hook))

    methods = [
        (scenario.Scenario, "profiles", "scenario.profiles"),
        (milp.MilpProblem, "constraint_matrix", "milp.matrix"),
    ]
    for cls, attr, name in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))


def trace(argv) -> int:
    tracer = Tracer()
    install(tracer)
    from dbio import cli

    rc = 1
    try:
        rc = cli.main(argv)
    finally:
        print(json.dumps({"self_s": tracer.self_s, "counts": tracer.counts,
                          "env": environment()}))
    return rc


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        raise SystemExit(setup(rest[0]))
    if mode == "trace":
        raise SystemExit(trace(rest))
    raise SystemExit(f"unknown mode {mode!r}; expected 'setup' or 'trace'")
