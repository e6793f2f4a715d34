"""MILP container, both solver backends, evaluation, and LP export."""

import math

import numpy as np
import pytest

from dbio import milp
from dbio.milp import (EQ, GE, INF, LE, BackendUnavailableError, MilpError,
                       MilpProblem, SolveOptions, solve)

BACKENDS = ("highs", "enum")


def simple_lp():
    # min x + 2y  s.t.  x + y >= 3, y <= 1.5  ->  x=1.5, y=1.5? no: y costs more,
    # so y sits at its lower bound unless forced: optimum x=3, y=0, obj=3.
    p = MilpProblem("lp")
    x = p.add_variable("x")
    y = p.add_variable("y", 0.0, 1.5)
    p.add_constraint([(x, 1.0), (y, 1.0)], GE, 3.0, "cover")
    p.set_objective([(x, 1.0), (y, 2.0)])
    return p, x, y


@pytest.mark.parametrize("backend", BACKENDS)
def test_lp_optimum(backend):
    p, x, y = simple_lp()
    res = solve(p, backend=backend)
    assert (res.status, res.path) == ("optimal", "lp" if backend == "highs" else "enum")
    assert res.objective == pytest.approx(3.0, abs=1e-9)
    assert res.primal[x] == pytest.approx(3.0, abs=1e-9)
    assert res.primal[y] == pytest.approx(0.0, abs=1e-9)


def fixed_charge():
    # Producing anything costs a 10-unit commitment fee. The LP relaxation
    # commits only u = 0.4 for its 2 units, at cost 6 against the MILP's 12.
    p = MilpProblem("fc")
    u = p.add_variable("u", 0, 1, binary=True)
    x = p.add_variable("x", 0.0, 5.0)
    p.add_constraint([(x, 1.0), (u, -5.0)], LE, 0.0, "on")
    p.add_constraint([(x, 1.0)], GE, 2.0, "demand")
    p.set_objective([(x, 1.0), (u, 10.0)])
    return p, u


@pytest.mark.parametrize("backend", BACKENDS)
def test_small_milp_optimum(backend):
    p, u = fixed_charge()
    res = solve(p, backend=backend)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(12.0, abs=1e-6)
    assert res.primal[u] == pytest.approx(1.0, abs=1e-6)


def test_fractional_relaxation_falls_back_to_branch_and_bound():
    p, u = fixed_charge()
    res = solve(p, backend="highs")
    assert res.path == "highs" and res.status == "optimal"
    assert res.objective == pytest.approx(solve(p, backend="enum").objective, abs=1e-6)
    assert res.primal[u] == 1.0


@pytest.mark.parametrize("problem, expected", [("fixed-charge", "time-limit"),
                                               ("infeasible", "infeasible")],
                         ids=["fixed-charge", "infeasible"])
def test_tiny_time_limit_ends_as_branch_and_bound_does(problem, expected):
    if problem == "fixed-charge":
        p, _ = fixed_charge()
    else:
        p = MilpProblem()
        b = p.add_variable("b", 0, 1, binary=True)
        p.add_constraint([(b, 1.0)], GE, 2.0)
    # Stopped before any incumbent, HiGHS reports the limit with no solution.
    res = solve(p, SolveOptions(time_limit=1e-9), backend="highs")
    assert res.status == expected and not res.has_solution


def test_backends_agree_on_random_milps():
    rng = np.random.default_rng(7)
    for trial in range(10):
        p = MilpProblem(f"rand{trial}")
        n_bin, n_cont = 4, 4
        bvars = [p.add_variable(f"b{i}", 0, 1, binary=True) for i in range(n_bin)]
        cvars = [p.add_variable(f"x{i}", 0.0, 2.0) for i in range(n_cont)]
        allv = bvars + cvars
        for r in range(5):
            coefs = rng.integers(-3, 4, size=len(allv)).astype(float)
            p.add_constraint(list(zip(allv, coefs)), LE, float(rng.integers(1, 8)))
        obj = rng.integers(-5, 6, size=len(allv)).astype(float)
        p.set_objective(list(zip(allv, obj)))
        a = solve(p, backend="highs")
        b = solve(p, backend="enum")
        assert (a.path, a.status, b.status) == ("highs", "optimal", "optimal")
        assert a.objective == pytest.approx(b.objective, abs=1e-6)


@pytest.mark.parametrize("backend", BACKENDS)
def test_infeasible_detected(backend):
    p = MilpProblem()
    x = p.add_variable("x", 0.0, 1.0)
    p.add_constraint([(x, 1.0)], GE, 2.0)
    p.set_objective([(x, 1.0)])
    assert solve(p, backend=backend).status == "infeasible"


def test_unbounded_detected():
    p = MilpProblem()
    x = p.add_variable("x", -INF, INF)
    p.set_objective([(x, 1.0)])
    assert solve(p, backend="highs").status == "unbounded"


def test_objective_constant_carried():
    p, _, _ = simple_lp()
    p.set_objective([(0, 1.0), (1, 2.0)], constant=7.0)
    res = solve(p)
    assert res.objective == pytest.approx(10.0, abs=1e-9)


def test_evaluate_residuals():
    p = MilpProblem()
    x = p.add_variable("x")
    y = p.add_variable("y")
    p.add_constraint([(x, 1.0), (y, 1.0)], EQ, 2.0)
    p.add_constraint([(x, 1.0)], LE, 0.5)
    p.add_constraint([(y, 1.0)], GE, 3.0)
    p.set_objective([(x, 2.0)], constant=1.0)
    residuals, obj = p.evaluate([1.0, 1.0])
    np.testing.assert_allclose(residuals, [0.0, 0.5, 2.0])
    assert obj == pytest.approx(3.0)


def test_evaluate_rejects_wrong_length():
    p, _, _ = simple_lp()
    with pytest.raises(MilpError, match="covers"):
        p.evaluate([1.0])


def test_duplicate_variable_ids_rejected():
    p = MilpProblem()
    x = p.add_variable("x")
    with pytest.raises(MilpError, match="duplicate"):
        p.add_constraint([(x, 1.0), (x, 2.0)], LE, 1.0)


def test_nonfinite_coefficient_rejected():
    p = MilpProblem()
    x = p.add_variable("x")
    with pytest.raises(MilpError, match="non-finite"):
        p.add_constraint([(x, math.inf)], LE, 1.0)
    with pytest.raises(MilpError, match="non-finite"):
        p.add_constraint([(x, 1.0)], LE, math.nan)


def test_bad_variable_bounds_rejected():
    p = MilpProblem()
    with pytest.raises(MilpError, match="lower"):
        p.add_variable("x", 2.0, 1.0)
    with pytest.raises(MilpError, match="binary"):
        p.add_variable("b", 0.0, 2.0, binary=True)


def test_unknown_backend_rejected():
    p, _, _ = simple_lp()
    with pytest.raises(BackendUnavailableError, match="unknown"):
        solve(p, backend="cplex")


def test_enum_backend_binary_cap():
    p = MilpProblem()
    vs = [p.add_variable(f"b{i}", 0, 1, binary=True) for i in range(21)]
    p.set_objective([(v, 1.0) for v in vs])
    with pytest.raises(BackendUnavailableError, match="20"):
        solve(p, backend="enum")


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("DBIO_SOLVER", "enum")
    assert milp.default_backend() == "enum"
    p, _, _ = simple_lp()
    assert solve(p).status == "optimal"


def test_solve_options_validation():
    with pytest.raises(MilpError):
        SolveOptions(mip_gap=-0.1)
    with pytest.raises(MilpError):
        SolveOptions(time_limit=0.0)


def test_lp_export_deterministic_and_parsable():
    p, x, y = simple_lp()
    p.add_variable("b", 0, 1, binary=True)
    text = p.to_lp_string()
    assert text == p.to_lp_string()
    assert text.splitlines()[1] == "Minimize"
    assert "Subject To" in text and "Bounds" in text and "Binaries" in text
    assert " cover: 1 x + 1 y >= 3" in text
    assert text.endswith("End\n")


def test_lp_export_negative_coefficients():
    p = MilpProblem()
    x = p.add_variable("x")
    y = p.add_variable("y")
    p.add_constraint([(x, -1.0), (y, -2.5)], LE, -1.0, "neg")
    p.set_objective([(x, -3.0), (y, 1.0)])
    text = p.to_lp_string()
    assert " obj: - 3 x + 1 y" in text
    assert " neg: - 1 x - 2.5 y <= -1" in text


def test_write_lp(tmp_path):
    p, _, _ = simple_lp()
    path = tmp_path / "model.lp"
    p.write_lp(path)
    assert path.read_text() == p.to_lp_string()


def _two_families(bad_row):
    """A two-family block over x, y whose "upper" family holds ``bad_row``."""
    p = MilpProblem()
    ids = p.add_variables(2, names=["x", "y"])
    p.add_constraints([("lower", [0, 1], [(ids, 1.0)], GE, 0.0),
                       ("upper", [2, 3], bad_row, LE, [1.0, 2.0])],
                      names=["lo_x", "lo_y", "hi_x", "hi_y"])


@pytest.mark.parametrize("bad_row, message", [
    ([(0, [1.0, math.nan])], "non-finite coefficient on x"),
    ([(0, 1.0), (0, 2.0)], "duplicate"),
    ([([0, 5], 1.0)], "unknown variable id 5"),
], ids=["nan-coefficient", "duplicate-id", "unknown-id"])
def test_block_check_names_family_and_row(bad_row, message):
    with pytest.raises(MilpError, match=f"upper, row hi_.: {message}"):
        _two_families(bad_row)


def test_block_rows_must_cover_the_block_once():
    p = MilpProblem()
    x = p.add_variable("x")
    with pytest.raises(MilpError, match="exactly one family"):
        p.add_constraints([("a", [0, 0], [(x, 1.0)], LE, 1.0)], names=["r0", "r1"])
    with pytest.raises(MilpError, match="non-finite rhs"):
        p.add_constraints([("a", [0, 1], [(x, 1.0)], LE, [1.0, math.inf])], names=["r0", "r1"])


def test_variable_block_checks_name_family():
    p = MilpProblem()
    names = ["v0", "v1", "v2"]
    with pytest.raises(MilpError, match=r"variables dispatch: v1 has bounds \[3.0, 2.0\]"):
        p.add_variables(3, lower=[0.0, 3.0, 0.0], upper=2.0, names=names, family="dispatch")
    with pytest.raises(MilpError, match="variables dispatch: v2 .*binary"):
        p.add_variables(3, upper=[1.0, 1.0, 2.0], binary=True, names=lambda: names,
                        family="dispatch")
    assert p.n_variables == 0
