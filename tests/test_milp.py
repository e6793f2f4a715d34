"""MILP container, the HiGHS solve against the enumeration oracle, evaluation, and LP export."""

import math
import sys

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize._highspy._core import HighsModelStatus as Status

from dbio import milp
from dbio.degradation import DegradationState
from dbio.milp import EQ, GE, INF, LE, MilpError, MilpProblem, SolveOptions, solve
from dbio.planning import InvestmentDecision, build_integrated, build_single_year

from conftest import constraint_csr, enum_solve

SOLVERS = pytest.mark.parametrize("solver", (solve, enum_solve), ids=("highs", "enum"))


def simple_lp():
    # min x + 2y  s.t.  x + y >= 3, y <= 1.5  ->  x=1.5, y=1.5? no: y costs more,
    # so y sits at its lower bound unless forced: optimum x=3, y=0, obj=3.
    p = MilpProblem("lp")
    x = p.add_variable("x")
    y = p.add_variable("y", 0.0, 1.5)
    p.add_constraint([(x, 1.0), (y, 1.0)], GE, 3.0, "cover")
    p.set_objective([(x, 1.0), (y, 2.0)])
    return p, x, y


@SOLVERS
def test_lp_optimum(solver):
    p, x, y = simple_lp()
    res = solver(p)
    assert (res.status, res.path) == ("optimal", "lp" if solver is solve else "enum")
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


@SOLVERS
def test_small_milp_optimum(solver):
    p, u = fixed_charge()
    res = solver(p)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(12.0, abs=1e-6)
    assert res.primal[u] == pytest.approx(1.0, abs=1e-6)


def test_fractional_relaxation_falls_back_to_branch_and_bound():
    p, u = fixed_charge()
    res = solve(p)
    assert res.path == "highs" and res.status == "optimal"
    assert res.objective == pytest.approx(enum_solve(p).objective, abs=1e-6)
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
    res = solve(p, SolveOptions(time_limit=1e-9))
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
        a = solve(p)
        b = enum_solve(p)
        assert (a.path, a.status, b.status) == ("highs", "optimal", "optimal")
        assert a.objective == pytest.approx(b.objective, abs=1e-6)


def fixed_columns(fix_u=False):
    # fixed_charge() plus a fixed binary v = 1 and a fixed continuous z = 1.5
    # that cover 2 of the 4 demanded units, a row that reads only fixed
    # columns, and an objective constant: x = 2, u = 1, objective 2 + 10 + 3 + 3 + 4.
    p = MilpProblem("fixed")
    u = p.add_variable("u", float(fix_u), 1, binary=True)
    v = p.add_variable("v", 1, 1, binary=True)
    x = p.add_variable("x", 0.0, 5.0)
    z = p.add_variable("z", 1.5, 1.5)
    p.add_constraint([(x, 1.0), (u, -5.0)], LE, 0.0, "on")
    p.add_constraint([(x, 1.0), (z, 1.0), (v, 0.5)], GE, 4.0, "demand")
    p.add_constraint([(z, 1.0), (v, 1.0)], LE, 3.0, "fixed_only")
    p.set_objective([(x, 1.0), (u, 10.0), (z, 2.0), (v, 3.0)], constant=4.0)
    return p


def _capture_highs(monkeypatch):
    """Record the column count of every HiGHS call, then make it."""
    calls, highs = [], milp.milp

    def capture(c, **kwargs):
        calls.append(c.size)
        return highs(c, **kwargs)

    monkeypatch.setattr(milp, "milp", capture)
    return calls


def _forbid_highs(monkeypatch):
    def no_highs(*args, **kwargs):
        raise AssertionError("HiGHS called")

    monkeypatch.setattr(milp, "milp", no_highs)


@pytest.mark.parametrize("fix_u", [False, True], ids=["free-binary", "all-binaries-fixed"])
def test_fixed_columns_leave_the_solver_input(monkeypatch, fix_u):
    p = fixed_columns(fix_u)
    calls = _capture_highs(monkeypatch)
    res = solve(p)
    free = p.lower < p.upper
    assert calls == [free.sum()] == [2 - fix_u]
    assert (res.status, res.path) == ("optimal", "lp" if fix_u else "highs")
    assert res.objective == pytest.approx(enum_solve(p).objective, rel=1e-9)
    assert res.objective == pytest.approx(22.0, rel=1e-9)
    assert res.primal.shape == (p.n_variables,)
    assert np.array_equal(res.primal[~free], p.lower[~free])


def test_row_violated_by_fixed_columns_alone_is_infeasible():
    p = fixed_columns()
    p.add_constraint([(3, 1.0)], GE, 1.6, "fixed_short")  # z = 1.5
    for solver in (solve, enum_solve):
        res = solver(p)
        assert res.status == "infeasible" and not res.has_solution, solver


@pytest.mark.parametrize("rhs, expected", [(2.5, "optimal"), (2.5 + 5e-8, "optimal"),
                                           (2.6, "infeasible")])
def test_all_fixed_problem_never_reaches_highs(monkeypatch, rhs, expected):
    _forbid_highs(monkeypatch)
    p = fixed_columns(fix_u=True)
    p.lower[2] = p.upper[2] = 2.0  # x
    p.add_constraint([(1, 1.0), (3, 1.0)], EQ, rhs, "fixed_eq")  # v + z = 2.5
    res = solve(p)
    assert (res.status, res.path) == (expected, "lp")
    if expected == "optimal":
        assert res.objective == 22.0
        assert np.array_equal(res.primal, p.lower)
    else:
        assert res.primal is None and math.isnan(res.objective)
        assert enum_solve(p).status == "infeasible"


def test_fixed_binary_off_zero_one_is_infeasible(monkeypatch):
    _forbid_highs(monkeypatch)
    p = fixed_columns()
    p.lower[1] = p.upper[1] = 0.5  # v
    for solver in (solve, enum_solve):
        assert solver(p).status == "infeasible", solver


@SOLVERS
def test_infeasible_detected(solver):
    p = MilpProblem()
    x = p.add_variable("x", 0.0, 1.0)
    p.add_constraint([(x, 1.0)], GE, 2.0)
    p.set_objective([(x, 1.0)])
    assert solver(p).status == "infeasible"


def test_unbounded_detected():
    p = MilpProblem()
    x = p.add_variable("x", -INF, INF)
    p.set_objective([(x, 1.0)])
    assert solve(p).status == "unbounded"


def _fixed_column_lp():
    """``simple_lp`` with a fixed column z = 1 in the cover row: optimum x = 2, z = 1."""
    p = MilpProblem("lp")
    x, y, z = p.add_variable("x"), p.add_variable("y", 0.0, 1.5), p.add_variable("z", 1.0, 1.0)
    p.add_constraint([(x, 1.0), (y, 1.0), (z, 1.0)], GE, 3.0, "cover")
    p.set_objective([(x, 1.0), (y, 2.0)])
    return p, x, z


def test_lp_basis_is_full_length_and_restarts_the_solve():
    p, x, z = _fixed_column_lp()
    cold = solve(p)
    cols, rows = cold.basis
    assert (cols.dtype, cols.shape, rows.dtype, rows.shape) == (np.int8, (3,), np.int8, (1,))
    assert cols[z] == milp.LOWER and cols[x] == milp.BASIC
    warm = solve(p, basis=cold.basis)
    assert (warm.status, warm.objective, warm.iterations) == ("optimal", cold.objective, 0)
    assert np.array_equal(warm.primal, cold.primal)
    with pytest.raises(MilpError, match="basis covers 2 columns"):
        solve(p, basis=(cols[:2], rows))


def test_each_call_gets_its_own_time_limit(sizing_scenario):
    # HiGHS's run clock adds up over the runs of one instance, and no binding
    # call resets it, clear() included: one instance reused for 300 calls of
    # this LP, each well under the limit, ended 256-262 of them time-limit.
    # Each call makes its own.
    inv = InvestmentDecision(0.0, 0.6, 0.6)
    state = DegradationState(year=1, capacity=0.6, soh=1.0, eta_pv=1.0, eta_bess=0.9)
    problem, _ = build_single_year(sizing_scenario, state, inv)
    opts = SolveOptions(time_limit=0.02)
    assert [solve(problem, opts).status for _ in range(300)] == ["optimal"] * 300


def test_a_mip_returns_no_basis():
    p = MilpProblem()
    b = p.add_variable("b", 0.0, 1.0, binary=True)
    p.add_constraint([(b, 1.0)], GE, 0.5)
    p.set_objective([(b, 1.0)])
    assert (solve(p).path, solve(p).basis) == ("highs", None)


def _fake_highs(monkeypatch, status, objective, mip_gap):
    """Answer every HiGHS call with a fabricated result whose columns are all 1."""
    def fake(c, **kwargs):
        return milp.HighsResult(status=status, objective=objective, x=np.ones(c.size),
                                mip_gap=mip_gap, mip_node_count=0)

    monkeypatch.setattr(milp, "milp", fake)


# (HiGHS status, problem, HiGHS objective, HiGHS gap, SolveOptions.mip_gap) ->
# (status, whether the primal, objective and gap are kept). HiGHS reports an
# LP's gap as inf; dbio reports 0.
STATUS_TABLE = [
    (Status.kOptimal, "lp", 5.0, INF, 0.0, "optimal", True),
    (Status.kOptimal, "mip", 5.0, 0.0, 0.0, "optimal", True),
    (Status.kOptimal, "mip", 5.0, 1e-9, 0.0, "optimal", True),
    (Status.kOptimal, "mip", 5.0, 2e-9, 0.0, "feasible-gap", True),
    (Status.kOptimal, "mip", 5.0, 0.01, 0.01, "optimal", True),
    (Status.kOptimal, "mip", 5.0, 0.02, 0.01, "feasible-gap", True),
    (Status.kTimeLimit, "mip", 5.0, 0.3, 0.0, "time-limit", True),
    (Status.kTimeLimit, "mip", INF, INF, 0.0, "time-limit", False),
    (Status.kTimeLimit, "lp", 5.0, INF, 0.0, "time-limit", False),
    (Status.kIterationLimit, "mip", 5.0, 0.3, 0.0, "time-limit", True),
    (Status.kIterationLimit, "mip", INF, INF, 0.0, "time-limit", False),
    (Status.kIterationLimit, "lp", 5.0, INF, 0.0, "time-limit", False),
    (Status.kInfeasible, "lp", 5.0, INF, 0.0, "infeasible", False),
    (Status.kInfeasible, "mip", 5.0, 0.0, 0.0, "infeasible", False),
    (Status.kUnbounded, "lp", 5.0, INF, 0.0, "unbounded", False),
    (Status.kUnbounded, "mip", 5.0, 0.0, 0.0, "unbounded", False),
]


@pytest.mark.parametrize("highs_status, kind, objective, gap, mip_gap, expected, kept",
                         STATUS_TABLE)
def test_highs_status_table(monkeypatch, highs_status, kind, objective, gap, mip_gap,
                            expected, kept):
    p = simple_lp()[0] if kind == "lp" else fixed_charge()[0]
    _fake_highs(monkeypatch, highs_status, objective, gap)
    res = solve(p, SolveOptions(mip_gap=mip_gap))
    assert (res.status, res.path) == (expected, "lp" if kind == "lp" else "highs")
    if kept:
        assert res.objective == objective and np.array_equal(res.primal, np.ones(2))
        assert res.achieved_gap == (gap if kind == "mip" else 0.0)
    else:
        assert res.primal is None and math.isnan(res.objective) and res.achieved_gap == 0.0


FAILED_STATUSES = [s for s in Status.__members__.values()
                   if s not in {row[0] for row in STATUS_TABLE}]


@pytest.mark.parametrize("highs_status", FAILED_STATUSES, ids=lambda s: s.name)
def test_every_other_highs_status_is_an_error(monkeypatch, highs_status):
    for p in (simple_lp()[0], fixed_charge()[0]):
        _fake_highs(monkeypatch, highs_status, 5.0, 0.0)
        with pytest.raises(MilpError, match=f"HiGHS failed: .*{highs_status.name}"):
            solve(p)


def _highs_args(**changes):
    # min x + y  s.t.  x + y >= 1, 0 <= x, y <= 1: optimum 1. A is given row-wise.
    return {"lower": np.zeros(2), "upper": np.ones(2), "row_lower": np.array([1.0]),
            "row_upper": np.array([INF]), "indptr": np.array([0, 2], dtype=np.int32),
            "indices": np.array([0, 1], dtype=np.int32), "data": np.ones(2),
            "integrality": np.zeros(2, dtype=np.int32), "mip_gap": 0.0, "time_limit": 10.0,
            **changes}


def test_a_model_highs_refuses_raises():
    res = milp.milp(np.ones(2), **_highs_args())
    assert (res.status, res.objective, res.mip_node_count) == (Status.kOptimal, 1.0, 0)
    # Refused, HiGHS would still "solve" the empty model: status kModelEmpty, objective 0.
    with pytest.raises(MilpError, match=r"HiGHS refused the model \(2 columns, 1 rows\)"):
        milp.milp(np.ones(2), **_highs_args(integrality=np.zeros(1, dtype=np.int32)))
    with pytest.raises(MilpError, match="HiGHS refused option time_limit=-1.0"):
        milp.milp(np.ones(2), **_highs_args(time_limit=-1.0))


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


_COEFS = st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False))


def _random_blocks(data):
    """A problem of row blocks with rows out of position order, terms out of
    column order, empty rows, explicit zeros and variables added between
    blocks, and its ``A`` built by scipy."""
    p = MilpProblem()
    rows, cols, vals = [], [], []
    for _ in range(data.draw(st.integers(1, 4), label="blocks")):
        binary = np.array(data.draw(st.lists(st.booleans(), max_size=4)), dtype=bool)
        p.add_variables(binary.size, np.where(binary, 0.0, -INF), np.where(binary, 1.0, INF),
                        binary, names=lambda: [])
        if p.n_variables == 0:
            continue
        n = data.draw(st.integers(0, 5), label="rows")
        positions = data.draw(st.permutations(range(n)))
        families = []
        for k in positions:
            ids = data.draw(st.lists(st.integers(0, p.n_variables - 1), unique=True,
                                     max_size=p.n_variables))
            coefs = data.draw(st.lists(_COEFS, min_size=len(ids), max_size=len(ids)))
            sense = data.draw(st.sampled_from([LE, EQ, GE]))
            families.append((f"f{k}", [k], list(zip(ids, coefs)), sense,
                             data.draw(st.floats(-10, 10))))
            rows += [p.n_constraints + k] * len(ids)
            cols += ids
            vals += coefs
        p.add_constraints(families, names=lambda: [f"r{i}" for i in range(n)])
    return p, sp.csr_matrix((np.array(vals, dtype=float), (rows, cols)),
                            shape=(p.n_constraints, p.n_variables))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_csr_arrays_are_scipys_canonical_layout(data):
    p, want = _random_blocks(data)
    indptr, indices, values, lb, ub = p.constraint_matrix()
    for got, ref in ((indptr, want.indptr), (indices, want.indices), (values, want.data)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    x = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=p.n_variables,
                                    max_size=p.n_variables)))
    lhs = want @ x
    residuals, _ = p.evaluate(x)
    assert residuals.tobytes() == np.maximum(np.maximum(lb - lhs, lhs - ub), 0.0).tobytes()


class _Captured(Exception):
    pass


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_highs_receives_the_free_columns_of_the_stored_csr(data):
    # Some columns fixed through lower == upper (a binary at 0 or 1): HiGHS
    # reads A[:, free] row-wise as scipy slices it, explicit zeros and entry
    # order included, and the row bounds less the fixed columns' part.
    p, want = _random_blocks(data)
    n = p.n_variables
    fixed = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    value = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    value = np.where(p.integrality == 1, value > 0, value)
    p.lower[fixed] = p.upper[fixed] = value[fixed]
    free = ~fixed
    assume(free.any())
    seen = {}

    def capture(c, **kwargs):
        seen.update(kwargs, c=c)
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(milp, "milp", capture)
        with pytest.raises(_Captured):
            solve(p)
    ref = want[:, free]
    for key, array in (("indptr", ref.indptr), ("indices", ref.indices), ("data", ref.data)):
        assert seen[key].dtype == array.dtype and np.array_equal(seen[key], array), key
    shift = want @ np.where(free, 0.0, p.lower)
    assert seen["row_lower"].tobytes() == (p.lb - shift).tobytes()
    assert seen["row_upper"].tobytes() == (p.ub - shift).tobytes()
    assert seen["c"].size == np.count_nonzero(free)


def test_rows_sum_in_column_order():
    # 1 + 1e16 - 1e16 is 0 summed in column order, 1 in the order given.
    p = MilpProblem()
    p.add_variables(3, -INF, INF, names=["a", "b", "c"])
    p.add_constraint([(2, 1.0), (1, 1.0), (0, 1.0)], EQ, 0.0)
    x = np.array([1.0, 1e16, -1e16])
    assert p.evaluate(x)[0].tolist() == [0.0]
    assert (p._matvec(x) == constraint_csr(p) @ x).all()


def test_matvec_is_the_indexed_gather_byte_for_byte(highuse_scenario):
    # take() reads the same entries as x[indices], whose int32 ids numpy
    # first casts to intp: the weights, and so every row sum, are the same bytes.
    p, _ = build_integrated(highuse_scenario)
    rng = np.random.default_rng(3)
    for x in (rng.normal(size=p.n_variables), rng.normal(size=p.n_variables) * 1e12,
              np.where(rng.random(p.n_variables) < 0.5, 0.0, -1.0) + 0.0):
        gather = np.bincount(milp._entry_rows(p.indptr), weights=p.data * x[p.indices],
                             minlength=p.n_constraints)
        assert p._matvec(x).tobytes() == gather.tobytes()


def test_highs_loader_names_the_directory_it_searched(monkeypatch, tmp_path):
    assert milp._load_highs(tmp_path) is milp._highs  # a registered module is reused
    monkeypatch.delitem(sys.modules, milp._HIGHS)
    with pytest.raises(ImportError) as err:
        milp._load_highs(tmp_path)
    assert str(tmp_path) in str(err.value) and "scipy>=1.17" in str(err.value)
    assert milp._HIGHS not in sys.modules


def test_scipy_version_is_read_without_the_scipy_package(tmp_path):
    assert milp.SCIPY_VERSION == scipy.__version__
    (tmp_path / "version.py").write_text('version = "9.8.7"\n')
    assert milp._load_version(tmp_path) == "9.8.7"
    assert sys.modules["scipy.version"].version == scipy.__version__  # not replaced
    with pytest.raises(ImportError) as err:
        milp._load_version(tmp_path / "missing")
    assert str(tmp_path / "missing" / "version.py") in str(err.value)


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
    for lower, upper in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(MilpError, match="NaN"):
            p.add_variable("x", lower, upper)
    for lower, upper in ((INF, INF), (-INF, -INF)):
        with pytest.raises(MilpError, match="no finite value"):
            p.add_variable("x", lower, upper)
    with pytest.raises(MilpError, match="binary"):
        p.add_variable("b", 0.0, 2.0, binary=True)


def test_dbio_solver_variable_selects_nothing(monkeypatch):
    # The variable once switched every solve to the enumeration path, which
    # refused more than 20 binaries.
    monkeypatch.setenv("DBIO_SOLVER", "enum")
    p = MilpProblem()
    vs = p.add_variables(21, 0, 1, binary=True, names=[f"b{i}" for i in range(21)])
    p.add_constraint([(v, 1.0) for v in vs], GE, 2.0)
    p.set_objective([(vs, np.arange(1.0, 22.0))])
    res = solve(p)
    assert (res.status, res.path) == ("optimal", "highs")
    assert res.objective == pytest.approx(3.0)


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
