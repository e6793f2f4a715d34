"""Abstract mixed-integer linear program representation and its HiGHS solve.

The planning model builds a :class:`MilpProblem`; :func:`solve` runs HiGHS
once on its free columns (``lower < upper``). A fixed column's value moves
into the row bounds and the objective constant, the first reduction of LP
presolve, so HiGHS never pays for it; the primal is returned full-length. A
problem without free binaries is solved as an LP (path ``lp``), one with them
by branch-and-bound (path ``highs``).

An LP solve can start from a simplex basis: two int8 arrays of HiGHS basis
statuses (``HighsBasisStatus`` values), one per column and one per row.
:func:`solve` takes and returns it full-length, with fixed columns at
``LOWER``, and hands HiGHS the free columns' part. One whose count of basic
variables is not the row count is set as an *alien* basis, which HiGHS
repairs at the cost of a factorization; any other is set as it is. With a
basis set, HiGHS skips presolve and starts the dual simplex from it; a run
of related LPs (the day blocks of a validation year, the first from a cold
solve of its first two days; its years; a sizing search's probe plans) then
takes a fraction of the iterations of cold starts. Only the arrays are held,
never a HiGHS instance: each call makes its own. HiGHS's run clock adds up
over the runs of one instance and no binding call resets it, ``clear()``
included, so an instance reused for 300 calls of a small LP at
``time_limit=0.02`` ended about 260 of them ``time-limit``, each well under
the limit. Every result reports how far HiGHS's values leave their bounds
(``off_bound``), so a caller can tell a warm run that stopped just past a
bound, which HiGHS's feasibility tolerance allows, from a cold one that
pivoted onto it (``planning._Solves`` solves such a model again cold).

A block of constraint rows is assembled in two parts: its :class:`RowLayout`,
the sparsity and the places its values land, which depends on no value and
is checked once, and the values themselves. A caller that builds models of
one structure again and again (the planning model) keeps the layout and
hands it back, so a later build only writes and checks values.

HiGHS is called through the binding scipy vendors
(``scipy.optimize._highspy._core``, private to scipy), not through
``scipy.optimize.milp``. On every call that wrapper copies the arrays into a
``HighsLp`` that HiGHS copies again, creates one Python object per column for
the integrality, builds its options manager five times and, after the solve,
walks every column in Python for bound marginals dbio never reads. The binding
takes the matrix in one ``passModel`` call in the format the problem stores,
CSR, passed row-wise with the fixed columns' entries filtered out; HiGHS
transposes it into its own column form. The extension is loaded from scipy's
directory on its own (:func:`_load_highs`): importing ``scipy.optimize`` for
it would also import ``scipy.sparse``, ``scipy.linalg`` and ``numpy.f2py``,
about three quarters of a CLI run's import time, and dbio holds its matrix as
plain numpy CSR arrays. scipy's version (:data:`SCIPY_VERSION`) is read from
its ``version.py`` the same way, so no ``scipy`` package is imported at all;
even the bare package costs about 1.3 MB resident. :func:`highs_version`
names the loaded HiGHS build.

An optional export to the industry-standard LP text format is provided for
debugging.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import DbioError

_HIGHS = "scipy.optimize._highspy._core"


def _load_highs(directory):
    """The HiGHS extension ``scipy.optimize._highspy._core`` found in ``directory``.

    Only the compiled module is loaded, none of the ``scipy.optimize``
    packages around it. It is registered in ``sys.modules`` under its own
    name, so a later ``import scipy.optimize`` reuses it (pybind11 cannot load
    a module twice), and a module already registered there is reused here.
    """
    if _HIGHS in sys.modules:
        return sys.modules[_HIGHS]
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS, [str(directory)])
    if spec is None:
        raise ImportError(f"no HiGHS extension {_HIGHS} in {directory}; dbio needs "
                          "scipy>=1.17", name=_HIGHS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS]
        raise
    return module


def _load_version(directory):
    """``version`` from the ``version.py`` of the scipy in ``directory``.

    Only that file runs, not the ``scipy`` package, and it is not registered
    in ``sys.modules``.
    """
    path = os.path.join(directory, "version.py")
    if not os.path.isfile(path):
        raise ImportError(f"no scipy version file {path}", name="scipy.version", path=path)
    spec = importlib.util.spec_from_file_location("scipy.version", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.version


_scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
_highs = _load_highs(os.path.join(_scipy_dir, "optimize", "_highspy"))
SCIPY_VERSION = _load_version(_scipy_dir)  # scipy.__version__, without importing scipy

INF = math.inf

LE, EQ, GE = "<=", "=", ">="
_SENSES = (LE, EQ, GE)
_MAX_ENTRIES = np.iinfo(np.int32).max  # HiGHS's index width


class MilpError(DbioError, RuntimeError):
    pass


@dataclass(frozen=True)
class SolveOptions:
    """Per-solve settings; a scenario's ``solver`` section."""

    mip_gap: float = 0.0
    time_limit: float = 3600.0

    def __post_init__(self):
        if not (math.isfinite(self.mip_gap) and self.mip_gap >= 0):
            raise MilpError(f"mip_gap must be finite and >= 0, got {self.mip_gap!r}")
        if not (math.isfinite(self.time_limit) and self.time_limit > 0):
            raise MilpError(f"time_limit must be finite and > 0, got {self.time_limit!r}")


OPTIMAL = "optimal"
FEASIBLE_GAP = "feasible-gap"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIME_LIMIT = "time-limit"


@dataclass
class SolveResult:
    status: str
    objective: float
    primal: np.ndarray | None
    achieved_gap: float = 0.0
    runtime: float = 0.0  # seconds, every solver call of the solve together
    path: str = "highs"  # what produced the answer: lp, highs (B&B) or days (day blocks)
    iterations: int = 0  # simplex iterations, every solver call of the solve together
    # How far the values leave a column or row bound (HiGHS's
    # max_primal_infeasibility); 0.0 when HiGHS did not run.
    off_bound: float = 0.0
    # (column statuses, row statuses) of an LP's final basis, int8, full-length;
    # None for a MIP, a problem that never reached HiGHS, or no basis from HiGHS.
    basis: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def has_solution(self):
        return self.status in (OPTIMAL, FEASIBLE_GAP)


def _names(blocks):
    """Names of a list of blocks, each a list of names or a function returning one."""
    return [name for block in blocks for name in (block() if callable(block) else block)]


def _vector(a, n, dtype):
    """``a`` as a ``dtype`` array of shape ``(n,)``, broadcast if it is not one."""
    a = np.asarray(a, dtype=dtype)
    return a if a.shape == (n,) else np.broadcast_to(a, (n,))


def _fill(families, part):
    """Every family's terms over its rows, family by family and term by term:
    part 0 gives the variable ids (int64), part 1 the coefficients."""
    sizes = [len(terms) * np.size(rows) for _, rows, terms, _, _ in families]
    out = np.empty(sum(sizes), dtype=np.int64 if part == 0 else float)
    start = 0
    for (_, rows, terms, _, _), size in zip(families, sizes):
        view = out[start:start + size].reshape((len(terms),) + np.shape(rows))
        for j, term in enumerate(terms):
            view[j] = term[part]
        start += size
    return out


def _rhs(families):
    """Every family's right-hand sides over its rows, family by family."""
    sizes = [np.size(rows) for _, rows, _, _, _ in families]
    out = np.empty(sum(sizes))
    start = 0
    for (_, rows, _, _, rhs), size in zip(families, sizes):
        out[start:start + size].reshape(np.shape(rows))[...] = rhs
        start += size
    return out


def _locate(families, i, by_term):
    """(family, term, position in its raveled rows) of entry ``i`` of
    :func:`_fill` (``by_term``) or of :func:`_rhs`."""
    for f, (_, rows, terms, _, _) in enumerate(families):
        size = np.size(rows)
        span = size * len(terms) if by_term else size
        if i < span:
            return f, i // size, i % size
        i -= span
    raise IndexError(i)


def _entry_rows(indptr):
    """The row of each entry of the CSR matrix with ``indptr``."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int32), np.diff(indptr))


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


class RowLayout:
    """Where the values of a block of constraint families land in ``A`` and
    the row bounds: the part of :meth:`MilpProblem.add_constraints` that
    depends on no value.

    ``indptr``/``indices`` are the block's CSR structure. ``entries`` picks,
    in CSR order, the coefficients listed family by family and term by term
    over each family's rows; ``rows`` picks the right-hand sides, listed
    family by family, in row order. ``le``/``ge`` mark the rows of sense
    ``<=``/``>=``, and ``columns`` is one past the largest variable id. The
    arrays are read-only, so every model assembled from a held layout shares
    them.
    """

    __slots__ = ("indptr", "indices", "entries", "rows", "le", "ge", "columns")

    def __init__(self, indptr, indices, entries, rows, le, ge, columns):
        self.indptr, self.indices, self.entries, self.rows, self.le, self.ge = _read_only(
            indptr, indices, entries, rows, le, ge)
        self.columns = columns

    @classmethod
    def of(cls, families, n_vars, names) -> RowLayout:
        """The layout of ``families`` (see :meth:`MilpProblem.add_constraints`)
        over ``n_vars`` variables, after the checks of their structure: known
        senses and variable ids, no variable twice in a row, every position
        of the block given by exactly one family. Each check runs over the
        whole block; a duplicate id is an adjacent equal (row, column) pair
        in the CSR order, so the one sort is the one that order needs."""
        for family, _, _, sense, _ in families:
            if sense not in _SENSES:
                raise MilpError(f"constraints {family}: unknown sense {sense!r}")
        cols = _fill(families, 0)
        positions = [np.ravel(np.asarray(rows, dtype=np.int64)) for _, rows, _, _, _ in families]
        entry_rows = np.concatenate([np.tile(rows, len(terms)) for rows, (_, _, terms, _, _)
                                     in zip(positions, families)])
        positions = np.concatenate(positions)
        n = positions.size

        def fail(i, by_term, what):  # entry i of cols (by_term) or of positions
            family = families[_locate(families, int(i), by_term)[0]][0]
            row = (entry_rows if by_term else positions)[i]
            raise MilpError(f"constraints {family}, row "
                            f"{_names([names])[row] if 0 <= row < n else row}: {what}")

        outside = (positions < 0) | (positions >= n)
        if outside.any():
            fail(np.argmax(outside), False, f"position outside block of {n}")
        cover = np.bincount(positions, minlength=n)
        if np.any(cover != 1):
            raise MilpError(f"constraint block: row {_names([names])[np.argmax(cover != 1)]} "
                            "is not given by exactly one family")
        entries = np.lexsort((cols, entry_rows))  # row-major, columns sorted within a row
        indices, in_row = cols[entries], entry_rows[entries]
        twice = (indices[1:] == indices[:-1]) & (in_row[1:] == in_row[:-1])
        if twice.any():
            fail(entries[np.argmax(twice) + 1], True, "duplicate variable ids")
        unknown = (cols < 0) | (cols >= n_vars)
        if unknown.any():
            fail(np.argmax(unknown), True, f"unknown variable id {cols[np.argmax(unknown)]}")
        indptr = np.zeros(n + 1, dtype=np.int32)
        indptr[1:] = np.cumsum(np.bincount(entry_rows, minlength=n))
        # positions is a permutation (the cover check above), so its inverse
        # is one scatter: no argsort kernel.
        rows = np.empty_like(positions)
        rows[positions] = np.arange(n)
        senses = np.repeat([sense for _, _, _, sense, _ in families],
                           [np.size(r) for _, r, _, _, _ in families])[rows]
        return cls(indptr, indices.astype(np.int32), entries, rows, senses == LE,
                   senses == GE, int(cols.max(initial=-1)) + 1)


class MilpProblem:
    """Sparse minimize-only MILP held as arrays.

    Per variable: objective ``c``, bounds ``lower``/``upper`` and
    ``integrality`` (1 = binary). Per row: row bounds ``lb <= A @ x <= ub``,
    with ``A`` held as the CSR arrays ``indptr``, ``indices`` (int32, HiGHS's
    index width) and ``data`` in scipy's canonical layout: column ids sorted
    within each row, explicit zeros kept. Variables and rows are appended in
    blocks (:meth:`add_variables`, :meth:`add_constraints`), each checked with
    one vectorized pass; :meth:`add_variable` and :meth:`add_constraint` are
    one-element blocks. While ``A`` is one block, ``indptr`` and ``indices``
    are its :class:`RowLayout`'s read-only arrays, which every model built
    from one held layout shares. A block's names may be given as a function
    that is only called for LP export and error messages. Blocks may be
    appended after a solve, as the planning model does with its
    charge/discharge exclusion; each solve reads the problem as it is at the
    call.
    """

    def __init__(self, name="problem"):
        self.name = name
        self.c = np.zeros(0)
        self.lower = np.zeros(0)
        self.upper = np.zeros(0)
        self.integrality = np.zeros(0, dtype=int)
        self.indptr = np.zeros(1, dtype=np.int32)
        self.indices = np.zeros(0, dtype=np.int32)
        self.data = np.zeros(0)
        self.lb = np.zeros(0)
        self.ub = np.zeros(0)
        self.objective_constant = 0.0
        self._var_names: list = []  # one entry per block, see _names
        self._row_names: list = []

    # -- variables ---------------------------------------------------------

    def add_variables(self, n, lower=0.0, upper=INF, binary=False, *, names,
                      family="variables", cost=0.0) -> np.ndarray:
        """Append ``n`` variables and return their ids.

        ``lower``, ``upper``, ``binary`` and ``cost``, each new variable's
        objective coefficient, broadcast to ``(n,)``; ``names`` is a list of
        ``n`` names or a function returning one.
        """
        lower, upper, cost = (_vector(a, n, float) for a in (lower, upper, cost))
        binary = _vector(binary, n, bool)
        for bad, what in ((~(lower <= upper), "lower > upper or a bound is NaN"),
                          ((lower == INF) | (upper == -INF), "no finite value"),
                          (binary & ~((lower >= 0) & (upper <= 1)),
                           "binary variable bounds must be within [0, 1]")):
            if bad.any():
                i = np.argmax(bad)
                raise MilpError(f"variables {family}: {_names([names])[i]} has bounds "
                                f"[{lower[i]}, {upper[i]}]: {what}")
        first = self.n_variables
        self._var_names.append(names)
        self.c, self.lower, self.upper, self.integrality = (
            np.concatenate([old, new]) for old, new in (
                (self.c, cost), (self.lower, lower), (self.upper, upper),
                (self.integrality, binary.astype(int))))
        return np.arange(first, first + n)

    def add_variable(self, name, lower=0.0, upper=INF, binary=False) -> int:
        return int(self.add_variables(1, lower, upper, binary, names=[name],
                                      family=name)[0])

    @property
    def n_variables(self):
        return len(self.lower)

    @property
    def n_constraints(self):
        return len(self.lb)

    @property
    def binary_indices(self):
        return np.flatnonzero(self.integrality)

    # -- constraints and objective -----------------------------------------

    def add_constraints(self, families, *, names, layout: RowLayout | None = None) -> np.ndarray:
        """Append the rows of one or more constraint families; return their ids.

        Each family is ``(family, rows, terms, sense, rhs)``: the new row at
        position ``rows[k]`` reads ``sum(coef * var) sense rhs[k]`` over
        ``terms = [(var_ids, coefs), ...]``. ``var_ids``, ``coefs`` and
        ``rhs`` broadcast against ``rows``. Together the families fill
        positions ``0 .. n-1`` of the block once each; no family appends no
        row. ``names`` is a list of the block's row names or a function
        returning one.

        ``layout``, the :class:`RowLayout` of families of this structure,
        which the caller holds, skips the checks and the sort that depend on
        no value; the coefficients and right-hand sides are still checked.
        Without it the block's layout is made here and not kept.
        """
        first = self.n_constraints
        if not families:
            return np.arange(first, first)
        if layout is None:
            layout = RowLayout.of(families, self.n_variables, names)
        coefs, rhs = _fill(families, 1), _rhs(families)
        if (coefs.size, rhs.size) != (layout.entries.size, layout.rows.size) or (
                layout.columns > self.n_variables):
            raise MilpError(f"constraint block of {rhs.size} rows and {coefs.size} entries "
                            f"does not match its layout")
        for values, by_term in ((coefs, True), (rhs, False)):
            finite = np.isfinite(values)
            if not finite.all():
                f, j, k = _locate(families, int(np.argmin(finite)), by_term)
                family, rows, terms, _, _ = families[f]
                what = "non-finite rhs"
                if by_term:
                    var = np.broadcast_to(terms[j][0], np.shape(rows)).ravel()[k]
                    what = f"non-finite coefficient on {_names(self._var_names)[var]}"
                raise MilpError(f"constraints {family}, row {_names([names])[np.ravel(rows)[k]]}: "
                                f"{what}")
        if self.data.size + coefs.size > _MAX_ENTRIES:
            raise MilpError("constraint matrix: more entries than a 32-bit index holds")
        rhs, data = rhs[layout.rows], coefs[layout.entries]
        lb, ub = np.where(layout.le, -INF, rhs), np.where(layout.ge, INF, rhs)
        if first == 0:  # the block is the matrix: share the layout's read-only structure
            self.indptr, self.indices, self.data, self.lb, self.ub = (
                layout.indptr, layout.indices, data, lb, ub)
        else:
            self.indptr = np.concatenate([self.indptr, self.data.size + layout.indptr[1:]])
            self.indices = np.concatenate([self.indices, layout.indices])
            self.data = np.concatenate([self.data, data])
            self.lb = np.concatenate([self.lb, lb])
            self.ub = np.concatenate([self.ub, ub])
        self._row_names.append(names)
        return np.arange(first, first + rhs.size)

    def add_constraint(self, terms, sense, rhs, name=None) -> int:
        """Add ``sum(coef * var) sense rhs``; ``terms`` is [(var_index, coef)]."""
        name = name or f"c{self.n_constraints}"
        return int(self.add_constraints([(name, [0], terms, sense, rhs)], names=[name])[0])

    def set_objective(self, terms, constant=0.0):
        """Minimize ``sum(coef * var) + constant`` over ``terms = [(var_ids, coefs)]``.

        Ids and coefficients of a term broadcast together; coefficients of a
        repeated id add up.
        """
        pairs = [np.broadcast_arrays(np.asarray(i, dtype=np.int64), np.asarray(v, dtype=float))
                 for i, v in terms]
        cols = np.concatenate([i.ravel() for i, _ in pairs] + [np.zeros(0, dtype=np.int64)])
        bad = (cols < 0) | (cols >= self.n_variables)
        if bad.any():
            raise MilpError(f"objective: unknown variable id {cols[bad][0]}")
        self.c = np.zeros(self.n_variables)
        np.add.at(self.c, cols, np.concatenate([v.ravel() for _, v in pairs] + [np.zeros(0)]))
        self.objective_constant = float(constant)

    def constraint_matrix(self):
        """(indptr, indices, data, lb, ub): the CSR arrays of ``A`` and the row bounds."""
        return self.indptr, self.indices, self.data, self.lb, self.ub

    def _matvec(self, x):
        """``A @ x``, each row summed in entry order as scipy's CSR product does."""
        return np.bincount(_entry_rows(self.indptr), weights=self.data * x.take(self.indices),
                           minlength=self.n_constraints)

    # -- evaluation and export ---------------------------------------------

    def evaluate(self, primal):
        """Per-constraint residuals and objective at a full assignment.

        Equality residual is |lhs - rhs|; inequality residual is the
        violation magnitude (0 when satisfied).
        """
        primal = np.asarray(primal, dtype=float)
        if primal.shape != (self.n_variables,):
            raise MilpError(
                f"assignment covers {primal.size} variables, expected {self.n_variables}")
        lhs = self._matvec(primal)
        residuals = np.maximum(np.maximum(self.lb - lhs, lhs - self.ub), 0.0)
        return residuals, float((self.c * primal).sum()) + self.objective_constant

    def to_lp_string(self) -> str:
        """Render in CPLEX LP text format; each row's terms in column order."""

        def term(c, name, first):
            mag = f"{abs(c):.17g}" + (f" {name}" if name else "")
            if first:
                return ("- " if c < 0 else "") + mag
            return ("- " if c < 0 else "+ ") + mag

        var = _names(self._var_names)
        lines = [f"\\ {self.name}", "Minimize", " obj:"]
        parts = [term(self.c[i], var[i], k == 0)
                 for k, i in enumerate(np.flatnonzero(self.c))]
        if self.objective_constant:
            parts.append(term(self.objective_constant, "", not parts).rstrip())
        lines[-1] += " " + (" ".join(parts) if parts else "0")
        lines.append("Subject To")
        indptr, indices, data = self.indptr, self.indices, self.data
        for r, name in enumerate(_names(self._row_names)):
            body = [term(data[e], var[indices[e]], e == indptr[r])
                    for e in range(indptr[r], indptr[r + 1])]
            lo, hi = self.lb[r], self.ub[r]
            op, rhs = (EQ, lo) if lo == hi else (LE, hi) if lo == -INF else (GE, lo)
            lines.append(f" {name}: {' '.join(body) or '0'} {op} {rhs:.17g}")
        lines.append("Bounds")
        for name, lo, hi in zip(var, self.lower, self.upper):
            lo_s = "-inf" if lo == -INF else f"{lo:.17g}"
            hi_s = "+inf" if hi == INF else f"{hi:.17g}"
            lines.append(f" {lo_s} <= {name} <= {hi_s}")
        bins = [var[i] for i in self.binary_indices]
        if bins:
            lines.append("Binaries")
            for i in range(0, len(bins), 8):
                lines.append(" " + " ".join(bins[i:i + 8]))
        lines.append("End")
        return "\n".join(lines) + "\n"

    def write_lp(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_lp_string())


# -- solving -----------------------------------------------------------------


_Model = _highs.HighsModelStatus

# HiGHS model status -> dbio status; any other status is a failure.
_STATUSES = {_Model.kOptimal: OPTIMAL, _Model.kTimeLimit: TIME_LIMIT,
             _Model.kIterationLimit: TIME_LIMIT, _Model.kInfeasible: INFEASIBLE,
             _Model.kUnbounded: UNBOUNDED}


# HiGHS basis statuses, indexed by the int8 value a basis holds.
_BASIS_STATUSES = np.array(sorted(_highs.HighsBasisStatus.__members__.values(), key=int),
                           dtype=object)
LOWER, BASIC, UPPER = (int(_highs.HighsBasisStatus.__members__[k])
                       for k in ("kLower", "kBasic", "kUpper"))


@dataclass(frozen=True)
class HighsResult:
    """What dbio reads back from one HiGHS run."""

    status: _Model
    objective: float  # HiGHS's objective value, without a constant
    x: np.ndarray  # the column values; empty when HiGHS holds none
    mip_gap: float  # HiGHS reports inf for an LP
    mip_node_count: int  # branch-and-bound nodes, 0 for an LP
    iterations: int = 0  # simplex iterations
    off_bound: float = 0.0  # max_primal_infeasibility: how far values leave a bound
    basis: tuple | None = None  # (column, row) statuses of an LP's final basis, int8


def highs_version() -> str:
    """The loaded HiGHS build, e.g. ``1.12.0 (4f96ee8)``: version and git hash."""
    highs = _highs._Highs()
    return f"{highs.version()} ({highs.githash()})"


def _check(status, what):
    if status == _highs.HighsStatus.kError:
        raise MilpError(f"HiGHS refused {what}")


def milp(c, *, lower, upper, row_lower, row_upper, indptr, indices, data, integrality,
         mip_gap, time_limit, basis=None) -> HighsResult:
    """Minimize ``c @ x`` subject to ``row_lower <= A @ x <= row_upper`` and
    ``lower <= x <= upper`` in one run of a HiGHS instance of its own, whose
    run clock starts at zero, with presolve on.

    ``A`` is given row-wise (CSR ``indptr``, ``indices``, ``data``), which
    HiGHS transposes into its own column form;
    ``integrality`` is 1 for an integer column and all zeros for an LP.
    ``basis``, (column statuses, row statuses) as int8 arrays, is set before
    the run; one whose count of basic variables is not the row count is set
    as an alien basis, which HiGHS repairs. An LP's final basis is returned
    in the same form. A call HiGHS refuses (an option, the model or the
    basis) raises :class:`MilpError`.
    """
    highs = _highs._Highs()
    for name, value in (("log_to_console", False), ("mip_rel_gap", float(mip_gap)),
                        ("time_limit", float(time_limit))):
        _check(highs.setOptionValue(name, value), f"option {name}={value!r}")
    _check(highs.passModel(c.size, row_lower.size, data.size,
                           int(_highs.MatrixFormat.kRowwise), int(_highs.ObjSense.kMinimize),
                           0.0, c, lower, upper, row_lower, row_upper, indptr, indices, data,
                           integrality.astype(np.int32)),
           f"the model ({c.size} columns, {row_lower.size} rows)")
    if basis is not None:
        start = _highs.HighsBasis()
        start.col_status, start.row_status = (_BASIS_STATUSES[part].tolist() for part in basis)
        start.alien = np.count_nonzero(basis[0] == BASIC) + np.count_nonzero(
            basis[1] == BASIC) != basis[1].size
        _check(highs.setBasis(start),
               f"the basis ({basis[0].size} columns, {basis[1].size} rows)")
    _check(highs.run(), "to run the model")
    info = highs.getInfo()
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    final = None
    if not integrality.any():
        final = _final_basis(highs, (x, lower, upper),
                             (np.array(solution.row_value), row_lower, row_upper))
    return HighsResult(status=highs.getModelStatus(), objective=info.objective_function_value,
                       x=x, mip_gap=info.mip_gap, mip_node_count=max(info.mip_node_count, 0),
                       iterations=max(info.simplex_iteration_count, 0),
                       off_bound=max(info.max_primal_infeasibility, 0.0), basis=final)


def _final_basis(highs, cols, rows):
    """The basis ``highs`` ended its LP with, as int8 statuses; None when it holds none.

    ``cols`` and ``rows`` are each (values, lower bounds, upper bounds). The
    basic set is read with ``getBasicVariables``, one int array; ``getBasis``
    builds a Python object per status, about 3 ms of a 3.4k-column day block
    where this takes 0.7 ms (2-core host). A nonbasic entry is at the bound
    its value is nearer to, and an equality row at ``LOWER``: its slack is
    fixed, so the side does not matter to the simplex.
    """
    status, basic = highs.getBasicVariables()
    if status == _highs.HighsStatus.kError:
        return None
    cols, rows = (np.where(np.abs(hi - v) < np.abs(v - lo), np.int8(UPPER), np.int8(LOWER))
                  for v, lo, hi in (cols, rows))
    cols[basic[basic >= 0]] = BASIC
    rows[-1 - basic[basic < 0]] = BASIC
    return cols, rows


def _free_columns(problem, free):
    """The CSR arrays (indptr, indices, data) HiGHS reads: ``A``'s entries in
    the free columns, in their stored order, the columns renumbered.

    A function of its own so that its temporaries, each as long as ``A``'s
    entries, are freed before HiGHS runs.
    """
    indptr, indices, data, _, _ = problem.constraint_matrix()
    kept = free.take(indices)  # take: a third of the time of free[indices] on int32 ids
    count = np.zeros(kept.size + 1, dtype=np.int32)  # kept entries before each entry
    np.cumsum(kept, dtype=np.int32, out=count[1:])
    renumber = np.cumsum(free, dtype=np.int32) - 1
    return count.take(indptr), renumber.take(indices[kept]), data[kept]


def solve(problem: MilpProblem, opts: SolveOptions | None = None, basis=None) -> SolveResult:
    """One HiGHS call on the free columns: the LP when none is binary, else B&B.

    A column with ``lower == upper`` is fixed. Its value moves into the row
    bounds and the objective constant, so HiGHS receives only the columns
    with ``lower < upper``; the primal comes back full-length. A problem with
    no free column, or with a fixed binary off 0/1, never reaches HiGHS: its
    fixed point is ``optimal`` when every residual is at most 1e-7, else
    ``infeasible``. An LP stopped at a limit keeps no primal; a MIP keeps its
    incumbent, if it has one. Non-optimal statuses are reported in the
    result, never silently dropped; a HiGHS status outside that set raises
    :class:`MilpError`.

    ``basis``, full-length (column statuses, row statuses), starts HiGHS
    from its free columns' part. An LP's final basis is returned full-length
    on the result, with fixed columns at ``LOWER``.
    """
    opts = opts or SolveOptions()
    if basis is not None and (basis[0].shape, basis[1].shape) != (
            problem.lower.shape, problem.lb.shape):
        raise MilpError(f"basis covers {basis[0].size} columns and {basis[1].size} rows, "
                        f"expected {problem.n_variables} and {problem.n_constraints}")
    free = problem.lower < problem.upper
    x = np.where(free, 0.0, problem.lower)  # the fixed columns at their value
    integrality = problem.integrality[free]
    path = "highs" if integrality.any() else "lp"
    off_binary = problem.integrality.any() and np.any(  # a binary fixed in (0, 1)
        (problem.integrality == 1) & (0 < x) & (x < 1))
    if off_binary or not free.any():
        residuals, objective = problem.evaluate(x)
        if off_binary or residuals.max(initial=0.0) > 1e-7:
            return SolveResult(status=INFEASIBLE, objective=math.nan, primal=None, path=path)
        return SolveResult(status=OPTIMAL, objective=objective, primal=x, path=path)
    shift = problem._matvec(x)
    constant = problem.objective_constant + float((problem.c * x).sum())
    indptr, indices, data = _free_columns(problem, free)
    t0 = time.perf_counter()
    res = milp(problem.c[free], lower=problem.lower[free], upper=problem.upper[free],
               row_lower=problem.lb - shift, row_upper=problem.ub - shift, indptr=indptr,
               indices=indices, data=data, integrality=integrality, mip_gap=opts.mip_gap,
               time_limit=opts.time_limit,
               basis=None if basis is None else (basis[0][free], basis[1]))
    runtime = time.perf_counter() - t0
    status = _STATUSES.get(res.status)
    if status is None:
        raise MilpError(f"HiGHS failed: model status {res.status.name}")
    mip = path == "highs"
    kept = status == OPTIMAL or (status == TIME_LIMIT and mip and math.isfinite(res.objective))
    gap = float(res.mip_gap) if mip and kept else 0.0
    if status == OPTIMAL and gap > max(opts.mip_gap, 1e-9):
        status = FEASIBLE_GAP
    primal, objective, final = None, math.nan, None
    if kept:
        primal = x
        primal[free] = res.x
        objective = float(res.objective) + constant
    if res.basis is not None:
        final = (np.full(problem.n_variables, LOWER, dtype=np.int8), res.basis[1])
        final[0][free] = res.basis[0]
    return SolveResult(status=status, objective=objective, primal=primal, achieved_gap=gap,
                       runtime=runtime, path=path, iterations=res.iterations,
                       off_bound=res.off_bound, basis=final)


def default_backend() -> str:
    # Read only by perfbench/child.py, for its environment record.
    return "highs"
