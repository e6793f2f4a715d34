"""Abstract mixed-integer linear program representation and solver backends.

The planning model builds a :class:`MilpProblem`; solving goes through a
pluggable backend chosen by the ``DBIO_SOLVER`` environment variable:

* ``highs`` (default) — one call to scipy's HiGHS on the free columns
  (``lower < upper``). A fixed column's value moves into the row bounds and
  the objective constant, the first reduction of LP presolve, so neither
  scipy nor HiGHS pays for it; the primal is returned full-length. A
  problem without free binaries is solved as an LP (path ``lp``), one with
  them by branch-and-bound (path ``highs``).
* ``enum`` — exhaustive enumeration over binary assignments (<= 20 binaries),
  each reduced to an LP. Exists so the test suite never depends on the
  solver paths it is checking.

An optional export to the industry-standard LP text format is provided for
debugging.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog, milp
from scipy.optimize import Bounds as _Bounds
from scipy.optimize import LinearConstraint as _LinCon

INF = math.inf

LE, EQ, GE = "<=", "=", ">="
_SENSES = (LE, EQ, GE)


class MilpError(RuntimeError):
    pass


class BackendUnavailableError(MilpError):
    """Requested solver backend cannot be used (missing or unsuitable)."""


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
    path: str = "highs"  # what produced the answer: lp, highs (B&B) or enum

    @property
    def has_solution(self):
        return self.status in (OPTIMAL, FEASIBLE_GAP)


def _names(blocks):
    """Names of a list of blocks, each a list of names or a function returning one."""
    return [name for block in blocks for name in (block() if callable(block) else block)]


class MilpProblem:
    """Sparse minimize-only MILP held as arrays.

    Per variable: objective ``c``, bounds ``lower``/``upper`` and
    ``integrality`` (1 = binary). Per row: the CSR matrix ``A`` and row
    bounds ``lb <= A @ x <= ub``. Variables and rows are appended in blocks
    (:meth:`add_variables`, :meth:`add_constraints`), each checked with one
    vectorized pass; :meth:`add_variable` and :meth:`add_constraint` are
    one-element blocks. A block's names may be given as a function that is
    only called for LP export and error messages. Blocks may be appended
    after a solve, as the planning model does with its charge/discharge
    exclusion; each solve reads the problem as it is at the call.
    """

    def __init__(self, name="problem"):
        self.name = name
        self.c = np.zeros(0)
        self.lower = np.zeros(0)
        self.upper = np.zeros(0)
        self.integrality = np.zeros(0, dtype=int)
        self.A = sp.csr_matrix((0, 0))
        self.lb = np.zeros(0)
        self.ub = np.zeros(0)
        self.objective_constant = 0.0
        self._var_names: list = []  # one entry per block, see _names
        self._row_names: list = []

    # -- variables ---------------------------------------------------------

    def add_variables(self, n, lower=0.0, upper=INF, binary=False, *, names,
                      family="variables") -> np.ndarray:
        """Append ``n`` variables and return their ids.

        ``lower``, ``upper`` and ``binary`` broadcast to ``(n,)``; ``names``
        is a list of ``n`` names or a function returning one.
        """
        lower = np.broadcast_to(np.asarray(lower, dtype=float), (n,))
        upper = np.broadcast_to(np.asarray(upper, dtype=float), (n,))
        binary = np.broadcast_to(np.asarray(binary, dtype=bool), (n,))
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
        self.c = np.concatenate([self.c, np.zeros(n)])
        self.lower = np.concatenate([self.lower, lower])
        self.upper = np.concatenate([self.upper, upper])
        self.integrality = np.concatenate([self.integrality, binary.astype(int)])
        self.A.resize(self.n_constraints, self.n_variables)
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

    def add_constraints(self, families, *, names) -> np.ndarray:
        """Append the rows of one or more constraint families; return their ids.

        Each family is ``(family, rows, terms, sense, rhs)``: the new row at
        position ``rows[k]`` reads ``sum(coef * var) sense rhs[k]`` over
        ``terms = [(var_ids, coefs), ...]``. ``var_ids``, ``coefs`` and
        ``rhs`` broadcast against ``rows``. Together the families fill
        positions ``0 .. n-1`` of the block once each. ``names`` is a list of
        the block's row names or a function returning one.
        """
        first, n_vars = self.n_constraints, self.n_variables
        n = sum(np.size(f[1]) for f in families)
        lb, ub = np.empty(n), np.empty(n)
        parts = []  # (rows, cols, coefs) per family, cols and coefs (k, terms)
        for family, rows, terms, sense, rhs in families:
            if sense not in _SENSES:
                raise MilpError(f"constraints {family}: unknown sense {sense!r}")
            rows = np.asarray(rows, dtype=np.int64)
            cols = np.empty(rows.shape + (len(terms),), dtype=np.int64)
            coefs = np.empty(cols.shape)
            for j, (ids, vals) in enumerate(terms):
                cols[..., j], coefs[..., j] = ids, vals
            rhs = np.broadcast_to(np.asarray(rhs, dtype=float), rows.shape).ravel()
            rows = rows.ravel()
            cols, coefs = cols.reshape(rows.size, len(terms)), coefs.reshape(rows.size, len(terms))
            for bad, what in (
                    ((rows < 0) | (rows >= n), lambda k, j: f"position outside block of {n}"),
                    (np.diff(np.sort(cols), axis=1) == 0, lambda k, j: "duplicate variable ids"),
                    ((cols < 0) | (cols >= n_vars), lambda k, j: f"unknown variable id {cols[k, j]}"),
                    (~np.isfinite(coefs), lambda k, j: "non-finite coefficient on "
                     f"{_names(self._var_names)[cols[k, j]]}"),
                    (~np.isfinite(rhs), lambda k, j: "non-finite rhs")):
                if bad.any():
                    k, j = np.argwhere(bad.reshape(rows.size, -1))[0]
                    row = _names([names])[rows[k]] if 0 <= rows[k] < n else rows[k]
                    raise MilpError(f"constraints {family}, row {row}: {what(k, j)}")
            lb[rows] = -INF if sense == LE else rhs
            ub[rows] = INF if sense == GE else rhs
            parts.append((rows, cols, coefs))

        cover = np.bincount(np.concatenate([r for r, _, _ in parts]), minlength=n)
        if np.any(cover != 1):
            raise MilpError(f"constraint block: row {_names([names])[np.argmax(cover != 1)]} "
                            "is not given by exactly one family")
        rows = np.concatenate([np.repeat(r, c.shape[1]) for r, c, _ in parts])
        cols = np.concatenate([c.ravel() for _, c, _ in parts])
        data = np.concatenate([v.ravel() for _, _, v in parts])
        block = sp.csr_matrix((data, (rows, cols)), shape=(n, n_vars))
        self.A = sp.vstack([self.A, block], format="csr")
        self.lb = np.concatenate([self.lb, lb])
        self.ub = np.concatenate([self.ub, ub])
        self._row_names.append(names)
        return np.arange(first, first + n)

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
        """(A, lb, ub) row-bound form of all constraints."""
        return self.A, self.lb, self.ub

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
        lhs = self.A @ primal
        residuals = np.maximum(np.maximum(self.lb - lhs, lhs - self.ub), 0.0)
        return residuals, float(self.c @ primal) + self.objective_constant

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
        A = self.A
        for r, name in enumerate(_names(self._row_names)):
            body = [term(A.data[e], var[A.indices[e]], e == A.indptr[r])
                    for e in range(A.indptr[r], A.indptr[r + 1])]
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


# -- backends ----------------------------------------------------------------


def _highs_solve(problem: MilpProblem, opts: SolveOptions) -> SolveResult:
    """One HiGHS call on the free columns: the LP when none is binary, else B&B.

    A column with ``lower == upper`` is fixed. Its value moves into the row
    bounds and the objective constant, so HiGHS receives only the columns
    with ``lower < upper``; the primal comes back full-length. A problem with
    no free column, or with a fixed binary off 0/1, never reaches HiGHS: its
    fixed point is ``optimal`` when every residual is at most 1e-7, else
    ``infeasible``.
    """
    A, lb, ub = problem.constraint_matrix()
    free = problem.lower < problem.upper
    x = np.where(free, 0.0, problem.lower)  # the fixed columns at their value
    integrality = problem.integrality[free]
    path = "highs" if integrality.any() else "lp"
    off_binary = np.any((problem.integrality == 1) & (0 < x) & (x < 1))  # fixed in (0, 1)
    if off_binary or not free.any():
        residuals, objective = problem.evaluate(x)
        if off_binary or residuals.max(initial=0.0) > 1e-7:
            return SolveResult(status=INFEASIBLE, objective=math.nan, primal=None, path=path)
        return SolveResult(status=OPTIMAL, objective=objective, primal=x, path=path)
    shift = A @ x
    constant = problem.objective_constant + float(problem.c @ x)
    constraints = []
    if problem.n_constraints:  # scipy hands HiGHS a CSC matrix; its columns slice cheaply
        constraints.append(_LinCon(A.tocsc()[:, free], lb - shift, ub - shift))
    t0 = time.perf_counter()
    res = milp(problem.c[free], constraints=constraints,
               bounds=_Bounds(problem.lower[free], problem.upper[free]), integrality=integrality,
               options={"mip_rel_gap": opts.mip_gap, "time_limit": opts.time_limit,
                        "presolve": True, "disp": False})
    runtime = time.perf_counter() - t0
    gap = float(getattr(res, "mip_gap", 0.0) or 0.0)
    if res.status == 0:
        status = OPTIMAL if gap <= max(opts.mip_gap, 1e-9) else FEASIBLE_GAP
    elif res.status == 1:  # time limit, with or without an incumbent
        status = TIME_LIMIT
    elif res.status == 2:
        status = INFEASIBLE
    elif res.status == 3:
        status = UNBOUNDED
    else:
        raise MilpError(f"HiGHS backend failed: {res.message}")
    primal = None
    if res.x is not None:
        primal = x
        primal[free] = res.x
    objective = (float(res.fun) + constant) if res.fun is not None else math.nan
    return SolveResult(status=status, objective=objective, primal=primal,
                       achieved_gap=gap, runtime=runtime, path=path)


def _enum_solve(problem: MilpProblem, opts: SolveOptions) -> SolveResult:
    """Exhaustive enumeration over binary assignments; LP per assignment."""
    bin_idx = problem.binary_indices
    if len(bin_idx) > 20:
        raise BackendUnavailableError(
            f"enumeration backend limited to 20 binaries, problem has {len(bin_idx)}")
    c = problem.c
    A, lb, ub = problem.constraint_matrix()
    A_ub = sp.vstack([A, -A]).tocsr()
    b_ub_base = np.concatenate([ub, -lb])
    finite = np.isfinite(b_ub_base)
    A_ub = A_ub[finite]
    b_ub_base = b_ub_base[finite]

    t0 = time.perf_counter()
    best = None
    any_feasible = False
    for combo in itertools.product((0.0, 1.0), repeat=len(bin_idx)):
        lo = problem.lower.copy()
        hi = problem.upper.copy()
        skip = False
        for i, v in zip(bin_idx, combo):
            if v < lo[i] - 1e-12 or v > hi[i] + 1e-12:
                skip = True
                break
            lo[i] = hi[i] = v
        if skip:
            continue
        res = linprog(c, A_ub=A_ub, b_ub=b_ub_base,
                      bounds=np.column_stack([lo, hi]), method="highs")
        if res.status == 3:
            return SolveResult(status=UNBOUNDED, objective=-INF, primal=None,
                               runtime=time.perf_counter() - t0, path="enum")
        if res.status != 0:
            continue
        any_feasible = True
        if best is None or res.fun < best.fun:
            best = res
    runtime = time.perf_counter() - t0
    if not any_feasible:
        return SolveResult(status=INFEASIBLE, objective=math.nan, primal=None,
                           runtime=runtime, path="enum")
    return SolveResult(status=OPTIMAL,
                       objective=float(best.fun) + problem.objective_constant,
                       primal=np.asarray(best.x), achieved_gap=0.0, runtime=runtime,
                       path="enum")


_BACKENDS = {"highs": _highs_solve, "enum": _enum_solve}


def default_backend() -> str:
    return os.environ.get("DBIO_SOLVER", "highs").lower()


def solve(problem: MilpProblem, opts: SolveOptions | None = None,
          backend: str | None = None) -> SolveResult:
    """Solve a MILP with the selected backend.

    Non-optimal statuses are reported in the result, never silently dropped;
    an unknown backend name raises :class:`BackendUnavailableError`.
    """
    opts = opts or SolveOptions()
    name = (backend or default_backend()).lower()
    if name not in _BACKENDS:
        raise BackendUnavailableError(
            f"unknown solver backend {name!r}; available: {sorted(_BACKENDS)}")
    return _BACKENDS[name](problem, opts)
