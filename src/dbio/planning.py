"""Multi-year microgrid planning model and its single-year fixed-investment variant.

Decision variables per (year, day, hour): controllable-generator output,
battery charge/discharge power and stored energy, load shed, PV curtailment
and grid import/export. Global variables: PV size (MW), battery capacity
(MWh), generator capacity (MW), and the shared initial battery energy level.

The model carries binaries only where the data needs them:

* The generator has a commitment binary per hour only when it has a minimum
  output or a no-load cost.
* Grid import and export have none. :func:`extract_solution` nets an hour
  that does both, which keeps the power balance and the tie-line bounds and
  never raises the cost, because export is never worth more than import.
* Charge and discharge have none either. :func:`solve_dispatch` checks the
  optimum and, if some hour charges and discharges at once, appends the
  exclusion binaries and solves again.

The PV and battery terms are linear because installed sizes enter with
constant coefficients. A pinned size (the battery of a sizing probe, every
size of a validation year) is a fixed column: the rows that cap a series by
it become bounds on the series, and only the power balance reads it.

The commitment and exclusion rows switch a series off with its own upper
bound as the coefficient. ``horizon.big_m`` stands in only where the series
has no finite bound, which is where its size is free in the plan.

Each day's rows and columns are contiguous (``ModelIndex.day_rows`` and
``day_cols``). Once every size is pinned, the days share only ``e_init``, so
:func:`solve_dispatch` solves a validation year of more than ``BLOCK_DAYS``
days as blocks of consecutive days, checked against the lower bound the
blocks give, and solves the whole year when the check fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import milp
from .degradation import DegradationState
from .milp import EQ, GE, INF, LE, MilpProblem
from .scenario import Scenario


# Most days in one block of a split validation year (see solve_dispatch). 14
# measured about the same on the hourly year; 7 and 56 were slower.
BLOCK_DAYS = 28

_SIZES = ("s_pv", "s_bess", "p_cder_max")


class ModelBuildError(ValueError):
    pass


@dataclass(frozen=True)
class InvestmentDecision:
    s_pv: float        # MW
    s_bess: float      # MWh (rated)
    p_cder_max: float  # MW

    def __post_init__(self):
        if not all(0 <= v < INF for v in (self.s_pv, self.s_bess, self.p_cder_max)):
            raise ModelBuildError("investment sizes must be finite and >= 0")


@dataclass
class ModelIndex:
    """Variable index maps plus the data needed to interpret a primal vector."""

    shape: tuple  # (Y, D, T)
    series: dict  # name -> int array of shape (Y, D, T); SERIES, plus u_cder if committed
    scalars: dict  # name -> int
    scenario: Scenario
    capital: bool  # capital costs are in the objective (sizes are decisions)
    day_rows: np.ndarray  # (Y, D, 2) int: each day's rows, [first, stop)
    day_cols: np.ndarray  # (Y, D, 2) int: each day's series columns, [first, stop)

    SERIES = ("p_cder", "p_chg", "p_dchg", "p_ls", "p_imp", "p_exp", "p_curt", "e_bess")
    POWER = ("p_cder", "p_chg", "p_dchg", "p_ls", "p_imp", "p_exp", "p_curt")  # MW, >= 0


@dataclass
class DispatchSolution:
    """Extracted dispatch series, investment, and cost breakdown."""

    series: dict              # name -> (Y, D, T) float array
    e_init: float
    investment: InvestmentDecision
    costs: dict               # component name -> $
    objective: float
    shape: tuple

    @property
    def cost_total(self):
        return _cost_total(self.costs)


def _cost_total(costs):
    return (costs["capital"] + costs["cder_op"] + costs["pv_deg"] + costs["bess_deg"]
            + costs["shed_penalty"] + costs["import_cost"] - costs["export_revenue"])


def _finite_or_big_m(upper, big_m):
    """Coefficient ``M`` of a switch row ``x <= M*u`` on a series with upper
    bound ``upper``: the bound where it is finite, else ``big_m``."""
    return np.where(np.isfinite(upper), upper, big_m)


def _build(scenario: Scenario, load, pv_cf, eta_pv_by_year, eta_bess, name, *,
           size_lo, size_hi, capital: bool):
    """Assemble the model over (Y, D, T) ``load`` and ``pv_cf``. ``size_lo``/``size_hi``
    bound (s_pv, s_bess, p_cder_max). Each row ``series <=/>= coef * size`` of
    ``links`` stays a row while its size is free; a pinned size (lo == hi)
    turns it into a bound on the series, so a pinned size column is fixed and
    only the power balance reads it. ``capital`` puts capital costs in the
    objective."""
    cfg, cder, pv, bess = scenario.cfg, scenario.cder, scenario.pv, scenario.bess
    Y, D, T = load.shape
    commit = cder.p_min > 0 or cder.no_load > 0

    prob = MilpProblem(name=name)
    alpha = scenario.alpha
    tie = cfg.tie_limit

    soc_lo = bess.soc_min
    soc_hi = bess.soh_init * bess.soc_max
    pv_avail = np.asarray(eta_pv_by_year)[:, None, None] * pv_cf
    pinned = [lo == hi for lo, hi in zip(size_lo, size_hi)]
    # (family, series, size, coef, sense): series sense coef * size, with size
    # the position in (s_pv, s_bess, p_cder_max). The e_init rows lead the
    # model; the others are written for every hour, after its balance row.
    links = [
        # The shared initial energy lies in the stored-energy window.
        ("einit_lo", "e_init", 1, soc_lo, GE), ("einit_hi", "e_init", 1, soc_hi, LE),
        # Generator output within the installed capacity.
        ("cder_cap", "p_cder", 2, 1.0, LE),
        # Curtailment cannot exceed available PV power.
        ("curt_cap", "p_curt", 0, pv_avail, LE),
        # Stored-energy window.
        ("soc_lo", "e_bess", 1, soc_lo, GE), ("soc_hi", "e_bess", 1, soc_hi, LE),
        # Charge/discharge rate limits on capacity.
        ("chg_rate", "p_chg", 1, 1.0 / bess.t_chg, LE),
        ("dchg_rate", "p_dchg", 1, 1.0 / bess.t_dchg, LE),
    ]
    lower = {}
    upper = {"p_ls": load, "p_imp": tie, "p_exp": tie, "u_cder": 1.0}
    for _, k, j, coef, sense in links:
        if pinned[j] and sense == LE:
            upper[k] = np.minimum(upper.get(k, INF), coef * size_lo[j])
        elif pinned[j]:
            lower[k] = np.maximum(lower.get(k, 0.0), coef * size_lo[j])

    # Variables: the four sizes, then the S series of each flattened hour h
    # at ids 4 + S*h + j (j = position in ``names``).
    s_pv, s_bess, p_cder_max, e_init = (int(i) for i in prob.add_variables(
        4, lower=[*size_lo, lower.get("e_init", 0.0)], upper=[*size_hi, upper.get("e_init", INF)],
        names=["s_pv", "s_bess", "p_cder_max", "e_init"], family="sizes"))
    names = ModelIndex.SERIES + ("u_cder",) * commit
    S = len(names)

    def stacked(bounds, default):
        return np.stack([np.broadcast_to(bounds.get(k, default), (Y, D, T)) for k in names],
                        axis=-1).ravel()

    ids = prob.add_variables(
        Y * D * T * S, lower=stacked(lower, 0.0), upper=stacked(upper, INF),
        binary=np.tile([k == "u_cder" for k in names], Y * D * T),
        names=lambda: [f"{k}_{y}_{d}_{t}" for y, d, t in np.ndindex(Y, D, T)
                       for k in names], family="dispatch")
    v = {k: ids[j::S].reshape(Y, D, T) for j, k in enumerate(names)}

    # Energy tracking; every day restarts from the shared initial level.
    e_prev = np.concatenate([np.full((Y, D, 1), e_init), v["e_bess"][..., :-1]], axis=-1)

    col, size_col = {**v, "e_init": e_init}, (s_pv, s_bess, p_cder_max)
    rows = [(k, (f, [(col[k], 1.0), (size_col[j], -coef)], sense, 0.0))
            for f, k, j, coef, sense in links if not pinned[j]]
    head = [row for k, row in rows if k == "e_init"]
    # (family, terms, sense, rhs) of the rows written for every hour.
    hourly = [
        # Hourly power balance: supply = demand + sinks.
        ("balance", [(v["p_cder"], 1.0), (v["p_dchg"], 1.0), (s_pv, pv_avail),
                     (v["p_ls"], 1.0), (v["p_imp"], 1.0), (v["p_chg"], -1.0),
                     (v["p_curt"], -1.0), (v["p_exp"], -1.0)], EQ, load),
        *(row for k, row in rows if k != "e_init"),
        ("etrack", [(v["e_bess"], 1.0), (e_prev, -1.0), (v["p_chg"], -eta_bess),
                    (v["p_dchg"], 1.0)], EQ, 0.0),
    ]
    if commit:
        # Committed output lies in [p_min, its upper bound], or [p_min, big_m]
        # while the capacity is free; uncommitted output is 0.
        hourly += [
            ("cder_on", [(v["p_cder"], 1.0), (v["u_cder"], -_finite_or_big_m(
                upper.get("p_cder", INF), cfg.big_m))], LE, 0.0),
            ("cder_min", [(v["p_cder"], 1.0), (v["u_cder"], -cder.p_min)], GE, 0.0),
        ]
    # Rows: the H head rows, then for each flattened day g the K rows of each
    # hour t at H + g*per_day + K*t + k, then the day's cyclic row.
    H, K = len(head), len(hourly)
    per_day = K * T + int(cfg.cyclic_soc)
    hour_row = H + per_day * np.arange(Y * D).reshape(Y, D, 1) + K * np.arange(T)
    families = [(family, r, terms, sense, rhs)
                for r, (family, terms, sense, rhs) in enumerate(head)]
    families += [(family, hour_row + k, terms, sense, rhs)
                 for k, (family, terms, sense, rhs) in enumerate(hourly)]
    if cfg.cyclic_soc:
        families.append(("cyclic", hour_row[..., -1] + K,
                         [(v["e_bess"][..., -1], 1.0), (e_init, -1.0)], EQ, 0.0))
    prob.add_constraints(families, names=lambda: [f for f, *_ in head] + [
        name for y, d in np.ndindex(Y, D)
        for name in [f"{f}_{y}_{d}_{t}" for t in range(T) for f, *_ in hourly]
        + [f"cyclic_{y}_{d}"] * cfg.cyclic_soc])

    # Objective.
    obj = []
    if capital:
        obj += [(p_cder_max, cder.capital), (s_pv, pv.capital), (s_bess, bess.capital)]
    obj.append((s_pv, Y * pv.rep_frac * pv.capital * pv.deg_rate))
    obj += [(v["p_cder"], alpha * cder.op_cost),
            (v["p_dchg"], alpha * bess.deg_cost_per_mwh), (v["p_ls"], alpha * cfg.ls_penalty),
            (v["p_imp"], alpha * scenario.tariff.import_price),
            (v["p_exp"], -alpha * scenario.tariff.export_price)]
    if commit:
        obj.append((v["u_cder"], alpha * cder.no_load))
    prob.set_objective(obj)

    day = np.arange(Y * D).reshape(Y, D, 1) + np.arange(2)  # flattened days g, g + 1
    index = ModelIndex(
        shape=(Y, D, T), series=v,
        scalars={"s_pv": s_pv, "s_bess": s_bess, "p_cder_max": p_cder_max,
                 "e_init": e_init},
        scenario=scenario, capital=capital, day_rows=H + per_day * day,
        day_cols=ids[0] + S * T * day)
    return prob, index


def build_integrated(scenario: Scenario, *, pin_s_bess: float | None = None):
    """Build the full-horizon planning model (capital costs included).

    Battery state of health is held at its initial value, so every year
    charges at ``bess.efficiency(bess.soh_init)``, the efficiency validation
    year 1 starts from; PV efficiency is precomputed per year by
    :meth:`PvParams.efficiency_schedule`. ``pin_s_bess``
    fixes the battery capacity and leaves the other sizes free, which is what
    the sizing search probes use.
    """
    if pin_s_bess is not None and pin_s_bess < 0:
        raise ModelBuildError("pin_s_bess must be >= 0")
    lo, hi = (0.0, INF) if pin_s_bess is None else (pin_s_bess, pin_s_bess)
    profiles, bess = scenario.profiles(), scenario.bess
    return _build(scenario, profiles.load, profiles.pv_cf,
                  scenario.pv.efficiency_schedule(scenario.cfg.planning_years),
                  bess.efficiency(bess.soh_init), "integrated", size_lo=(0.0, lo, 0.0),
                  size_hi=(INF, hi, scenario.cder.max_size), capital=True)


def build_single_year(scenario: Scenario, state: DegradationState,
                      investment: InvestmentDecision):
    """Build validation year ``state.year``: fixed sizes, degraded capacity and efficiencies.

    Capital terms are absent from the objective. The degraded capacity
    ``state.capacity`` replaces the rated size throughout; the state-of-health
    factor in the stored-energy window stays at its initial value so capacity
    fade is applied exactly once.
    """
    Y = scenario.cfg.planning_years
    if not 1 <= state.year <= Y:
        raise ModelBuildError(f"year {state.year} is outside the horizon 1..{Y}")
    if state.capacity > investment.s_bess + 1e-12:
        raise ModelBuildError(
            f"degraded capacity {state.capacity} exceeds rated {investment.s_bess}")
    sizes = (investment.s_pv, state.capacity, investment.p_cder_max)
    profiles = scenario.profiles()
    year = slice(state.year - 1, state.year)
    return _build(scenario, profiles.load[year], profiles.pv_cf[year], [state.eta_pv],
                  state.eta_bess, "single_year", size_lo=sizes, size_hi=sizes, capital=False)


def _costs(series, inv: InvestmentDecision, index: ModelIndex) -> dict:
    """Cost breakdown of a dispatch, component name -> $."""
    sc = index.scenario
    cfg, cder, pv, bess = sc.cfg, sc.cder, sc.pv, sc.bess
    alpha = sc.alpha
    capital = 0.0
    if index.capital:
        capital = (inv.p_cder_max * cder.capital + inv.s_pv * pv.capital
                   + inv.s_bess * bess.capital)
    cder_op = alpha * float(np.sum(series["p_cder"]) * cder.op_cost
                            + np.sum(series.get("u_cder", 0.0)) * cder.no_load)
    pv_deg = index.shape[0] * pv.rep_frac * pv.capital * inv.s_pv * pv.deg_rate
    bess_deg = alpha * bess.deg_cost_per_mwh * float(np.sum(series["p_dchg"]))
    shed = alpha * cfg.ls_penalty * float(np.sum(series["p_ls"]))
    imp_cost = alpha * float(np.sum(series["p_imp"] * sc.tariff.import_price[None]))
    exp_rev = alpha * float(np.sum(series["p_exp"] * sc.tariff.export_price[None]))
    return {"capital": capital, "cder_op": cder_op, "pv_deg": pv_deg,
            "bess_deg": bess_deg, "shed_penalty": shed,
            "import_cost": imp_cost, "export_revenue": exp_rev}


def extract_solution(result: milp.SolveResult, index: ModelIndex) -> DispatchSolution:
    """Read the primal vector into dispatch arrays and the cost breakdown."""
    if not result.has_solution:
        raise ModelBuildError(f"no solution to extract (status {result.status})")
    x = result.primal
    solved = {k: x[ids].astype(float) for k, ids in index.series.items()}
    # Netting an hour that imports and exports keeps its balance and tie-line
    # bounds and changes the cost by -alpha*m*(import - export price) <= 0,
    # so at an optimum it is free.
    m = np.minimum(solved["p_imp"], solved["p_exp"])
    solved["p_imp"] -= m
    solved["p_exp"] -= m
    # Adding 0.0 turns a solver's -0.0 into 0.0, so no report shows "-0".
    s_pv, s_bess, p_cder_max, e_init = (float(x[index.scalars[k]]) + 0.0
                                        for k in ("s_pv", "s_bess", "p_cder_max", "e_init"))
    inv = InvestmentDecision(s_pv=s_pv, s_bess=s_bess, p_cder_max=p_cder_max)

    # The check prices the primal as solved: a shed of -4e-7 MW clipped to 0
    # moves the breakdown by 0.4 USD at a 1e6 $/MWh penalty.
    total = _cost_total(_costs(solved, inv, index))
    scale = max(1.0, abs(result.objective))
    if abs(total - result.objective) > 1e-6 * scale:
        raise ModelBuildError(
            f"cost breakdown {total} inconsistent with objective {result.objective}")

    # The reported dispatch and its breakdown drop tiny solver round-off
    # below zero on the nonnegative power series.
    series = {k: np.clip(v, 0.0, None) if k in ModelIndex.POWER else v
              for k, v in solved.items()}
    return DispatchSolution(series=series, e_init=e_init,
                            investment=inv, costs=_costs(series, inv, index),
                            objective=result.objective, shape=index.shape)


def _add_battery_exclusion(problem: MilpProblem, index: ModelIndex):
    """Append binaries ``u_chg``/``u_dchg`` that stop any hour of ``problem``
    from charging and discharging at once. Each switch row's coefficient is the
    series' upper bound, or ``horizon.big_m`` where it has none."""
    Y, D, T = index.shape
    n = Y * D * T
    u = problem.add_variables(
        2 * n, upper=1.0, binary=True, family="exclusion",
        names=lambda: [f"{k}_{y}_{d}_{t}" for k in ("u_chg", "u_dchg")
                       for y, d, t in np.ndindex(Y, D, T)])
    u_chg, u_dchg = u[:n], u[n:]

    def switch(series, u_k):
        ids = index.series[series].ravel()
        return [(ids, 1.0), (u_k, -_finite_or_big_m(problem.upper[ids],
                                                     index.scenario.cfg.big_m))]

    rows = np.arange(n)
    families = [("excl_bess", rows, [(u_chg, 1.0), (u_dchg, 1.0)], LE, 1.0),
                ("chg_on", n + rows, switch("p_chg", u_chg), LE, 0.0),
                ("dchg_on", 2 * n + rows, switch("p_dchg", u_dchg), LE, 0.0)]
    problem.add_constraints(families, names=lambda: [
        f"{f}_{y}_{d}_{t}" for f, *_ in families for y, d, t in np.ndindex(Y, D, T)])


def _splits(problem: MilpProblem, index: ModelIndex) -> bool:
    """Whether :func:`solve_dispatch` solves ``problem`` in day blocks: one year
    of more than ``BLOCK_DAYS`` days, every size fixed, no binary."""
    Y, D, _ = index.shape
    sizes = [index.scalars[k] for k in _SIZES]
    return (Y == 1 and D > BLOCK_DAYS and not problem.integrality.any()
            and bool(np.all(problem.lower[sizes] == problem.upper[sizes])))


def _solve_days(problem: MilpProblem, index: ModelIndex,
                opts: milp.SolveOptions) -> milp.SolveResult:
    """Solve a year that :func:`_splits` accepts as blocks of consecutive days.

    With the sizes fixed, a year's days share only ``e_init``. Each block,
    its days' rows over its days' columns and the four scalars, is solved
    with its own copy of ``e_init`` free; the sum of the block optima bounds
    the year from below. The ``e_init`` most blocks chose (the smallest on a
    tie) is then fixed in every other block, and each re-solve must stay
    within 1e-9 relative of its block's bound. The blocks' primals then form
    an optimum of the year, priced once on the whole model. Otherwise the
    whole year is solved in one call.
    """
    days = index.shape[1]
    n = -(-days // BLOCK_DAYS)
    edges = days * np.arange(n + 1) // n  # near-equal blocks of at most BLOCK_DAYS days
    scalars = sorted(index.scalars.values())
    e_pos = scalars.index(index.scalars["e_init"])
    sizes = [scalars.index(index.scalars[k]) for k in _SIZES]

    def block(k, e_init=None):
        first, last = edges[k], edges[k + 1] - 1
        cols = np.concatenate([scalars, np.arange(index.day_cols[0, first, 0],
                                                  index.day_cols[0, last, 1])])
        sub = problem.subproblem(range(index.day_rows[0, first, 0],
                                       index.day_rows[0, last, 1]), cols)
        sub.c[sizes] = 0.0  # the sizes' cost is counted once, when the year is priced
        if e_init is not None:
            sub.lower[e_pos] = sub.upper[e_pos] = e_init
        return cols, milp.solve(sub, opts)

    blocks = [block(k) for k in range(n)]
    runtime = sum(r.runtime for _, r in blocks)
    if all(r.status == milp.OPTIMAL for _, r in blocks):
        x = np.empty(problem.n_variables)
        values, counts = np.unique([r.primal[e_pos] for _, r in blocks], return_counts=True)
        e_init = values[np.argmax(counts)]
        for k, (cols, r) in enumerate(blocks):
            if r.primal[e_pos] != e_init:
                cols, fixed = block(k, e_init)
                runtime += fixed.runtime
                if not (fixed.status == milp.OPTIMAL and fixed.objective - r.objective
                        <= 1e-9 * max(1.0, abs(r.objective))):
                    break
                r = fixed
            x[cols] = r.primal
        else:
            return milp.SolveResult(status=milp.OPTIMAL,
                                    objective=float(problem.c @ x) + problem.objective_constant,
                                    primal=x, runtime=runtime, path="days")
    result = milp.solve(problem, opts)
    result.runtime += runtime
    return result


def solve_dispatch(problem: MilpProblem, index: ModelIndex,
                   opts: milp.SolveOptions) -> milp.SolveResult:
    """Solve a model from :func:`build_integrated` or :func:`build_single_year`.

    A validation year of more than ``BLOCK_DAYS`` days is solved in day
    blocks (:func:`_solve_days`, path ``days``) and falls back to one solve
    of the whole year when the blocks' check fails; any other model is one
    solve. The model has no charge/discharge exclusion, so an optimum that
    must burn a surplus may charge and discharge in one hour. Only then is the
    exclusion appended to ``problem`` and the whole problem solved again;
    ``runtime`` covers every solve.
    """
    if _splits(problem, index):
        result = _solve_days(problem, index, opts)
    else:
        result = milp.solve(problem, opts)
    if result.has_solution and np.max(np.minimum(result.primal[index.series["p_chg"]],
                                                  result.primal[index.series["p_dchg"]])) > 1e-6:
        first = result.runtime
        _add_battery_exclusion(problem, index)
        result = milp.solve(problem, opts)
        result.runtime += first
    return result
