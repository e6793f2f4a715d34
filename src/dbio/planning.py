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
* Charge and discharge have none either. :func:`solve_dispatch` and
  :func:`solve_single_year` check the optimum and, if some hour charges and
  discharges at once, append the exclusion binaries and solve again.

The PV and battery terms are linear because installed sizes enter with
constant coefficients. A pinned size (the battery of a sizing probe, every
size of a validation year) is a fixed column: the rows that cap a series by
it become bounds on the series, and only the power balance reads it.

The commitment and exclusion rows switch a series off with a coefficient
that bounds it at every feasible point: its own upper bound where a pinned
size gives one, else a bound the scenario implies (the generator's
``cder.max_size``; for the battery, the load and tie-line limit of the hour or
of the day). Where the scenario implies none, writing the row raises
:class:`ModelBuildError` naming the missing input.

The four scalars lead every model and each hour's series follow in hour
order (:func:`_index`), so a run of days is a contiguous run of columns.
Once every size is pinned, the days share only ``e_init``, so
:func:`solve_single_year` builds and solves a validation year of more than
``BLOCK_DAYS`` days as blocks of consecutive days, one block's model at a
time, checked against the lower bound the blocks give; the whole year is
built only when the check fails. The blocks differ only in bounds and
right-hand sides, so each starts from the simplex basis of the block before
it, mapped day by day through that layout, and a year's first block from the
last block of the year before or, where there is none (a validation's first
year), from a cold solve of the year's first ``SEED_DAYS`` days. A year
solved whole starts from the basis of the year before when that year was
solved whole too, and a sizing probe's plan from the plan of the probe
before it (:func:`solve_dispatch`).

Models of one structure are built over and over: a sizing search builds
its probes' plans and their validation years, a split year its blocks.
Inside a sizing search or a validation (:func:`holding_layouts`),
:func:`_build` keeps the structure of each layout from its first build on,
so later builds of it only write values, and the scope's end drops them. A
model built outside any scope, such as a plan at the paper's scale, holds
nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import milp
from .degradation import DegradationState
from .milp import EQ, GE, INF, LE, MilpProblem
from .scenario import Scenario


# Most days in one block of a split validation year (see solve_single_year).
# 14 measured about the same on the hourly year; 7 and 56 were slower. With
# the seed below, 46-day blocks were 8 ms faster in-process but peaked at
# 45.66 MB on the hourly CLI validation, against about 42 MB at 28.
BLOCK_DAYS = 28
# Days of the cold model that seeds the first block of a split year without a
# basis (see _solve_days). On the hourly year a 2-day seed takes 117 simplex
# iterations and leaves its first block none; a 1-day seed leaves that block
# 140, and 3- and 7-day seeds take 181 and 423 for the same 0.
SEED_DAYS = 2

_SCALARS = ("s_pv", "s_bess", "p_cder_max", "e_init")
_SCALAR_IDS = {k: i for i, k in enumerate(_SCALARS)}
_SIZES = _SCALARS[:3]


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
    eta_bess: float  # the efficiency every hour charges at

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


def _index(scenario: Scenario, shape, capital: bool, eta_bess: float,
           series: dict | None = None) -> ModelIndex:
    """The column layout of a model :func:`_build` assembles over ``shape`` (Y, D, T):
    the four scalars at ids 0-3, then the S series of each flattened hour h at
    ids 4 + S*h + j, j the position in ``SERIES`` plus ``u_cder`` if committed.
    ``series`` gives the read-only id arrays of a held layout."""
    if series is None:
        names = ModelIndex.SERIES + ("u_cder",) * scenario.cder.committed
        hours = len(_SCALARS) + len(names) * np.arange(math.prod(shape)).reshape(shape)
        series = {k: hours + j for j, k in enumerate(names)}
    return ModelIndex(shape=shape, series=dict(series), scalars=dict(_SCALAR_IDS),
                      scenario=scenario, capital=capital, eta_bess=eta_bess)


class _Layout(NamedTuple):
    """What every build of one layout shares: the series ids of its index,
    which columns are binary, each hour's previous stored-energy column, each
    constraint family's row positions, and where its rows' values land.
    Read-only."""

    series: dict
    binary: np.ndarray
    e_prev: np.ndarray
    at: list
    rows: milp.RowLayout


# Layout key -> its _Layout inside a holding_layouts() scope, None outside
# any. It needs no cap: one scope builds at most five structures (a pinned
# plan, a whole year, two block lengths and a split year's seed).
_layouts: dict | None = None


@contextlib.contextmanager
def holding_layouts():
    """Hold the layout of each model built inside (see :func:`_build`) until
    the outermost such scope ends, even by an exception, which drops them
    all; an inner scope shares the outer one's. A sizing search and a
    validation each build inside one, so nothing is held after a run, and a
    model built outside any holds nothing. Also a function decorator."""
    global _layouts
    if _layouts is not None:
        yield
        return
    _layouts = {}
    try:
        yield
    finally:
        _layouts = None


def _build(scenario: Scenario, load, pv_cf, eta_pv_by_year, eta_bess, name, *,
           size_lo, size_hi, capital: bool, days=slice(None)):
    """Assemble the model over (Y, D, T) ``load`` and ``pv_cf``, which cover the
    days ``days`` of the scenario's profiles and are priced at those days'
    tariff. ``size_lo``/``size_hi`` bound (s_pv, s_bess, p_cder_max). Each
    row ``series <=/>= coef * size`` of ``links`` stays a row while its size
    is free; a pinned size (lo == hi) turns it into a bound on the series, so
    a pinned size column is fixed and only the power balance reads it.
    ``capital`` puts capital costs in the objective.

    The structure of the model (its columns' binaries, ``A``'s sparsity and
    where each family's values land) depends only on (Y, D, T), which sizes
    are pinned, commitment and cyclic days. Inside :func:`holding_layouts`,
    the first build of a layout holds it, and a later build writes only
    values: bounds, coefficients, right-hand sides and costs. Those are
    checked on every build; the structure only when it is assembled."""
    cfg, cder, pv, bess = scenario.cfg, scenario.cder, scenario.pv, scenario.bess
    Y, D, T = load.shape
    commit = cder.committed

    alpha = scenario.alpha
    tie = cfg.tie_limit

    soc_lo = bess.soc_min
    soc_hi = bess.soh_init * bess.soc_max
    pv_avail = np.asarray(eta_pv_by_year)[:, None, None] * pv_cf
    pinned = tuple(lo == hi for lo, hi in zip(size_lo, size_hi))
    key = (Y, D, T, pinned, commit, cfg.cyclic_soc)  # what the structure depends on
    layout = None if _layouts is None else _layouts.get(key)
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
            bound = coef * size_lo[j]
            upper[k] = np.minimum(upper[k], bound) if k in upper else bound
        elif pinned[j]:
            lower[k] = np.maximum(lower.get(k, 0.0), coef * size_lo[j])

    # Variables in the layout of _index: the four scalars, then the series hour by hour.
    index = _index(scenario, (Y, D, T), capital, eta_bess,
                   None if layout is None else layout.series)
    s_pv, s_bess, p_cder_max, e_init = index.scalars.values()
    v = index.series
    # Objective, each coefficient summed onto 0.0 as terms of one column are.
    size_cost = [0.0] * len(_SCALARS)
    if capital:
        size_cost[p_cder_max] += cder.capital
        size_cost[s_pv] += pv.capital
        size_cost[s_bess] += bess.capital
    size_cost[s_pv] += Y * pv.rep_frac * pv.capital * pv.deg_rate
    series_cost = {"p_cder": alpha * cder.op_cost, "p_dchg": alpha * bess.deg_cost_per_mwh,
                   "p_ls": alpha * cfg.ls_penalty,
                   "p_imp": alpha * scenario.tariff.import_price[days],
                   "p_exp": -alpha * scenario.tariff.export_price[days],
                   "u_cder": alpha * cder.no_load}
    # Lower bounds, upper bounds and costs of every column: the scalars', then
    # each series' value, one per series or an array over its hours.
    bounds = np.empty((3, len(_SCALARS) + Y * D * T * len(v)))
    bounds[:, :len(_SCALARS)] = ([*size_lo, lower.get("e_init", 0.0)],
                                 [*size_hi, upper.get("e_init", INF)], size_cost)
    per_hour = bounds[:, len(_SCALARS):].reshape(3, Y, D, T, len(v))
    arrays = []
    for i, (values, default) in enumerate(((lower, 0.0), (upper, INF), (series_cost, 0.0))):
        row = [values.get(k, default) for k in v]
        arrays += [(i, j, x) for j, x in enumerate(row) if isinstance(x, np.ndarray)]
        per_hour[i] = [0.0 if isinstance(x, np.ndarray) else x for x in row]
    for i, j, x in arrays:
        per_hour[i, ..., j] = x
    per_hour[2] += 0.0  # as the sum onto 0.0: -0.0 becomes 0.0

    # Names carry the scenario's day, so a block's names are the whole year's.
    day_ids = range(len(scenario.base_load))[days]
    binary = (np.concatenate([np.zeros(len(_SCALARS), dtype=bool),
                              np.tile([k == "u_cder" for k in v], Y * D * T)])
              if layout is None else layout.binary)
    prob = MilpProblem(name=name)
    prob.add_variables(
        bounds.shape[1], lower=bounds[0], upper=bounds[1], binary=binary, cost=bounds[2],
        names=lambda: list(index.scalars) + [f"{k}_{y}_{d}_{t}" for y, d, t in itertools.product(
            range(Y), day_ids, range(T)) for k in v], family=name)

    # Energy tracking; every day restarts from the shared initial level.
    e_prev = (np.concatenate([np.full((Y, D, 1), e_init), v["e_bess"][..., :-1]], axis=-1)
              if layout is None else layout.e_prev)

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
        # Committed output lies in [p_min, its upper bound], or [p_min,
        # cder.max_size] while the capacity is free; uncommitted output is 0.
        on = upper.get("p_cder", cder.max_size)
        if not math.isfinite(on):
            raise ModelBuildError("cder.max_size must be finite to plan a generator "
                                  "with a minimum output or a no-load cost")
        hourly += [
            ("cder_on", [(v["p_cder"], 1.0), (v["u_cder"], -on)], LE, 0.0),
            ("cder_min", [(v["p_cder"], 1.0), (v["u_cder"], -cder.p_min)], GE, 0.0),
        ]
    blocks = head + hourly
    if cfg.cyclic_soc:
        blocks.append(("cyclic", [(v["e_bess"][..., -1], 1.0), (e_init, -1.0)], EQ, 0.0))
    # Rows: the H head rows, then for each flattened day g the K rows of each
    # hour t at H + g*per_day + K*t + k, then the day's cyclic row.
    H, K = len(head), len(hourly)
    if layout is None:
        per_day = K * T + int(cfg.cyclic_soc)
        hour_row = H + per_day * np.arange(Y * D).reshape(Y, D, 1) + K * np.arange(T)
        at = [*range(H), *(hour_row + k for k in range(K))]
        at += [hour_row[..., -1] + K] * cfg.cyclic_soc
    else:
        at = layout.at
    families = [(family, r, terms, sense, rhs)
                for r, (family, terms, sense, rhs) in zip(at, blocks)]

    def row_names():
        return [f for f, *_ in head] + [
            name for y, d in itertools.product(range(Y), day_ids)
            for name in [f"{f}_{y}_{d}_{t}" for t in range(T) for f, *_ in hourly]
            + [f"cyclic_{y}_{d}"] * cfg.cyclic_soc]

    if layout is not None:
        prob.add_constraints(families, names=row_names, layout=layout.rows)
    elif _layouts is None:  # a build outside any scope keeps nothing
        prob.add_constraints(families, names=row_names)
    else:  # the first build in a scope assembles the layout it holds
        rows = milp.RowLayout.of(families, prob.n_variables, row_names)
        prob.add_constraints(families, names=row_names, layout=rows)
        for a in (*v.values(), binary, e_prev, *at[H:]):
            a.flags.writeable = False
        _layouts[key] = _Layout(dict(v), binary, e_prev, at, rows)
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
                      investment: InvestmentDecision, days=slice(None)):
    """Build validation year ``state.year``: fixed sizes, degraded capacity and efficiencies.

    Capital terms are absent from the objective. The degraded capacity
    ``state.capacity`` replaces the rated size throughout; the state-of-health
    factor in the stored-energy window stays at its initial value so capacity
    fade is applied exactly once. ``days``, a slice of the representative
    days, builds only those days; the rows and columns are then the whole
    year's of those days, with the four scalars in the first columns.
    """
    cfg = scenario.cfg
    Y = cfg.planning_years
    if not 1 <= state.year <= Y:
        raise ModelBuildError(f"year {state.year} is outside the horizon 1..{Y}")
    if state.capacity > investment.s_bess + 1e-12:
        raise ModelBuildError(
            f"degraded capacity {state.capacity} exceeds rated {investment.s_bess}")
    sizes = (investment.s_pv, state.capacity, investment.p_cder_max)
    # The year's entries of Scenario.profiles, from the same expressions.
    growth = ((1.0 + cfg.load_growth) ** np.arange(Y))[state.year - 1]
    load = growth * scenario.base_load[days]
    pv_cf = np.asarray(scenario.base_pv_cf, dtype=float)[days]
    return _build(scenario, load[None], pv_cf[None], [state.eta_pv], state.eta_bess,
                  "single_year", size_lo=sizes, size_hi=sizes, capital=False, days=days)


def _costs(series, sizes, index: ModelIndex) -> dict:
    """Cost breakdown of a dispatch at ``sizes`` (s_pv, s_bess, p_cder_max),
    component name -> $."""
    sc = index.scenario
    cfg, cder, pv, bess = sc.cfg, sc.cder, sc.pv, sc.bess
    alpha = sc.alpha
    s_pv, s_bess, p_cder_max = sizes
    capital = 0.0
    if index.capital:
        capital = p_cder_max * cder.capital + s_pv * pv.capital + s_bess * bess.capital
    no_load = series["u_cder"].sum() * cder.no_load if "u_cder" in series else 0.0
    cder_op = alpha * float(series["p_cder"].sum() * cder.op_cost + no_load)
    pv_deg = index.shape[0] * pv.rep_frac * pv.capital * s_pv * pv.deg_rate
    bess_deg = alpha * bess.deg_cost_per_mwh * float(series["p_dchg"].sum())
    shed = alpha * cfg.ls_penalty * float(series["p_ls"].sum())
    imp_cost = alpha * float((series["p_imp"] * sc.tariff.import_price[None]).sum())
    exp_rev = alpha * float((series["p_exp"] * sc.tariff.export_price[None]).sum())
    return {"capital": capital, "cder_op": cder_op, "pv_deg": pv_deg,
            "bess_deg": bess_deg, "shed_penalty": shed,
            "import_cost": imp_cost, "export_revenue": exp_rev}


def extract_solution(result: milp.SolveResult, index: ModelIndex) -> DispatchSolution:
    """Read the primal vector into dispatch arrays and the cost breakdown."""
    if not result.has_solution:
        raise ModelBuildError(f"no solution to extract (status {result.status})")
    x = result.primal
    solved = {k: x[ids] for k, ids in index.series.items()}
    # Netting an hour that imports and exports keeps its balance and tie-line
    # bounds and changes the cost by -alpha*m*(import - export price) <= 0,
    # so at an optimum it is free.
    m = np.minimum(solved["p_imp"], solved["p_exp"])
    solved["p_imp"] -= m
    solved["p_exp"] -= m
    # Adding 0.0 turns a solver's -0.0 into 0.0, so no report shows "-0".
    *sizes, e_init = (float(x[index.scalars[k]]) + 0.0 for k in _SCALARS)

    # The check prices the primal as solved: a shed of -4e-7 MW clipped to 0
    # moves the breakdown by 0.4 USD at a 1e6 $/MWh penalty.
    costs = _costs(solved, sizes, index)
    total = _cost_total(costs)
    scale = max(1.0, abs(result.objective))
    if abs(total - result.objective) > 1e-6 * scale:
        raise ModelBuildError(
            f"cost breakdown {total} inconsistent with objective {result.objective}")

    # The reported dispatch, sizes and breakdown drop tiny solver round-off
    # below zero on the nonnegative power series and sizes; without any, they
    # are the solved ones.
    series = solved
    if x.min(initial=0.0) < 0.0:
        series = {k: np.maximum(v, 0.0) if k in ModelIndex.POWER else v
                  for k, v in solved.items()}
        sizes = [max(size, 0.0) for size in sizes]
        costs = _costs(series, sizes, index)
    return DispatchSolution(series=series, e_init=e_init, investment=InvestmentDecision(*sizes),
                            costs=costs, objective=result.objective, shape=index.shape)


def _add_battery_exclusion(problem: MilpProblem, index: ModelIndex):
    """Append binaries ``u_chg``/``u_dchg`` that stop any hour of ``problem``
    from charging and discharging at once.

    Each switch row's coefficient bounds its series at every point the
    exclusion allows: the series' upper bound where a pinned battery gives
    one. Else a discharging hour charges nothing, so its power balance, with
    curtailment at most the available PV, caps the discharge at the hour's
    load + ``tie_limit``; and a cyclic day charges 1/eta times what it
    discharges, so no hour charges more than the day's sum of those caps over
    eta. A free battery without cyclic days has no such charge bound.
    """
    Y, D, T = index.shape
    n = Y * D * T
    cfg = index.scenario.cfg
    dchg_cap = problem.upper[index.series["p_ls"]] + cfg.tie_limit  # a shed is at most the load
    chg_cap = np.broadcast_to(dchg_cap.sum(axis=-1, keepdims=True) / index.eta_bess,
                              dchg_cap.shape)
    if not (cfg.cyclic_soc or np.isfinite(problem.upper[index.series["p_chg"]]).all()):
        raise ModelBuildError("the charge/discharge exclusion needs horizon.cyclic_soc or "
                              "a pinned battery size to bound the charge")
    u = problem.add_variables(
        2 * n, upper=1.0, binary=True, family="exclusion",
        names=lambda: [f"{k}_{y}_{d}_{t}" for k in ("u_chg", "u_dchg")
                       for y, d, t in np.ndindex(Y, D, T)])
    u_chg, u_dchg = u[:n], u[n:]

    def switch(series, u_k, cap):
        ids = index.series[series].ravel()
        upper = problem.upper[ids]
        return [(ids, 1.0), (u_k, -np.where(np.isfinite(upper), upper, cap.ravel()))]

    rows = np.arange(n)
    families = [("excl_bess", rows, [(u_chg, 1.0), (u_dchg, 1.0)], LE, 1.0),
                ("chg_on", n + rows, switch("p_chg", u_chg, chg_cap), LE, 0.0),
                ("dchg_on", 2 * n + rows, switch("p_dchg", u_dchg, dchg_cap), LE, 0.0)]
    problem.add_constraints(families, names=lambda: [
        f"{f}_{y}_{d}_{t}" for f, *_ in families for y, d, t in np.ndindex(Y, D, T)])


def _burns(result: milp.SolveResult, index: ModelIndex) -> bool:
    """Whether ``result``'s optimum charges and discharges in one hour."""
    return result.has_solution and bool(np.max(np.minimum(
        result.primal[index.series["p_chg"]], result.primal[index.series["p_dchg"]])) > 1e-6)


def _timed_out() -> milp.SolveResult:
    return milp.SolveResult(status=milp.TIME_LIMIT, objective=math.nan, primal=None)


# How far a warm solve's values may leave a column or row bound (the result's
# ``off_bound``). HiGHS takes a value within its feasibility tolerance (1e-7) of
# a bound as feasible, so from the basis of a slightly different model it can
# stop there, where a cold run pivots onto the bound: a validation year whose
# capacity faded by 1e-11 MWh stopped 8.5e-12 MWh above it and shed nothing,
# where the cold solve sheds 8.5e-12 MW. The slack is absolute: cold solves of
# the fixture and benchmark models, whose values stay below about 60, report at
# most 1.6e-14, round-off of a few dozen ulps. A model of values 100 times larger
# could reach it by round-off alone; each of its warm solves would then run twice.
WARM_SLACK = 1e-12


class _Solves:
    """The HiGHS calls of one model's solve: a plan, a probe's plan or a
    validation year. They share ``opts.time_limit``: each call gets what the
    calls before it left, and once it is spent a solve is ``time-limit``
    without a call. A warm solve that does not end optimal, or whose values
    leave a bound by more than :data:`WARM_SLACK`, is repeated cold."""

    def __init__(self, opts: milp.SolveOptions):
        self.opts, self.runtime, self.iterations = opts, 0.0, 0

    def solve(self, problem: MilpProblem, basis=None) -> milp.SolveResult:
        """``problem``'s solve, from ``basis`` when one is given and covers
        ``problem``'s columns and rows."""
        if self.runtime >= self.opts.time_limit:
            return _timed_out()
        if basis is not None and (basis[0].size, basis[1].size) != (
                problem.n_variables, problem.n_constraints):
            basis = None
        opts = self.opts if not self.runtime else dataclasses.replace(
            self.opts, time_limit=self.opts.time_limit - self.runtime)
        result = milp.solve(problem, opts, basis)
        self.runtime += result.runtime
        self.iterations += result.iterations
        if basis is not None and (result.status != milp.OPTIMAL
                                  or result.off_bound > WARM_SLACK):
            return self.solve(problem)
        return result

    def total(self, result: milp.SolveResult) -> milp.SolveResult:
        """``result``, the model's answer, with the runtime and iterations of every call."""
        result.runtime, result.iterations = self.runtime, self.iterations
        return result


def _solve_whole(problem: MilpProblem, index: ModelIndex, solves: _Solves,
                 result: milp.SolveResult | None = None, basis=None) -> milp.SolveResult:
    """Solve ``problem`` from ``basis``, or take ``result``, an optimum of it
    found another way; if the optimum charges and discharges in one hour,
    append the exclusion and solve again. The answer totals every call of
    ``solves``."""
    if result is None:
        result = solves.solve(problem, basis)
    if _burns(result, index):
        _add_battery_exclusion(problem, index)
        result = solves.solve(problem)
    return solves.total(result)


def solve_dispatch(problem: MilpProblem, index: ModelIndex, opts: milp.SolveOptions,
                   basis=None) -> milp.SolveResult:
    """Solve a model from :func:`build_integrated` or :func:`build_single_year`.

    The model has no charge/discharge exclusion, so an optimum that must burn
    a surplus may charge and discharge in one hour; only then is the
    exclusion appended and the model solved again (:func:`_solve_whole`).
    ``basis``, the final basis of a model of the same layout (the plan of
    the sizing search's previous probe), starts the first solve.
    """
    return _solve_whole(problem, index, _Solves(opts), basis=basis)


def _block_basis(basis, days: int, day_columns: int):
    """A starting basis for a block of ``days`` days, mapped day by day from
    ``basis``, another block's (or a year's) of the layout of :func:`_index`:
    the four scalars' statuses, then each day's ``day_columns`` columns and
    its rows. Days past the last of ``basis`` repeat that day's statuses."""
    if basis is None:
        return None
    cols, rows = basis
    held = (cols.size - len(_SCALARS)) // day_columns
    pick = np.minimum(np.arange(days), held - 1)
    return (np.concatenate([cols[:len(_SCALARS)],
                            cols[len(_SCALARS):].reshape(held, -1)[pick].ravel()]),
            rows.reshape(held, -1)[pick].ravel())


def _solve_days(scenario: Scenario, state: DegradationState, investment: InvestmentDecision,
                index: ModelIndex, solves: _Solves, basis):
    """Solve the year of ``index`` as blocks of consecutive days, each built
    on its own; return the year's result, or None when the whole year must be
    solved.

    With the sizes fixed, a year's days share only ``e_init``. Each block is
    solved with its own copy of ``e_init`` free; the sum of the block optima
    bounds the year from below. The ``e_init`` most blocks chose (the
    smallest on a tie) is then fixed in every other block, which is built
    again, and each re-solve must stay within 1e-9 relative of its block's
    bound. The blocks' primals then form an optimum of the year, whose
    objective is the sum of the final block objectives plus the fixed sizes'
    cost, counted once.

    The blocks share their matrix structure and costs, so each block starts
    from the basis of the block before it (the first from ``basis``, another
    year's), mapped by :func:`_block_basis`, and each re-solve from its own
    block's first basis: only ``e_init``'s bounds differ. The result carries
    the last block's basis. Without ``basis``, the year's first ``SEED_DAYS``
    days, built as a block is, are solved cold through ``solves`` first and
    the first block starts from their basis, each day after the seed's last
    repeating its statuses. On the hourly year the seed takes 117 iterations
    and the first block then none, where that block alone took 1,575 cold.
    A seed that does not end optimal leaves the first block cold.
    """
    days = index.shape[1]
    n = -(-days // BLOCK_DAYS)
    edges = days * np.arange(n + 1) // n  # near-equal blocks of at most BLOCK_DAYS days
    e_pos = index.scalars["e_init"]
    sizes = [index.scalars[k] for k in _SIZES]
    scalars = len(_SCALARS)
    day_columns = len(index.series) * index.shape[2]

    def block(k, start, e_init=None):
        problem, _ = build_single_year(scenario, state, investment,
                                       days=slice(edges[k], edges[k + 1]))
        # The block's series columns are the year's from its first day's first column on.
        first = index.series[ModelIndex.SERIES[0]][0, edges[k], 0]
        span = slice(first, first + problem.n_variables - scalars)
        # Every block prices the fixed sizes alike; each block's objective
        # leaves their cost out, and the year's counts it once.
        size_cost = float(problem.c[sizes] @ problem.lower[sizes])
        problem.c[sizes] = 0.0
        if e_init is not None:
            problem.lower[e_pos] = problem.upper[e_pos] = e_init
        return span, size_cost, solves.solve(problem, start)

    if basis is None:  # the year's one cold call, on its first SEED_DAYS days
        seed, _ = build_single_year(scenario, state, investment, days=slice(0, SEED_DAYS))
        r = solves.solve(seed)
        basis = r.basis if r.status == milp.OPTIMAL else None
    x = np.empty(scalars + sum(ids.size for ids in index.series.values()))
    solved = []  # (span, e_init, objective, basis) of each block
    for k in range(n):
        span, size_cost, r = block(k, _block_basis(basis, edges[k + 1] - edges[k], day_columns))
        if r.status != milp.OPTIMAL:
            return None
        x[:scalars], x[span] = r.primal[:scalars], r.primal[scalars:]
        solved.append((span, r.primal[e_pos], r.objective, r.basis))
        basis = r.basis
    values, counts = np.unique([e for _, e, *_ in solved], return_counts=True)
    e_init = values[np.argmax(counts)]
    objectives = [objective for _, _, objective, _ in solved]
    for k, (span, e, objective, start) in enumerate(solved):
        if e != e_init:
            *_, fixed = block(k, start, e_init)
            if not (fixed.status == milp.OPTIMAL and fixed.objective - objective
                    <= 1e-9 * max(1.0, abs(objective))):
                return None
            x[span] = fixed.primal[scalars:]
            objectives[k] = fixed.objective
    x[e_pos] = e_init
    return milp.SolveResult(status=milp.OPTIMAL, objective=sum(objectives) + size_cost,
                            primal=x, path="days", basis=basis)


def solve_single_year(scenario: Scenario, state: DegradationState,
                      investment: InvestmentDecision, opts: milp.SolveOptions, basis=None):
    """Build and solve validation year ``state.year``; return the solve and the year's index.

    ``basis`` is the result's ``basis`` of the year before. A year of more
    than ``BLOCK_DAYS`` days without generator commitment is built and solved
    in day blocks (:func:`_solve_days`, path ``days``), one block's model
    alive at a time, the first block warm-started from ``basis`` or, without
    one, from a cold solve of the year's first ``SEED_DAYS`` days. The whole
    year is built and solved as :func:`solve_dispatch` solves a model when it
    has fewer days or commitment, when the blocks fail their check or when
    their optimum charges and discharges in one hour; its solve starts from
    ``basis`` when that covers the year's model (the year before was solved
    whole and ended on an LP). All of the year's HiGHS calls share
    ``opts.time_limit`` (:class:`_Solves`); once it is spent the year is
    ``time-limit``, and the whole year is not built.
    """
    shape = (1, *scenario.base_load.shape)
    solves, result = _Solves(opts), None
    if shape[1] > BLOCK_DAYS and not scenario.cder.committed:
        index = _index(scenario, shape, capital=False, eta_bess=state.eta_bess)
        result = _solve_days(scenario, state, investment, index, solves, basis)
        if result is not None and not _burns(result, index):
            return solves.total(result), index
        if solves.runtime >= opts.time_limit:  # spent: no call is left for the whole year
            return solves.total(_timed_out()), index
    problem, index = build_single_year(scenario, state, investment)
    return _solve_whole(problem, index, solves, result, basis), index
