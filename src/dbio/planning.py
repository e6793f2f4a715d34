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

``horizon.big_m`` appears only in the commitment rows and those exclusion
rows; the PV and battery terms are linear because installed sizes enter with
constant coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import milp
from .degradation import DegradationState
from .milp import EQ, GE, INF, LE, MilpProblem
from .scenario import Scenario


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


def _build(scenario: Scenario, load, pv_cf, eta_pv_by_year, eta_bess, name, *,
           size_lo, size_hi, capital: bool):
    """Assemble the model over (Y, D, T) ``load`` and ``pv_cf``. ``size_lo``/``size_hi``
    bound (s_pv, s_bess, p_cder_max); a pinned size has lo == hi, so every build
    has the same structure. ``capital`` puts capital costs in the objective."""
    cfg, cder, pv, bess = scenario.cfg, scenario.cder, scenario.pv, scenario.bess
    Y, D, T = load.shape
    commit = cder.p_min > 0 or cder.no_load > 0

    prob = MilpProblem(name=name)
    alpha = scenario.alpha
    tie = cfg.tie_limit

    # Variables: the four sizes, then the S series of each flattened hour h
    # at ids 4 + S*h + j (j = position in ``names``).
    s_pv, s_bess, p_cder_max, e_init = (int(i) for i in prob.add_variables(
        4, lower=[*size_lo, 0.0], upper=[*size_hi, INF],
        names=["s_pv", "s_bess", "p_cder_max", "e_init"], family="sizes"))
    names = ModelIndex.SERIES + ("u_cder",) * commit
    upper = {"p_ls": load, "p_imp": tie, "p_exp": tie, "u_cder": 1.0}
    S = len(names)
    ids = prob.add_variables(
        Y * D * T * S,
        upper=np.stack([np.broadcast_to(upper.get(k, INF), (Y, D, T))
                        for k in names], axis=-1).ravel(),
        binary=np.tile([k == "u_cder" for k in names], Y * D * T),
        names=lambda: [f"{k}_{y}_{d}_{t}" for y, d, t in np.ndindex(Y, D, T)
                       for k in names], family="dispatch")
    v = {k: ids[j::S].reshape(Y, D, T) for j, k in enumerate(names)}

    soc_lo = bess.soc_min
    soc_hi = bess.soh_init * bess.soc_max
    pv_avail = np.asarray(eta_pv_by_year)[:, None, None] * pv_cf
    # Energy tracking; every day restarts from the shared initial level.
    e_prev = np.concatenate([np.full((Y, D, 1), e_init), v["e_bess"][..., :-1]], axis=-1)

    # (family, terms, sense, rhs) of the rows written for every hour.
    hourly = [
        # Hourly power balance: supply = demand + sinks.
        ("balance", [(v["p_cder"], 1.0), (v["p_dchg"], 1.0), (s_pv, pv_avail),
                     (v["p_ls"], 1.0), (v["p_imp"], 1.0), (v["p_chg"], -1.0),
                     (v["p_curt"], -1.0), (v["p_exp"], -1.0)], EQ, load),
        # Generator output within the installed capacity.
        ("cder_cap", [(v["p_cder"], 1.0), (p_cder_max, -1.0)], LE, 0.0),
        # Curtailment cannot exceed available PV power.
        ("curt_cap", [(v["p_curt"], 1.0), (s_pv, -pv_avail)], LE, 0.0),
        # Stored-energy window.
        ("soc_lo", [(v["e_bess"], 1.0), (s_bess, -soc_lo)], GE, 0.0),
        ("soc_hi", [(v["e_bess"], 1.0), (s_bess, -soc_hi)], LE, 0.0),
        # Charge/discharge rate limits on capacity.
        ("chg_rate", [(v["p_chg"], 1.0), (s_bess, -1.0 / bess.t_chg)], LE, 0.0),
        ("dchg_rate", [(v["p_dchg"], 1.0), (s_bess, -1.0 / bess.t_dchg)], LE, 0.0),
        ("etrack", [(v["e_bess"], 1.0), (e_prev, -1.0), (v["p_chg"], -eta_bess),
                    (v["p_dchg"], 1.0)], EQ, 0.0),
    ]
    if commit:
        hourly += [
            # Committed output lies in [p_min, big_m]; uncommitted output is 0.
            ("cder_on", [(v["p_cder"], 1.0), (v["u_cder"], -cfg.big_m)], LE, 0.0),
            ("cder_min", [(v["p_cder"], 1.0), (v["u_cder"], -cder.p_min)], GE, 0.0),
        ]
    # Rows: einit_lo, einit_hi, then for each flattened day g the K rows of
    # each hour t at 2 + g*per_day + K*t + k, then the day's cyclic row.
    K = len(hourly)
    per_day = K * T + int(cfg.cyclic_soc)
    hour_row = 2 + per_day * np.arange(Y * D).reshape(Y, D, 1) + K * np.arange(T)
    families = [("einit_lo", 0, [(e_init, 1.0), (s_bess, -soc_lo)], GE, 0.0),
                ("einit_hi", 1, [(e_init, 1.0), (s_bess, -soc_hi)], LE, 0.0)]
    families += [(family, hour_row + k, terms, sense, rhs)
                 for k, (family, terms, sense, rhs) in enumerate(hourly)]
    if cfg.cyclic_soc:
        families.append(("cyclic", hour_row[..., -1] + K,
                         [(v["e_bess"][..., -1], 1.0), (e_init, -1.0)], EQ, 0.0))
    prob.add_constraints(families, names=lambda: ["einit_lo", "einit_hi"] + [
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

    index = ModelIndex(
        shape=(Y, D, T), series=v,
        scalars={"s_pv": s_pv, "s_bess": s_bess, "p_cder_max": p_cder_max,
                 "e_init": e_init},
        scenario=scenario, capital=capital)
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
    from charging and discharging at once (big-M on ``horizon.big_m``)."""
    Y, D, T = index.shape
    n = Y * D * T
    u = problem.add_variables(
        2 * n, upper=1.0, binary=True, family="exclusion",
        names=lambda: [f"{k}_{y}_{d}_{t}" for k in ("u_chg", "u_dchg")
                       for y, d, t in np.ndindex(Y, D, T)])
    u_chg, u_dchg = u[:n], u[n:]
    big_m = index.scenario.cfg.big_m
    rows = np.arange(n)
    families = [("excl_bess", rows, [(u_chg, 1.0), (u_dchg, 1.0)], LE, 1.0),
                ("chg_on", n + rows, [(index.series["p_chg"].ravel(), 1.0), (u_chg, -big_m)],
                 LE, 0.0),
                ("dchg_on", 2 * n + rows,
                 [(index.series["p_dchg"].ravel(), 1.0), (u_dchg, -big_m)], LE, 0.0)]
    problem.add_constraints(families, names=lambda: [
        f"{f}_{y}_{d}_{t}" for f, *_ in families for y, d, t in np.ndindex(Y, D, T)])


def solve_dispatch(problem: MilpProblem, index: ModelIndex,
                   opts: milp.SolveOptions) -> milp.SolveResult:
    """Solve a model from :func:`build_integrated` or :func:`build_single_year`.

    The model has no charge/discharge exclusion, so an optimum that must burn
    a surplus may charge and discharge in one hour. Only then is the exclusion
    appended to ``problem`` and the problem solved again; ``runtime`` covers
    both solves.
    """
    result = milp.solve(problem, opts)
    if result.has_solution and np.max(np.minimum(result.primal[index.series["p_chg"]],
                                                  result.primal[index.series["p_dchg"]])) > 1e-6:
        first = result.runtime
        _add_battery_exclusion(problem, index)
        result = milp.solve(problem, opts)
        result.runtime += first
    return result
