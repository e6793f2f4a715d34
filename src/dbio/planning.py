"""Multi-year microgrid planning MILP and its single-year fixed-investment variant.

Decision variables per (year, day, hour): controllable-generator output,
battery charge/discharge power and stored energy, load shed, PV curtailment,
grid import/export, and the five commitment/status binaries. Global variables:
PV size (MW), battery capacity (MWh), generator capacity (MW), and the shared
initial battery energy level.

Big-M linearization removes the products of binaries with the (variable)
installed capacities; the battery power limits and PV terms stay linear
because installed sizes enter with constant coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import milp
from .milp import EQ, GE, INF, LE, MilpProblem
from .scenario import Scenario, MultiYearProfiles


class ModelBuildError(ValueError):
    pass


@dataclass(frozen=True)
class InvestmentDecision:
    s_pv: float        # MW
    s_bess: float      # MWh (rated)
    p_cder_max: float  # MW

    def __post_init__(self):
        if min(self.s_pv, self.s_bess, self.p_cder_max) < 0:
            raise ModelBuildError("investment sizes must be >= 0")


@dataclass(frozen=True)
class YearOverrides:
    """Degraded parameters injected into a single-year build."""

    eta_pv: float
    eta_bess: float
    s_bess_y: float  # degraded capacity, MWh


@dataclass
class ModelIndex:
    """Variable index maps plus the data needed to interpret a primal vector."""

    shape: tuple  # (Y, D, T)
    series: dict  # name -> int array of shape (Y, D, T)
    scalars: dict  # name -> int
    scenario: Scenario
    capital: bool  # capital costs are in the objective (sizes are decisions)

    SERIES = ("p_cder", "p_chg", "p_dchg", "p_ls", "p_imp", "p_exp", "p_curt",
              "e_bess", "u_cder", "u_chg", "u_dchg", "u_imp", "u_exp")
    BINARIES = ("u_cder", "u_chg", "u_dchg", "u_imp", "u_exp")


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
        return (self.costs["capital"] + self.costs["cder_op"] + self.costs["pv_deg"]
                + self.costs["bess_deg"] + self.costs["shed_penalty"]
                + self.costs["import_cost"] - self.costs["export_revenue"])


def pv_efficiency_schedule(pv, years: int) -> np.ndarray:
    """eta_init * (1 - deg_rate)^(y-1) for y = 1..years."""
    return pv.eta_init * (1.0 - pv.deg_rate) ** np.arange(years)


def _build(scenario: Scenario, profiles: MultiYearProfiles, eta_pv_by_year, eta_bess, name,
           *, fixed: InvestmentDecision | None = None,
           overrides: YearOverrides | None = None, pin_s_bess: float | None = None):
    """Assemble the MILP. With ``fixed`` (and the year's ``overrides``) every
    size is pinned and capital costs are left out of the objective."""
    cfg, cder, pv, bess = scenario.cfg, scenario.cder, scenario.pv, scenario.bess
    Y, D, T = profiles.load.shape
    if profiles.pv_cf.shape != (Y, D, T):
        raise ModelBuildError("profiles: load/pv_cf shape mismatch")
    if len(eta_pv_by_year) != Y:
        raise ModelBuildError("eta_pv_by_year length must match horizon")
    if scenario.tariff.import_price.shape != (D, T):
        raise ModelBuildError("tariff shape mismatch")

    prob = MilpProblem(name=name)
    alpha = cfg.alpha
    big_m = cfg.big_m
    tie = cfg.tie_limit
    load = profiles.load
    pv_cf = profiles.pv_cf
    imp_price = scenario.tariff.import_price
    exp_price = scenario.tariff.export_price
    capital = fixed is None

    # Capacity variables. Pinned sizes are encoded as lb == ub so the model
    # structure (and variable count) is identical in all build modes.
    if fixed is not None:
        if overrides.s_bess_y > fixed.s_bess + 1e-12:
            raise ModelBuildError(
                f"override capacity {overrides.s_bess_y} exceeds rated {fixed.s_bess}")
        s_pv_bounds = (fixed.s_pv, fixed.s_pv)
        p_max_bounds = (fixed.p_cder_max, fixed.p_cder_max)
        s_bess_bounds = (overrides.s_bess_y, overrides.s_bess_y)
    else:
        s_pv_bounds = (0.0, INF)
        p_max_bounds = (0.0, cder.max_size)
        if pin_s_bess is not None:
            s_bess_bounds = (pin_s_bess, pin_s_bess)
        else:
            s_bess_bounds = (0.0, INF)

    # Variables: the four sizes, then the 13 series of each flattened hour h
    # at ids 4 + 13*h + j (j = position in ModelIndex.SERIES).
    s_pv, s_bess, p_cder_max, e_init = (int(i) for i in prob.add_variables(
        4, lower=[s_pv_bounds[0], s_bess_bounds[0], p_max_bounds[0], 0.0],
        upper=[s_pv_bounds[1], s_bess_bounds[1], p_max_bounds[1], INF],
        names=["s_pv", "s_bess", "p_cder_max", "e_init"], family="sizes"))
    u_grid_ub = 1.0 if tie > 0 else 0.0
    upper = {"p_ls": load, "p_imp": tie, "p_exp": tie, "u_cder": 1.0, "u_chg": 1.0,
             "u_dchg": 1.0, "u_imp": u_grid_ub, "u_exp": u_grid_ub}
    S = len(ModelIndex.SERIES)
    ids = prob.add_variables(
        Y * D * T * S,
        upper=np.stack([np.broadcast_to(upper.get(k, INF), (Y, D, T))
                        for k in ModelIndex.SERIES], axis=-1).ravel(),
        binary=np.tile([k in ModelIndex.BINARIES for k in ModelIndex.SERIES], Y * D * T),
        names=lambda: [f"{k}_{y}_{d}_{t}" for y, d, t in np.ndindex(Y, D, T)
                       for k in ModelIndex.SERIES], family="dispatch")
    v = {k: ids[j::S].reshape(Y, D, T) for j, k in enumerate(ModelIndex.SERIES)}

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
        # Generator limits against variable installed capacity (big-M form).
        ("cder_on", [(v["p_cder"], 1.0), (v["u_cder"], -big_m)], LE, 0.0),
        ("cder_cap", [(v["p_cder"], 1.0), (p_cder_max, -1.0)], LE, 0.0),
        ("cder_min", [(v["p_cder"], 1.0), (v["u_cder"], -big_m)], GE, cder.p_min - big_m),
        # Curtailment cannot exceed available PV power.
        ("curt_cap", [(v["p_curt"], 1.0), (s_pv, -pv_avail)], LE, 0.0),
        # Stored-energy window.
        ("soc_lo", [(v["e_bess"], 1.0), (s_bess, -soc_lo)], GE, 0.0),
        ("soc_hi", [(v["e_bess"], 1.0), (s_bess, -soc_hi)], LE, 0.0),
        # No simultaneous charge and discharge.
        ("excl_bess", [(v["u_chg"], 1.0), (v["u_dchg"], 1.0)], LE, 1.0),
        # Charge/discharge power: big-M on status, rate limit on capacity.
        ("chg_on", [(v["p_chg"], 1.0), (v["u_chg"], -big_m)], LE, 0.0),
        ("chg_rate", [(v["p_chg"], 1.0), (s_bess, -1.0 / bess.t_chg)], LE, 0.0),
        ("dchg_on", [(v["p_dchg"], 1.0), (v["u_dchg"], -big_m)], LE, 0.0),
        ("dchg_rate", [(v["p_dchg"], 1.0), (s_bess, -1.0 / bess.t_dchg)], LE, 0.0),
        ("etrack", [(v["e_bess"], 1.0), (e_prev, -1.0), (v["p_chg"], -eta_bess),
                    (v["p_dchg"], 1.0)], EQ, 0.0),
        # Grid limits and exclusivity.
        ("imp_cap", [(v["p_imp"], 1.0), (v["u_imp"], -tie)], LE, 0.0),
        ("exp_cap", [(v["p_exp"], 1.0), (v["u_exp"], -tie)], LE, 0.0),
        ("excl_grid", [(v["u_imp"], 1.0), (v["u_exp"], 1.0)], LE, 1.0),
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
    obj += [(v["p_cder"], alpha * cder.op_cost), (v["u_cder"], alpha * cder.no_load),
            (v["p_dchg"], alpha * bess.deg_cost_per_mwh), (v["p_ls"], alpha * cfg.ls_penalty),
            (v["p_imp"], alpha * imp_price), (v["p_exp"], -alpha * exp_price)]
    prob.set_objective(obj)

    index = ModelIndex(
        shape=(Y, D, T), series=v,
        scalars={"s_pv": s_pv, "s_bess": s_bess, "p_cder_max": p_cder_max,
                 "e_init": e_init},
        scenario=scenario, capital=capital)
    return prob, index


def build_integrated(scenario: Scenario, profiles: MultiYearProfiles | None = None, *,
                     pin_s_bess: float | None = None):
    """Build the full-horizon planning MILP (capital costs included).

    Battery state of health is held at its initial value; PV efficiency is
    precomputed per year from the geometric fade recursion. ``pin_s_bess``
    fixes the battery capacity and leaves the other sizes free, which is what
    the sizing search probes use.
    """
    if pin_s_bess is not None and pin_s_bess < 0:
        raise ModelBuildError("pin_s_bess must be >= 0")
    if profiles is None:
        profiles = scenario.profiles()
    Y = scenario.cfg.planning_years
    if profiles.load.shape[0] != Y:
        raise ModelBuildError(
            f"profiles span {profiles.load.shape[0]} years, horizon is {Y}")
    return _build(scenario, profiles, pv_efficiency_schedule(scenario.pv, Y),
                  scenario.bess.eta_rt, "integrated", pin_s_bess=pin_s_bess)


def build_single_year(scenario: Scenario, profiles_y: MultiYearProfiles,
                      overrides: YearOverrides, investment: InvestmentDecision):
    """Build one validation year: fixed sizes, degraded capacity and efficiencies.

    Capital terms are absent from the objective. The degraded capacity
    replaces the rated size throughout; the state-of-health factor in the
    stored-energy window stays at its initial value so capacity fade is
    applied exactly once.
    """
    if profiles_y.load.shape[0] != 1:
        raise ModelBuildError("single-year build expects exactly one year of profiles")
    return _build(scenario, profiles_y, np.asarray([overrides.eta_pv]), overrides.eta_bess,
                  "single_year", fixed=investment, overrides=overrides)


def extract_solution(result: milp.SolveResult, index: ModelIndex) -> DispatchSolution:
    """Read the primal vector into dispatch arrays and the cost breakdown."""
    if not result.has_solution:
        raise ModelBuildError(f"no solution to extract (status {result.status})")
    x = result.primal
    Y, D, T = index.shape
    series = {k: x[index.series[k]].astype(float) for k in ModelIndex.SERIES}
    # Clean tiny solver round-off on the nonnegative power series.
    for k in ("p_cder", "p_chg", "p_dchg", "p_ls", "p_imp", "p_exp", "p_curt"):
        np.clip(series[k], 0.0, None, out=series[k])

    sc = index.scenario
    cfg, cder, pv, bess = sc.cfg, sc.cder, sc.pv, sc.bess
    alpha = cfg.alpha
    inv = InvestmentDecision(
        s_pv=float(x[index.scalars["s_pv"]]),
        s_bess=float(x[index.scalars["s_bess"]]),
        p_cder_max=float(x[index.scalars["p_cder_max"]]))

    capital = 0.0
    if index.capital:
        capital = (inv.p_cder_max * cder.capital + inv.s_pv * pv.capital
                   + inv.s_bess * bess.capital)
    cder_op = alpha * float(np.sum(series["p_cder"]) * cder.op_cost
                            + np.sum(series["u_cder"]) * cder.no_load)
    pv_deg = Y * pv.rep_frac * pv.capital * inv.s_pv * pv.deg_rate
    bess_deg = alpha * bess.deg_cost_per_mwh * float(np.sum(series["p_dchg"]))
    shed = alpha * cfg.ls_penalty * float(np.sum(series["p_ls"]))
    imp_cost = alpha * float(np.sum(series["p_imp"] * sc.tariff.import_price[None]))
    exp_rev = alpha * float(np.sum(series["p_exp"] * sc.tariff.export_price[None]))
    costs = {"capital": capital, "cder_op": cder_op, "pv_deg": pv_deg,
             "bess_deg": bess_deg, "shed_penalty": shed,
             "import_cost": imp_cost, "export_revenue": exp_rev}

    sol = DispatchSolution(series=series, e_init=float(x[index.scalars["e_init"]]),
                           investment=inv, costs=costs,
                           objective=result.objective, shape=(Y, D, T))
    total = sol.cost_total
    scale = max(1.0, abs(result.objective))
    if abs(total - result.objective) > 1e-6 * scale:
        raise ModelBuildError(
            f"cost breakdown {total} inconsistent with objective {result.objective}")
    return sol
