"""Scenario configuration, time-series ingestion, and multi-year profile generation.

A scenario is a JSON document describing the planning horizon, technology
parameters, grid tariff, and references to hourly load / PV capacity-factor
CSV files. Its sections and keys are closed: an unknown one is an error.
Loaded scenarios are immutable value objects; profile generation replicates
the base year with a compounding load growth rate.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import DbioError
from .milp import MilpError, SolveOptions

HOURS_PER_YEAR = 8760
DAYS_PER_YEAR = 365
HOURS_PER_DAY = 24
SECTIONS = ("horizon", "solver", "cder", "pv", "bess", "tariff", "profiles")


class ScenarioError(DbioError, ValueError):
    """Raised when a scenario document fails parsing or validation.

    Carries the offending field path in the message (e.g. "bess.soc_min").
    """


def _require(cond, field_path, message):
    if not cond:
        raise ScenarioError(f"{field_path}: {message}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Horizon and system-level settings (the day/hour resolution is the profiles' shape)."""

    planning_years: int = 25
    load_growth: float = 0.005  # fraction per year
    ls_penalty: float = 1e6     # $/MWh, must dominate all marginal supply costs
    tie_limit: float = 0.0      # MW; 0 = islanded
    cyclic_soc: bool = True     # end-of-day stored energy returns to initial level
    solver: SolveOptions = field(default_factory=SolveOptions)

    def __post_init__(self):
        _require(self.planning_years >= 1, "horizon.planning_years", "must be >= 1")
        _require(self.load_growth > -1, "horizon.load_growth", "must be > -1")
        _require(self.tie_limit >= 0, "horizon.tie_limit", "must be >= 0")
        _require(self.ls_penalty >= 0, "horizon.ls_penalty", "must be >= 0")


@dataclass(frozen=True)
class CderParams:
    """Controllable DER (e.g. gas turbine) cost and output characteristics."""

    capital: float = 1_150_000.0  # $/MW
    op_cost: float = 44.75        # $/MWh
    no_load: float = 0.0          # $/h while committed
    p_min: float = 0.0            # MW minimum output when committed
    max_size: float = math.inf    # MW cap on installed capacity

    def __post_init__(self):
        for name in ("capital", "op_cost", "no_load", "p_min"):
            _require(getattr(self, name) >= 0, f"cder.{name}", "must be >= 0")
        _require(self.max_size > 0, "cder.max_size", "must be > 0")

    @property
    def committed(self) -> bool:
        """A minimum output or a no-load cost needs a commitment binary per hour."""
        return self.p_min > 0 or self.no_load > 0


@dataclass(frozen=True)
class PvParams:
    """PV cost and efficiency-fade characteristics."""

    capital: float = 1_450_000.0  # $/MW
    rep_frac: float = 0.41        # replacement cost as fraction of capital
    deg_rate: float = 0.005       # efficiency decline per year
    eta_init: float = 1.0         # initial conversion efficiency

    def __post_init__(self):
        _require(self.capital >= 0, "pv.capital", "must be >= 0")
        _require(0 <= self.rep_frac <= 1, "pv.rep_frac", "must be in [0, 1]")
        _require(0 <= self.deg_rate < 1, "pv.deg_rate", "must be in [0, 1)")
        _require(0 < self.eta_init <= 1, "pv.eta_init", "must be in (0, 1]")

    def efficiency_schedule(self, years: int) -> np.ndarray:
        """eta_init * (1 - deg_rate)^(y-1) for y = 1..years. The plan and the
        validation both read a year's PV efficiency from this one array."""
        return self.eta_init * (1.0 - self.deg_rate) ** np.arange(years)


@dataclass(frozen=True)
class CycleLifeCurveSpec:
    """Piecewise-linear cycle life vs depth of discharge, as (dod, cycles) knots."""

    points: tuple = (
        (0.10, 14_500.0),
        (0.20, 12_000.0),
        (0.90, 2_200.0),
        (1.00, 2_000.0),
    )

    def __post_init__(self):
        _require(len(self.points) >= 2, "bess.cycle_life_curve", "needs >= 2 points")
        dods = [p[0] for p in self.points]
        cycles = [p[1] for p in self.points]
        _require(all(0 < d <= 1 for d in dods), "bess.cycle_life_curve", "DOD must be in (0, 1]")
        _require(all(d1 < d2 for d1, d2 in zip(dods, dods[1:])),
                 "bess.cycle_life_curve", "DOD values must be strictly increasing")
        _require(all(c1 > c2 for c1, c2 in zip(cycles, cycles[1:])),
                 "bess.cycle_life_curve", "cycle counts must be strictly decreasing")
        _require(all(c > 0 for c in cycles), "bess.cycle_life_curve", "cycle counts must be > 0")

    @property
    def max_dod(self):
        return float(self.points[-1][0])

    @property
    def cl_at_max(self):
        return float(self.points[-1][1])

    def cycle_life(self, dod):
        """Interpolated cycle life at a DOD, clamped to the curve's span."""
        pts = np.asarray(self.points, dtype=float)
        return float(np.interp(dod, pts[:, 0], pts[:, 1]))


@dataclass(frozen=True)
class BessParams:
    """Battery storage cost, operating window, and degradation characteristics.

    The roundtrip efficiency (applied on charge) is :meth:`efficiency`, the
    closed-form least-squares efficiency-vs-SOH line through
    ``eff_model_points``: the plan and validation year 1 charge at its value
    at ``soh_init``.
    """

    capital: float = 469_000.0  # $/MWh
    rep_frac: float = 0.79      # replacement cost as fraction of capital
    t_chg: float = 1.0          # hours to full charge at rated power
    t_dchg: float = 1.0         # hours to full discharge at rated power
    soc_min: float = 0.1
    soc_max: float = 0.9
    soh_init: float = 1.0
    eol_frac: float = 0.8       # capacity fraction considered end-of-life
    deg_cost_cycle_life: float = 3600.0  # reference cycle life for the $/MWh throughput cost
    cycle_life_curve: CycleLifeCurveSpec = field(default_factory=CycleLifeCurveSpec)
    # (SOH, roundtrip efficiency) samples for the linear efficiency-vs-SOH fit
    eff_model_points: tuple = ((1.0, 0.90), (0.8, 0.86))

    def __post_init__(self):
        _require(self.capital >= 0, "bess.capital", "must be >= 0")
        _require(0 <= self.rep_frac <= 1, "bess.rep_frac", "must be in [0, 1]")
        _require(self.t_chg > 0, "bess.t_chg", "must be > 0")
        _require(self.t_dchg > 0, "bess.t_dchg", "must be > 0")
        _require(0 <= self.soc_min < self.soc_max <= 1, "bess.soc_min",
                 "need 0 <= soc_min < soc_max <= 1")
        _require(0 < self.eol_frac < 1, "bess.eol_frac", "must be in (0, 1)")
        _require(self.eol_frac < self.soh_init <= 1, "bess.soh_init",
                 "must be in (eol_frac, 1]")
        # The stored-energy window is [soc_min, soh_init*soc_max] of capacity.
        _require(self.soc_min < self.soh_init * self.soc_max, "bess.soc_min",
                 "must be below soh_init * soc_max")
        _require(self.deg_cost_cycle_life > 0, "bess.deg_cost_cycle_life", "must be > 0")
        _require(len({soh for soh, _ in self.eff_model_points}) >= 2, "bess.eff_model_points",
                 "needs >= 2 distinct SOH values")
        _require(all(0 < v <= 1 for point in self.eff_model_points for v in point),
                 "bess.eff_model_points", "SOH and efficiency must be in (0, 1]")

    @functools.cached_property
    def _efficiency_line(self) -> tuple:
        """(slope, mean SOH, mean efficiency) of the least-squares line through
        ``eff_model_points``, in closed form: ``np.polyfit`` would fault in
        LAPACK (about 1.1 MB resident) for this one fit."""
        soh, eta = zip(*self.eff_model_points)
        x_mean, y_mean = sum(soh) / len(soh), sum(eta) / len(eta)
        w = (sum((x - x_mean) * (y - y_mean) for x, y in zip(soh, eta))
             / sum((x - x_mean) ** 2 for x in soh))
        return w, x_mean, y_mean

    def efficiency(self, soh: float) -> float:
        """Roundtrip efficiency at ``soh``: the least-squares line through
        ``eff_model_points``, clamped to [1e-9, 1]. The line is fitted once and
        taken about its means: through the default points it gives exactly 0.9
        at SOH 1.0 and 0.86 at 0.8."""
        w, x_mean, y_mean = self._efficiency_line
        return min(1.0, max(1e-9, y_mean + w * (soh - x_mean)))

    @property
    def deg_cost_per_mwh(self):
        """Throughput degradation cost factor: capital * rep_frac / reference cycle life."""
        return self.capital * self.rep_frac / self.deg_cost_cycle_life


@dataclass(frozen=True)
class TariffSchedule:
    """Hourly grid import price and export valuation factor.

    ``import_price`` is a (days, hours) array in $/MWh, one flat price or an
    hourly price file; the export price is ``export_factor`` times the import
    price at the same hour.
    """

    import_price: np.ndarray
    export_factor: float = 0.8

    def __post_init__(self):
        _require(0 <= self.export_factor <= 1, "tariff.export_factor", "must be in [0, 1]")
        _require(np.all(self.import_price >= 0), "tariff.import_price", "must be >= 0 everywhere")

    @property
    def export_price(self):
        return self.export_factor * self.import_price


@dataclass(frozen=True)
class MultiYearProfiles:
    """Per-(year, day, hour) load (MW) and PV capacity factor arrays."""

    load: np.ndarray   # (Y, D, T)
    pv_cf: np.ndarray  # (Y, D, T)


@dataclass(frozen=True)
class Scenario:
    """Fully loaded scenario: configuration, parameters, tariff, and base profiles."""

    cfg: ScenarioConfig
    cder: CderParams
    pv: PvParams
    bess: BessParams
    tariff: TariffSchedule
    base_load: np.ndarray   # (D, T) MW
    base_pv_cf: np.ndarray  # (D, T)

    def __post_init__(self):
        shape = np.shape(self.base_load)
        _require(len(shape) == 2 and np.shape(self.base_pv_cf) == shape
                 and np.shape(self.tariff.import_price) == shape, "profiles",
                 "base_load, base_pv_cf and tariff.import_price need one (days, hours) shape")
        _require(np.all(self.base_load >= 0), "profiles.load_file", "negative load values")
        _require(np.all((self.base_pv_cf >= 0) & (self.base_pv_cf <= 1)),
                 "profiles.pv_cf_file", "capacity factors must be in [0, 1]")

    @property
    def alpha(self) -> float:
        """Profile repetitions per year: 365 over the representative days."""
        return DAYS_PER_YEAR / self.base_load.shape[0]

    def profiles(self) -> MultiYearProfiles:
        """Base profiles over the horizon: load grows by ``load_growth`` a year; PV
        capacity factors stay constant (PV aging is the yearly efficiency)."""
        years = self.cfg.planning_years
        growth = (1.0 + self.cfg.load_growth) ** np.arange(years)
        return MultiYearProfiles(
            load=growth[:, None, None] * self.base_load,
            pv_cf=np.tile(np.asarray(self.base_pv_cf, dtype=float), (years, 1, 1)))


def representative_day_indices(n_days: int, rep_days: int) -> np.ndarray:
    """Deterministic uniform-stride day selection: floor((k + 0.5) * n / D)."""
    k = np.arange(rep_days)
    return np.floor((k + 0.5) * n_days / rep_days).astype(int)


def reduce_to_representative_days(series, rep_days: int) -> np.ndarray:
    """Downsample an 8760-hour series to ``rep_days`` whole days.

    Days are picked at a uniform stride over the year, preserving each
    selected day's hourly ordering. rep_days = 365 is the identity.
    """
    series = np.asarray(series, dtype=float)
    if series.size != HOURS_PER_YEAR:
        raise ScenarioError(f"series length {series.size} != {HOURS_PER_YEAR}")
    if not 1 <= rep_days <= DAYS_PER_YEAR:
        raise ScenarioError(f"rep_days {rep_days} out of [1, 365]")
    days = series.reshape(DAYS_PER_YEAR, 24)
    return days[representative_day_indices(DAYS_PER_YEAR, rep_days)].ravel()


def _number(value, default, path):
    """``value`` of a document field whose default is ``default``, checked: a
    bool field takes a bool, an int field an int and a float field an int or a
    float, and a number must be finite unless it equals an infinite default."""
    if isinstance(default, bool):
        _require(isinstance(value, bool), path, f"must be true or false, got {value!r}")
        return value
    kinds = int if isinstance(default, int) else (int, float)
    _require(isinstance(value, kinds) and not isinstance(value, bool), path,
             f"must be {'an integer' if kinds is int else 'a number'}, got {value!r}")
    _require(math.isfinite(value) or value == default, path, f"must be finite, got {value!r}")
    return value


def _points(value, path):
    """A document's list of [x, y] number pairs, as a tuple of float pairs."""
    ok = isinstance(value, list) and all(isinstance(p, list) and len(p) == 2 for p in value)
    _require(ok, path, "must be a list of [x, y] pairs")
    return tuple((float(_number(x, 0.0, path)), float(_number(y, 0.0, path)))
                 for x, y in value)


def _read_profile(base: Path, name, field_path: str, rep_days: int) -> np.ndarray:
    """Read the ``hour,value`` CSV that document field ``field_path`` names
    (relative to ``base``) as a (rep_days, 24) array.

    The file holds either ``rep_days`` days of hours or a full 8760-hour
    year, which is reduced to the representative days. Blank lines are
    skipped and a value may be quoted, as the ``csv`` module reads them.
    """
    _require(isinstance(name, str), field_path, f"must be a file name, got {name!r}")
    path = base / name
    _require(path.exists(), field_path, f"file not found: {path}")
    # np.loadtxt is given the open file: given a path, it imports gzip to open it.
    with open(path) as fh:
        if "," not in fh.readline():
            raise ScenarioError(f"{path}: expected a two-column 'hour,value' header")
        try:
            # A file without rows fails the row count below, not with numpy's warning.
            with warnings.catch_warnings(action="ignore"):
                arr = np.loadtxt(fh, delimiter=",", usecols=1, ndmin=1, comments=None,
                                 quotechar='"')
        except ValueError as exc:
            raise ScenarioError(f"{path}: bad row: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ScenarioError(f"{path}: non-finite value {arr[bad[0]]} in data row {bad[0] + 1}")
    expected_lengths = {rep_days * HOURS_PER_DAY, HOURS_PER_YEAR}
    if arr.size not in expected_lengths:
        raise ScenarioError(
            f"{path}: {arr.size} rows, expected one of {sorted(expected_lengths)}")
    if arr.size != rep_days * HOURS_PER_DAY:
        arr = reduce_to_representative_days(arr, rep_days)
    return arr.reshape(rep_days, HOURS_PER_DAY)


def _known(doc, keys, path):
    """``doc`` if it is an object whose keys are all in ``keys``."""
    _require(isinstance(doc, dict), path, "must be an object")
    unknown = set(doc) - set(keys)
    _require(not unknown, path, f"unknown field(s) {sorted(unknown)}")
    return doc


def _build(cls, doc, path_prefix, **parts):
    """Construct a dataclass from a document section plus the already built
    ``parts``, rejecting unknown keys and numbers that fail :func:`_number`
    against the field's default."""
    fields = {k: f for k, f in cls.__dataclass_fields__.items() if k not in parts}
    for key, value in _known(doc, fields, path_prefix).items():
        if isinstance(fields[key].default, (int, float)):  # bool is an int
            _number(value, fields[key].default, f"{path_prefix}.{key}")
    return cls(**doc, **parts)


def load_scenario(config_path) -> Scenario:
    """Load a scenario JSON document and its referenced CSV files.

    Relative file references are resolved against the config's directory.
    Missing optional fields take the documented defaults; an unknown section
    or key is an error. ``horizon.rep_days`` sets the days the CSV files are
    read or reduced to, and so :attr:`Scenario.alpha`.
    """
    config_path = Path(config_path)
    if not config_path.exists():
        raise ScenarioError(f"scenario file not found: {config_path}")
    try:
        doc = json.loads(config_path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{config_path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    base = config_path.parent
    for name, section in _known(doc, SECTIONS, "scenario").items():
        _require(isinstance(section, dict), name, "must be an object")

    horizon = dict(doc.get("horizon", {}))
    try:
        solver = _build(SolveOptions, doc.get("solver", {}), "solver")
    except MilpError as exc:
        raise ScenarioError(f"solver: {exc}") from exc
    rep_days = _number(horizon.pop("rep_days", DAYS_PER_YEAR), DAYS_PER_YEAR, "horizon.rep_days")
    _require(1 <= rep_days <= DAYS_PER_YEAR, "horizon.rep_days", "must be in [1, 365]")
    cfg = _build(ScenarioConfig, horizon, "horizon", solver=solver)

    cder_doc = dict(doc.get("cder", {}))
    if cder_doc.get("max_size") is None:
        cder_doc.pop("max_size", None)
    cder = _build(CderParams, cder_doc, "cder")
    pv = _build(PvParams, doc.get("pv", {}), "pv")

    bess_doc = dict(doc.get("bess", {}))
    if "cycle_life_curve" in bess_doc:
        bess_doc["cycle_life_curve"] = CycleLifeCurveSpec(
            points=_points(bess_doc["cycle_life_curve"], "bess.cycle_life_curve"))
    if "eff_model_points" in bess_doc:
        bess_doc["eff_model_points"] = _points(bess_doc["eff_model_points"],
                                               "bess.eff_model_points")
    bess = _build(BessParams, bess_doc, "bess")

    tariff = _load_tariff(doc.get("tariff", {}), rep_days, base)

    prof = _known(doc.get("profiles", {}), ("load_file", "pv_cf_file"), "profiles")
    for key in ("load_file", "pv_cf_file"):
        _require(key in prof, f"profiles.{key}", "required")
    return Scenario(cfg=cfg, cder=cder, pv=pv, bess=bess, tariff=tariff,
                    base_load=_read_profile(base, prof["load_file"], "profiles.load_file",
                                            rep_days),
                    base_pv_cf=_read_profile(base, prof["pv_cf_file"], "profiles.pv_cf_file",
                                             rep_days))


def _load_tariff(doc, rep_days: int, base: Path) -> TariffSchedule:
    """The import price is ``price_file``'s hourly prices or the flat ``import_price``."""
    doc = dict(_known(doc, ("import_price", "price_file", "export_factor"), "tariff"))
    _require("import_price" not in doc or "price_file" not in doc, "tariff",
             "give import_price or price_file, not both")
    if "price_file" in doc:
        import_price = _read_profile(base, doc.pop("price_file"), "tariff.price_file",
                                     rep_days)
    else:
        price = _number(doc.pop("import_price", 0.0), 0.0, "tariff.import_price")
        import_price = np.full((rep_days, HOURS_PER_DAY), float(price))
    return _build(TariffSchedule, doc, "tariff", import_price=import_price)
