"""Post-optimization degradation math.

Rainflow cycle counting of battery state-of-charge traces,
depth-of-discharge weighted equivalent full cycles, per-cycle capacity loss,
and the year-over-year capacity / state-of-health / efficiency chain.

Depth of discharge is measured relative to rated capacity: traces handed to
:func:`count_cycles` are stored energy divided by rated MWh, so cycle ranges
are DOD fractions directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import DbioError
from .rainflow import extract_cycles
from .scenario import BessParams, CycleLifeCurveSpec, PvParams

BIN_WIDTH = 0.05  # DOD histogram bin width


class DegradationError(DbioError, ValueError):
    pass


class BatteryExhaustedError(DegradationError):
    """Capacity would reach zero or below; end-of-life breach must be surfaced."""


@dataclass(frozen=True)
class DegradationState:
    """Battery and PV condition entering a given year."""

    year: int
    capacity: float   # MWh
    soh: float
    eta_bess: float
    eta_pv: float
    efc: float = 0.0  # equivalent full cycles accrued in the prior year
    deg: float = 0.0  # MWh lost in the prior year


def bin_midpoint(dod_range: float, bin_width: float) -> float:
    """Nearest-bin-center assignment, half-up at ties."""
    return math.floor(dod_range / bin_width + 0.5) * bin_width


def count_cycles(soc_series) -> dict:
    """Rainflow-count a normalized state-of-charge trace into ``BIN_WIDTH`` DOD bins.

    Returns ``{dod_midpoint: cycles}``: interior cycles count 1.0, residual
    half cycles 0.5. Ranges smaller than half a bin (solver round-off on a
    flat trace) fall into the zero bin and are dropped.
    """
    soc = np.asarray(soc_series, dtype=float)
    if soc.size < 2:
        raise DegradationError("soc_series needs at least 2 samples")
    if np.any(soc < -1e-9) or np.any(soc > 1 + 1e-9):
        raise DegradationError("soc_series values must be in [0, 1]")
    ranges, weights = extract_cycles(np.clip(soc, 0.0, 1.0))
    bins: dict = {}
    for r, w in zip(ranges, weights):
        mid = bin_midpoint(float(r), BIN_WIDTH)
        if mid <= 0.0:
            continue
        bins[mid] = bins.get(mid, 0.0) + float(w)
    return bins


def degradation_factor(dod: float, curve: CycleLifeCurveSpec) -> float:
    """Cycle-life at max DOD over cycle-life at this DOD (shallow cycles wear less)."""
    if dod <= 0:
        raise DegradationError("dod must be in (0, 1]")
    return curve.cl_at_max / curve.cycle_life(min(dod, 1.0))


def equivalent_full_cycles(hist: dict, curve: CycleLifeCurveSpec,
                           alpha: float = 1.0) -> float:
    """DOD-weighted cycle count of a :func:`count_cycles` histogram, scaled by
    the profile repetition factor."""
    return alpha * sum((degradation_factor(dod, curve) * n
                        for dod, n in hist.items()), 0.0)


def degradation_per_cycle(rated: float, eol_frac: float, cycles_at_max_dod: float) -> float:
    """Capacity loss per equivalent full cycle, in MWh."""
    if rated <= 0 or cycles_at_max_dod <= 0:
        raise DegradationError("rated and cycles_at_max_dod must be > 0")
    if not 0 < eol_frac < 1:
        raise DegradationError("eol_frac must be in (0, 1)")
    return (1.0 - eol_frac) * rated / cycles_at_max_dod


def advance_state(prev: DegradationState, hist: dict, bess: BessParams, pv: PvParams,
                  rated: float, alpha: float = 1.0) -> DegradationState:
    """Apply one year of cycling wear and PV fade to the condition chain.

    ``hist`` is the year's :func:`count_cycles` histogram and ``rated`` the
    as-built battery capacity in MWh; capacity loss is equivalent full cycles
    (weighted by ``bess.cycle_life_curve``) times the per-cycle loss, and the
    next efficiency is ``bess.efficiency`` at the new SOH. An empty histogram
    leaves the battery as it was, which is also the step of a battery of
    zero size. Raises :class:`BatteryExhaustedError` instead of clamping
    when a loss would take the capacity to zero or below.
    """
    if prev.capacity < 0 or (prev.capacity == 0 and rated > 0):
        raise DegradationError("prev.capacity must be > 0 (or 0 with rated == 0)")
    curve = bess.cycle_life_curve
    efc = equivalent_full_cycles(hist, curve, alpha)
    dpc = degradation_per_cycle(rated, bess.eol_frac, curve.cl_at_max) if rated > 0 else 0.0
    deg = efc * dpc
    capacity = prev.capacity - deg
    if deg > 0 and capacity <= 0:
        raise BatteryExhaustedError(
            f"year {prev.year}: degradation {deg:.6g} MWh exhausts remaining "
            f"capacity {prev.capacity:.6g} MWh")
    soh = capacity / rated * bess.soh_init if rated > 0 else prev.soh
    return DegradationState(
        year=prev.year + 1,
        capacity=capacity,
        soh=soh,
        eta_bess=bess.efficiency(soh),
        eta_pv=float(pv.efficiency_schedule(prev.year + 1)[prev.year]),
        efc=efc,
        deg=deg)
