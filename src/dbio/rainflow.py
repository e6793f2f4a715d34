"""Rainflow cycle extraction (four-point rule).

A yearly state-of-charge trace has at most 8760 points, so plain Python is
fast enough: counting one takes a few milliseconds.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"  # the only kernel; reported in run environments


def _reversals(values: np.ndarray) -> np.ndarray:
    """Turning points of the series: endpoints plus strict slope-sign changes."""
    out = []
    prev_slope = 0.0
    for v in values.tolist():  # Python floats: indexing numpy scalars is 8x slower
        if not out:
            out.append(v)
            continue
        dv = v - out[-1]
        if dv == 0.0:
            continue
        if prev_slope == 0.0 or (dv > 0.0) != (prev_slope > 0.0):
            out.append(v)
        else:
            out[-1] = v  # extend the current monotone run
        prev_slope = dv
    return np.asarray(out, dtype=np.float64)


def extract_cycles(values):
    """Decompose a series into cycles via the four-point rainflow rule.

    Returns ``(ranges, weights)`` arrays: interior cycles carry weight 1.0,
    residual half cycles 0.5. Ranges are in the units of the input series.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    rev = _reversals(values)
    ranges = []
    weights = []
    stack = []
    for v in rev.tolist():
        stack.append(v)
        while len(stack) >= 4:
            x1 = abs(stack[-3] - stack[-4])
            x2 = abs(stack[-2] - stack[-3])
            x3 = abs(stack[-1] - stack[-2])
            if x2 <= x1 and x2 <= x3:
                ranges.append(x2)
                weights.append(1.0)
                del stack[-3:-1]
            else:
                break
    for a, b in zip(stack, stack[1:]):
        ranges.append(abs(b - a))
        weights.append(0.5)
    return np.asarray(ranges, dtype=np.float64), np.asarray(weights, dtype=np.float64)
