"""Rainflow cycle extraction (four-point rule).

The turning points of a trace are found by numpy; the four-point stack then
runs in plain Python over those alone, which a yearly state-of-charge trace
of 8760 points has far fewer of.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"  # the only kernel; reported in run environments


def _reversals(values: np.ndarray) -> np.ndarray:
    """Turning points of the series: endpoints plus strict slope-sign changes.

    A plateau adds nothing, and each monotone run between two turning points
    keeps only its last sample, whose step ends the run."""
    steps = values[1:] - values[:-1]
    moved = steps.nonzero()[0]  # sample i + 1 differs from sample i
    if moved.size == 0:
        return values[:1].copy()
    rising = steps[moved] > 0.0
    last = np.ones(moved.size, dtype=bool)  # a run's last step: the slope turns after it
    np.not_equal(rising[:-1], rising[1:], out=last[:-1])
    return np.concatenate((values[:1], values[moved[last] + 1]))


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
