"""Cycle extraction against hand traces and an independent reference."""

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbio import rainflow


def reference_reversals(series):
    """Turning-point extraction written independently of the kernel."""
    x = np.asarray(series, dtype=float)
    x = x[np.concatenate(([True], np.diff(x) != 0.0))]  # drop plateaus
    if x.size < 2:
        return x
    slopes = np.sign(np.diff(x))
    keep = np.concatenate(([True], slopes[:-1] != slopes[1:], [True]))
    return x[keep]


def reference_cycles(series):
    """Four-point rule on a mutable reversal list with a back-stepping cursor.

    Counts an interior cycle of range |s[i+1] - s[i+2]| whenever that range
    is bounded by both neighbors, then deletes the pair and steps back; the
    leftover alternating residual contributes adjacent half cycles.
    """
    seq = list(reference_reversals(series))
    ranges, weights = [], []
    i = 0
    while i + 3 < len(seq):
        r1 = abs(seq[i + 1] - seq[i])
        r2 = abs(seq[i + 2] - seq[i + 1])
        r3 = abs(seq[i + 3] - seq[i + 2])
        if r2 <= r1 and r2 <= r3:
            ranges.append(r2)
            weights.append(1.0)
            del seq[i + 1:i + 3]
            i = max(i - 2, 0)
        else:
            i += 1
    for j in range(len(seq) - 1):
        ranges.append(abs(seq[j + 1] - seq[j]))
        weights.append(0.5)
    return np.asarray(ranges), np.asarray(weights)


def sorted_pairs(ranges, weights):
    return sorted(zip(ranges.tolist(), weights.tolist()))


def test_hand_traced_example():
    ranges, weights = rainflow.extract_cycles([1.0, 0.5, 1.0, 0.5, 1.0])
    assert sorted_pairs(ranges, weights) == [(0.5, 0.5), (0.5, 0.5), (0.5, 1.0)]


def test_monotone_series_is_one_half_cycle():
    ranges, weights = rainflow.extract_cycles([0.0, 0.4, 0.7, 1.0])
    assert ranges.tolist() == [1.0]
    assert weights.tolist() == [0.5]


def test_constant_series_has_no_cycles():
    ranges, weights = rainflow.extract_cycles([0.3, 0.3, 0.3])
    assert ranges.size == 0 and weights.size == 0


def test_nested_cycle_extracted_before_residual():
    # Outer 0 -> 1 swing with a small inner 0.6 -> 0.4 dip: the inner pair is
    # one full cycle, the outer edges remain as halves.
    series = [0.0, 0.6, 0.4, 1.0, 0.0]
    ranges, weights = rainflow.extract_cycles(series)
    order = np.argsort(ranges)
    np.testing.assert_allclose(ranges[order], [0.2, 1.0, 1.0], rtol=1e-12)
    np.testing.assert_allclose(weights[order], [1.0, 0.5, 0.5])


def test_matches_reference_on_random_walks():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(10, 1000))
        walk = np.clip(np.cumsum(rng.normal(0, 0.15, n)) + 0.5, 0.0, 1.0)
        got = sorted_pairs(*rainflow.extract_cycles(walk))
        want = sorted_pairs(*reference_cycles(walk))
        assert got == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False), min_size=2, max_size=60))
def test_total_cycle_weight_conservation(values):
    # Every extraction consumes reversals exactly: full cycles take two each,
    # residual pairs a half, so total weight is (reversal count - 1) / 2.
    _, weights = rainflow.extract_cycles(values)
    n_rev = reference_reversals(values).size
    assert float(np.sum(weights)) == pytest.approx(max(n_rev - 1, 0) / 2.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False), min_size=2, max_size=60))
def test_reference_agreement_property(values):
    got = sorted_pairs(*rainflow.extract_cycles(values))
    want = sorted_pairs(*reference_cycles(values))
    assert got == pytest.approx(want)


# Floats from a few values, so that traces hold plateaus and repeated levels.
_LEVELS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LEVELS, min_size=1, max_size=80))
@example([0.4])
@example([0.3, 0.3, 0.3, 0.3])
@example([0.2, 0.7])
@example([0.7, 0.7])
@example([0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 0.2, 0.2])
def test_reversals_match_the_reference_bit_for_bit(values):
    # Plateaus, constant and two-point traces: the kernel keeps the same
    # samples as the independent reference, and so the same bytes.
    x = np.asarray(values, dtype=np.float64)
    got, want = rainflow._reversals(x), reference_reversals(x)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
