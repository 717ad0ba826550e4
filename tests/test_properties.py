"""Property tests of the all-pairs array path: pair_gamma2 and the ratios."""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasesync.pipeline import RATIO_TOL, _ratios
from phasesync.sync import pair_gamma2

# the same examples on every run, and no example database written
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

WINDOWS = st.sampled_from([3, 5, 13])


@st.composite
def phase_panels(draw):
    """(members, n) phases, any branch, with a window that fits n."""
    members = draw(st.integers(2, 6))
    n = draw(st.integers(13, 40))
    phases = draw(arrays(float, (members, n),
                         elements=st.floats(-50.0, 50.0, allow_nan=False)))
    return phases, draw(WINDOWS)


THRESHOLDS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5, unique=True).map(
    lambda values: tuple(sorted(values)))


def assert_same_ratios(gamma2, other, thresholds):
    """Row-aligned gamma2 arrays agree to rounding, and so does R at every
    threshold whose cut no gamma2 lies within that rounding of."""
    rounding = np.abs(gamma2 - other).max()
    assert rounding <= 1e-12
    ratios, other_ratios = _ratios(gamma2, thresholds), _ratios(other, thresholds)
    for r in thresholds:
        if np.abs(gamma2 - (r - RATIO_TOL)).min() > rounding:
            np.testing.assert_array_equal(other_ratios[r], ratios[r])


@PROPERTY
@given(phase_panels())
def test_gamma2_in_unit_interval(panel):
    phases, window = panel
    gamma2 = pair_gamma2(phases, window)
    assert gamma2.shape == (len(phases) * (len(phases) - 1) // 2,
                            phases.shape[1] - window + 1)
    assert np.all(gamma2 >= 0.0)
    assert np.all(gamma2 <= 1.0)


@PROPERTY
@given(phase_panels(), THRESHOLDS)
def test_ratio_never_increases_with_threshold(panel, thresholds):
    ratios = _ratios(pair_gamma2(*panel), thresholds)
    for low, high in zip(thresholds, thresholds[1:]):
        assert np.all(ratios[high] <= ratios[low])
    assert all(np.all((0.0 <= ratios[r]) & (ratios[r] <= 1.0)) for r in thresholds)


@PROPERTY
@given(phase_panels(), THRESHOLDS, st.data())
def test_ratio_unchanged_by_member_order(panel, thresholds, data):
    phases, window = panel
    order = data.draw(st.permutations(range(len(phases))))
    # row of each original pair (i, j) in the permuted panel's result
    row_of = {frozenset(pair): k for k, pair in enumerate(combinations(order, 2))}
    back = [row_of[frozenset(pair)] for pair in combinations(range(len(phases)), 2)]
    assert_same_ratios(pair_gamma2(phases, window),
                       pair_gamma2(phases[order], window)[back], thresholds)


@PROPERTY
@given(phase_panels(), THRESHOLDS, st.floats(-10.0, 10.0))
def test_ratio_unchanged_by_common_phase_shift(panel, thresholds, shift):
    phases, window = panel
    assert_same_ratios(pair_gamma2(phases, window),
                       pair_gamma2(phases + shift, window), thresholds)
