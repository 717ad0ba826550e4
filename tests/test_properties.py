"""Property tests of the all-pairs array path (pair_gamma2 and the ratios)
and of the panel CSV round trip."""

import string
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasesync.panel import Month, Panel, TimeSeries, load_panel_csv, write_panel_csv
from phasesync.pipeline import RATIO_TOL, ratio_above
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
    for r in thresholds:
        if np.abs(gamma2 - (r - RATIO_TOL)).min() > rounding:
            np.testing.assert_array_equal(ratio_above(other, r), ratio_above(gamma2, r))


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
    gamma2 = pair_gamma2(*panel)
    ratios = {r: ratio_above(gamma2, r) for r in thresholds}
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


# id characters: plain ones, ones that make csv.writer quote the field, and
# % (escaped in the writer's %-templates)
ID_CHARS = string.ascii_letters + string.digits + ' _-.,"%\r\n'


@st.composite
def csv_panels(draw):
    """Small panels of any finite values, from any start month, with ids
    that may need quoting or hold %."""
    ids = draw(st.lists(st.text(st.sampled_from(ID_CHARS), min_size=1, max_size=6),
                        min_size=1, max_size=4, unique=True))
    start = Month(draw(st.integers(1900, 2100)), draw(st.integers(1, 12)))
    values = draw(arrays(float, (len(ids), draw(st.integers(2, 30))),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    return Panel(tuple(TimeSeries(sid, start, row) for sid, row in zip(ids, values)))


@PROPERTY
@given(csv_panels())
def test_panel_csv_round_trip(panel):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.csv"), Path(tmp, "second.csv")
        write_panel_csv(panel, first)
        loaded = load_panel_csv(first)
        write_panel_csv(loaded, second)
        assert loaded.ids == panel.ids
        assert (loaded.start, loaded.n) == (panel.start, panel.n)
        for got, written in zip(loaded, panel):
            want = [float(format(v, ".12g")) for v in written.values]
            np.testing.assert_array_equal(got.values, want)
        assert second.read_bytes() == first.read_bytes()
