"""Property tests of the all-pairs scoring path (score_pairs, its blocks
and its counted ratios) and of the panel CSV round trip."""

import csv
import string
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasesync.cli import main
from phasesync.errors import ContractError, IngestionError
from phasesync.panel import (
    FilterBand,
    Month,
    Panel,
    load_panel_csv,
    write_panel_csv,
)
from phasesync.pipeline import (
    PipelineConfig,
    ResultMeta,
    filter_column,
    panel_phases,
    ratio_above,
    run_pipeline,
)
from phasesync.spectral import bandpass, detrend_linear
from phasesync.sync import RATIO_TOL, score_pairs, sync_index_windowed
from phasesync.synthetic import RegimeSpec, gen_regime_panel

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


def scored(phases, window, thresholds=(0.5,)):
    """(R, blocks) of score_pairs, the blocks in the order the sink got them."""
    blocks = []
    ratios = score_pairs(phases, window, thresholds, blocks.append)
    return ratios, blocks


def pair_gamma2(phases, window):
    """The sink's blocks stacked into one (pairs x samples) array."""
    return np.vstack(scored(phases, window)[1])


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
    ratios = score_pairs(*panel, thresholds)
    for low, high in zip(ratios, ratios[1:]):
        assert np.all(high <= low)
    assert np.all((0.0 <= ratios) & (ratios <= 1.0))


@PROPERTY
@given(phase_panels(), THRESHOLDS)
def test_counted_ratios_equal_ratio_above(panel, thresholds):
    phases, window = panel
    ratios, blocks = scored(phases, window, thresholds)
    gamma2 = np.vstack(blocks)
    for r, counted in zip(thresholds, ratios):
        np.testing.assert_array_equal(counted, ratio_above(gamma2, r))


@PROPERTY
@given(phase_panels())
def test_blocks_arrive_in_combinations_order(panel):
    phases, window = panel
    rows = [row for block in scored(phases, window)[1] for row in block]
    pairs = list(combinations(range(len(phases)), 2))
    assert len(rows) == len(pairs)
    for (i, j), row in zip(pairs, rows):
        np.testing.assert_array_equal(row, sync_index_windowed(phases[i] - phases[j], window))


@PROPERTY
@given(st.integers(2, 5), st.integers(0, 2**16), st.sampled_from([7, 13]),
       st.booleans(), st.booleans())
def test_blocks_equal_run_pipeline_gamma2(members, seed, window, detrend, trim):
    panel = gen_regime_panel(members, RegimeSpec(segments=((60, "coupled"), (60, "uncoupled")),
                                                 seed=seed))
    config = PipelineConfig(band=FilterBand(4, 18), window=window, detrend=detrend, trim=trim)
    result = run_pipeline(panel, config)
    ratios, blocks = scored(panel_phases(panel, result.meta), window, config.thresholds)
    np.testing.assert_array_equal(np.vstack(blocks), result.gamma2)
    # ratios is score_pairs' (thresholds x samples) array, bit for bit and
    # read-only; row k is R at thresholds[k]
    assert result.ratios.tobytes() == ratios.tobytes()
    assert result.ratios.shape == (len(config.thresholds), result.n_samples)
    for r, row in zip(config.thresholds, result.ratios):
        np.testing.assert_array_equal(row, ratio_above(result.gamma2, r))
    assert not result.ratios.flags.writeable
    # with a sink, run_pipeline hands it the same blocks and keeps no gamma2
    sunk = []
    streamed = run_pipeline(panel, config, sunk.append)
    assert streamed.gamma2 is None
    np.testing.assert_array_equal(np.vstack(sunk), result.gamma2)
    assert streamed.ratios.tobytes() == result.ratios.tobytes()
    assert not streamed.ratios.flags.writeable


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


def test_locked_sines_tie_at_r_one(tmp_path):
    # exactly locked sines score gamma2 a rounding below 1; the streamed
    # counts, ratio_above and the CLI's ratios.csv all count them at r = 1
    assert main(["gen", "--sine", "--n", "240", "--period", "30", "--members", "4",
                 "--phase", "0,0.5,1,1.5", "--out", str(tmp_path)]) == 0
    assert main(["sync", str(tmp_path / "panel.csv"), "--kl", "4", "--ku", "18",
                 "--window", "13", "--r", "1.0", "--no-detrend",
                 "--out", str(tmp_path / "run")]) == 0
    config = PipelineConfig(band=FilterBand(4, 18), window=13, thresholds=(1.0,),
                            detrend=False)
    panel = load_panel_csv(tmp_path / "panel.csv")
    phases = panel_phases(panel, ResultMeta.of(panel, config))
    ratios, blocks = scored(phases, 13, (1.0,))
    gamma2 = np.vstack(blocks)
    assert np.any(gamma2 < 1.0)
    np.testing.assert_array_equal(ratios[0], np.ones(gamma2.shape[1]))
    np.testing.assert_array_equal(ratio_above(gamma2, 1.0), ratios[0])
    with open(tmp_path / "run" / "ratios.csv", newline="") as fh:
        written = [row[2] for row in csv.reader(fh)]
    assert written == ["R_1"] + ["1"] * gamma2.shape[1]


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
    values = draw(arrays(float, (draw(st.integers(2, 30)), len(ids)),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    return Panel(ids, start, values)


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
        want = [[float(format(v, ".12g")) for v in row] for row in panel.values]
        np.testing.assert_array_equal(loaded.values, want)
        assert second.read_bytes() == first.read_bytes()


def refusal(make, error):
    """str() of the error make() raises, or None if it raises none."""
    try:
        make()
    except error as exc:
        return str(exc)
    return None


@PROPERTY
@example(["", "a", "a"])
@given(st.lists(st.sampled_from(["", "a", "b"]), min_size=1, max_size=5))
def test_panel_and_reader_refuse_the_same_ids(ids):
    # one id rule: the constructor refuses exactly the headers the reader does,
    # with the fault the reader reports on row 1
    built = refusal(lambda: Panel(ids, Month(2000, 1), np.zeros((2, len(ids)))), ContractError)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "panel.csv")
        zeros = ",0" * len(ids)
        text = f"date,{','.join(ids)}\n2000-01{zeros}\n2000-02{zeros}\n"
        path.write_text(text, encoding="utf-8")
        read = refusal(lambda: load_panel_csv(path), IngestionError)
    assert read == (None if built is None else f"{path}: row 1: {built}")


@st.composite
def filter_inputs(draw):
    """A writable (months, members) array and a band that fits it: drawn
    values in C order, or a gen_regime_panel panel's in its own F order."""
    n = draw(st.integers(8, 80))
    members = draw(st.integers(2, 4))
    if draw(st.booleans()):
        spec = RegimeSpec(segments=((n, "uncoupled"),), seed=draw(st.integers(0, 2**16)))
        values = np.array(gen_regime_panel(members, spec).values, order="K")
        assert not values.flags.c_contiguous
    else:
        values = draw(arrays(float, (n, members), elements=st.floats(-1e6, 1e6)))
    lower = draw(st.integers(1, n // 2))
    return values, FilterBand(lower, draw(st.integers(lower, n // 2)))


@PROPERTY
@given(filter_inputs(), st.booleans())
def test_filter_in_place_equals_per_column_reference(inputs, detrend):
    values, band = inputs
    expected = []
    for col in values.T:
        x = np.ascontiguousarray(col)
        expected.append(bandpass(detrend_linear(x) if detrend else x, band))
    # in place, column by column, as filter does
    for k in range(values.shape[1]):
        values[:, k] = filter_column(values[:, k], band, detrend)
    assert np.ascontiguousarray(values).tobytes() == np.column_stack(expected).tobytes()


FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_does_not_end_the_session(tmp_path):
    # run under this project's pytest settings: a failing property is one
    # failure, and the tests after it still run
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(pyproject), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.stdout.strip().splitlines()[-1].startswith("1 failed, 1 passed")
