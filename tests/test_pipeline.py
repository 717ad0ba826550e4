import csv
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_panel import ONE_EPISODE, calendars

from phasesync import (
    ContractError,
    DegeneratePhaseError,
    FilterBand,
    Month,
    Panel,
    PipelineConfig,
    RecessionCalendar,
    RegimeSpec,
    ResultMeta,
    bandpass,
    detrend_linear,
    gen_regime_panel,
    instantaneous_phase,
    ratio_above,
    round_half_up,
    run_pipeline,
    sync_index_windowed,
    write_metadata,
)
from phasesync.pipeline import (gamma_csv_sink, panel_phases, write_ratio_csv,
                                write_ratio_long_csv)

BAND = FilterBand(4, 18)


def small_panel(members=3, n=240, seed=0, start=Month(1980, 1)):
    spec = RegimeSpec(segments=((n, "uncoupled"),), seed=seed)
    return gen_regime_panel(members, spec, start=start)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestPipelineConfig:
    def test_defaults(self):
        config = PipelineConfig(band=BAND, window=13)
        assert config.thresholds == (0.7, 0.8)
        assert config.detrend and config.trim

    @pytest.mark.parametrize("kwargs", [
        {"window": 12},
        {"window": 1},
        {"thresholds": ()},
        {"thresholds": (0.8, 0.7)},
        {"thresholds": (0.7, 0.7)},
        {"thresholds": (1.5,)},
        {"window": float("inf")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ContractError):
            PipelineConfig(band=BAND, **{"window": 13, **kwargs})

    @pytest.mark.parametrize("name", ["detrend", "trim"])
    @pytest.mark.parametrize("value", ["false", None, 0])
    def test_flag_that_is_not_a_bool_rejected(self, name, value):
        # "false" is truthy: it would detrend and trim while the metadata read false
        with pytest.raises(ContractError, match=f"{name} must be a bool, got {value!r}"):
            PipelineConfig(band=BAND, window=13, **{name: value})

    def test_numpy_bool_flag_stored_as_bool(self):
        config = PipelineConfig(band=BAND, window=13, detrend=np.False_, trim=np.True_)
        assert (config.detrend, config.trim) == (False, True)
        assert type(config.detrend) is bool and type(config.trim) is bool

    def test_float_band_cutoffs_stored_as_int(self):
        # kept as floats, whole-number cutoffs would fail as slice indices
        config = PipelineConfig(band=FilterBand(4.0, 18.0), window=13)
        result = run_pipeline(small_panel(3), config)
        assert dict(result.meta.items())["band_lower"] == "4"
        assert result.ratios.shape == (2, result.n_samples)

    def test_thresholds_with_one_label_rejected(self):
        # both print as 0.7, which would name two R columns and two metadata keys alike
        with pytest.raises(ContractError) as error:
            PipelineConfig(band=BAND, window=13, thresholds=(0.3, 0.7, 0.70000000000001))
        assert str(error.value) == (
            "thresholds 0.7 and 0.70000000000001 both print as 0.7: "
            "thresholds must differ in their first 6 significant digits")

    def test_negative_zero_threshold_stored_as_zero(self):
        config = PipelineConfig(band=BAND, window=13, thresholds=(-0.0, 0.5))
        assert config.thresholds == (0.0, 0.5)
        assert np.copysign(1.0, config.thresholds[0]) == 1.0
        assert format(config.thresholds[0], "g") == "0"

    def test_window_must_fit_after_trim(self):
        # N=61, upper=18 -> margin 3, usable 55: a 55-month window gives one sample
        panel = small_panel(2, n=61)
        meta = ResultMeta.of(panel, PipelineConfig(band=BAND, window=53))
        assert (meta.trim_offset, meta.n_samples) == (3, 3)
        assert ResultMeta.of(panel, PipelineConfig(band=BAND, window=55)).n_samples == 1
        with pytest.raises(ContractError, match="window 57 does not fit the 55 months"):
            ResultMeta.of(panel, PipelineConfig(band=BAND, window=57))
        # untrimmed, all 61 months are usable
        meta = ResultMeta.of(panel, PipelineConfig(band=BAND, window=61, trim=False))
        assert (meta.trim_offset, meta.n_samples) == (0, 1)
        with pytest.raises(ContractError, match="window 63 does not fit the 61 months"):
            ResultMeta.of(panel, PipelineConfig(band=BAND, window=63, trim=False))
        # N=10, upper=2 -> margin 5 per end: nothing is left after the trim
        panel = Panel(("a", "b"), Month(2000, 1), np.zeros((10, 2)))
        with pytest.raises(ContractError, match="window 3 does not fit the 0 months"):
            ResultMeta.of(panel, PipelineConfig(band=FilterBand(1, 2), window=3))
        # N=10, upper=1 -> margin 10 per end, more than the panel: still 0 months left
        with pytest.raises(ContractError, match="window 3 does not fit the 0 months"):
            ResultMeta.of(panel, PipelineConfig(band=FilterBand(1, 1), window=3))

    def test_nyquist_mode_alone_is_refused(self):
        # the Nyquist mode's Hilbert image is 0 up to rounding, so its phase is
        # 0 or -pi in every month and every pair would lock
        panel = small_panel(3, n=60)
        band = FilterBand(30, 30)
        phase = instantaneous_phase(bandpass(panel.values[:, 0], band))
        assert np.abs(np.sin(phase)).max() < 1e-12
        with pytest.raises(ContractError, match=re.escape(
                "band (30, 30) holds only the Nyquist mode of a 60-month panel, "
                "whose phase is 0 or -pi")):
            ResultMeta.of(panel, PipelineConfig(band=band, window=13))
        # a band reaching below it runs, and so does mode 30 of 61 months
        assert ResultMeta.of(panel, PipelineConfig(band=FilterBand(29, 30), window=13))
        assert ResultMeta.of(small_panel(3, n=61), PipelineConfig(band=band, window=13))

    def test_whole_float_window_runs_as_its_int(self, tmp_path):
        panel = small_panel(3)
        as_int = run_pipeline(panel, PipelineConfig(band=BAND, window=13))
        as_float = run_pipeline(panel, PipelineConfig(band=BAND, window=13.0))
        window = as_float.meta.config.window
        assert window == 13 and type(window) is int
        np.testing.assert_array_equal(as_float.gamma2, as_int.gamma2)
        np.testing.assert_array_equal(as_float.ratios, as_int.ratios)
        write_metadata(tmp_path / "metadata.txt", as_float.meta.items())
        assert "window = 13\n" in (tmp_path / "metadata.txt").read_text()
        assert as_float.meta.items() == as_int.meta.items()


class TestRunPipeline:
    def test_pair_count_three_members(self):
        result = run_pipeline(small_panel(3), PipelineConfig(band=BAND, window=13))
        assert result.n_pairs == 3
        assert result.meta.pairs == (("m01", "m02"), ("m01", "m03"), ("m02", "m03"))
        assert result.gamma2.shape == (3, result.n_samples)

    def test_pair_count_formula(self):
        result = run_pipeline(small_panel(6), PipelineConfig(band=BAND, window=13))
        assert result.n_pairs == 15

    def test_needs_two_series(self):
        panel = small_panel(2)
        with pytest.raises(ContractError, match="need >= 2 series"):
            run_pipeline(Panel(panel.ids[:1], panel.start, panel.values[:, :1]),
                         PipelineConfig(band=BAND, window=13))

    def test_deterministic(self):
        config = PipelineConfig(band=BAND, window=13)
        panel = small_panel(4)
        a = run_pipeline(panel, config)
        b = run_pipeline(panel, config)
        assert a.meta.pairs == b.meta.pairs
        np.testing.assert_array_equal(a.gamma2, b.gamma2)
        np.testing.assert_array_equal(a.ratios, b.ratios)

    def test_gamma2_array_equals_per_pair_index(self):
        config = PipelineConfig(band=BAND, window=13)
        panel = small_panel(6)
        result = run_pipeline(panel, config)
        m = ResultMeta.of(panel, config).trim_offset
        phases = [instantaneous_phase(bandpass(detrend_linear(col), BAND))[m:panel.n - m]
                  for col in panel.values.T]
        expected = np.vstack([
            sync_index_windowed(phases[i] - phases[j], 13)
            for i, j in combinations(range(len(panel)), 2)
        ])
        assert result.meta.pairs == tuple(combinations(panel.ids, 2))
        assert np.array_equal(result.gamma2, expected)

    def test_gamma2_array_read_only(self):
        result = run_pipeline(small_panel(3), PipelineConfig(band=BAND, window=13))
        assert not result.gamma2.flags.writeable
        with pytest.raises(ValueError):
            result.gamma2[0, 0] = 0.5
        with pytest.raises(ValueError):
            result.gamma2[0][0] = 0.5

    def test_trim_bookkeeping(self):
        panel = small_panel(3, n=240)
        result = run_pipeline(panel, PipelineConfig(band=BAND, window=13))
        margin = round_half_up(240 / 18)
        assert result.meta.trim_offset == margin
        assert result.n_samples == (240 - 2 * margin) - 13 + 1
        assert result.meta.t_of(0) == 7
        assert result.meta.month_of(0) == Month(1980, 1) + margin + 6

    def test_no_trim(self):
        panel = small_panel(3, n=240)
        result = run_pipeline(panel, PipelineConfig(band=BAND, window=13, trim=False))
        assert result.meta.trim_offset == 0
        assert result.n_samples == 240 - 13 + 1
        assert result.meta.month_of(0) == Month(1980, 7)

    def test_ratio_monotone_in_threshold(self):
        config = PipelineConfig(band=BAND, window=13,
                                thresholds=(0.2, 0.5, 0.7, 0.9))
        result = run_pipeline(small_panel(5), config)
        assert result.ratios.shape == (4, result.n_samples)
        assert np.all(np.diff(result.ratios, axis=0) <= 0)

    def test_ratio_matches_manual_count(self):
        config = PipelineConfig(band=BAND, window=13)
        result = run_pipeline(small_panel(4), config)
        np.testing.assert_array_equal(result.ratios[0],
                                      (result.gamma2 >= 0.7).mean(axis=0))

    def test_amplitude_invariance(self):
        panel = small_panel(3, seed=5)
        scaled = Panel(panel.ids, panel.start, panel.values * [1.0, 3.7, 1.0])
        config = PipelineConfig(band=BAND, window=13)
        base = run_pipeline(panel, config)
        other = run_pipeline(scaled, config)
        assert other.meta.pairs == base.meta.pairs
        np.testing.assert_allclose(other.gamma2, base.gamma2, atol=1e-9)
        np.testing.assert_allclose(other.ratios, base.ratios, atol=1e-9)

    def test_common_offset_invariance(self):
        panel = small_panel(3, seed=6)
        shifted = Panel(panel.ids, panel.start, panel.values + 125.0)
        config = PipelineConfig(band=BAND, window=13)
        base = run_pipeline(panel, config)
        other = run_pipeline(shifted, config)
        assert other.meta.pairs == base.meta.pairs
        np.testing.assert_allclose(other.gamma2, base.gamma2, atol=1e-9)

    def test_member_order_invariance(self):
        panel = small_panel(4, seed=7)
        reordered = Panel(panel.ids[::-1], panel.start, panel.values[:, ::-1])
        config = PipelineConfig(band=BAND, window=13)
        base = run_pipeline(panel, config)
        other = run_pipeline(reordered, config)
        other_gamma = dict(zip(other.meta.pairs, other.gamma2))
        for (id_i, id_j), row in zip(base.meta.pairs, base.gamma2):
            np.testing.assert_allclose(other_gamma[(id_j, id_i)], row, atol=1e-12)
        np.testing.assert_allclose(other.ratios, base.ratios, atol=1e-12)

    def test_degenerate_series_named(self):
        # constant series detrends to exact zeros, so the analytic signal
        # has no amplitude anywhere
        values = np.column_stack([small_panel(2).values[:, 0], np.full(240, 5.0)])
        panel = Panel(("m01", "flatliner"), Month(1980, 1), values)
        with pytest.raises(DegeneratePhaseError, match="flatliner"):
            run_pipeline(panel, PipelineConfig(band=BAND, window=13))


def test_panel_phases_peak_memory_near_the_phases(tmp_path):
    # 100 members x 2,000 months, band 20..90: stacking a list of per-member
    # phases peaks at about 2.1 times the phases' bytes, filling one
    # preallocated array near 1.1
    spec = RegimeSpec(segments=((1000, "coupled"), (1000, "uncoupled")), seed=3)
    panel = gen_regime_panel(100, spec)
    meta = ResultMeta.of(panel, PipelineConfig(band=FilterBand(20, 90), window=13))
    tracemalloc.start()
    try:
        phases = panel_phases(panel, meta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phases.shape == (100, 2000 - 2 * meta.trim_offset)
    assert peak < 1.5 * phases.nbytes


class TestRatioAbove:
    def test_all_above(self):
        gamma2 = np.array([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(ratio_above(gamma2, 0.8), [1.0, 1.0])

    def test_none_above(self):
        gamma2 = np.array([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_array_equal(ratio_above(gamma2, 0.7), [0.0, 0.0])

    def test_two_of_three(self):
        gamma2 = np.array([[0.9], [0.75], [0.2]])
        np.testing.assert_allclose(ratio_above(gamma2, 0.7), [2.0 / 3.0])

    def test_inclusive_comparison(self):
        gamma2 = np.array([[0.7], [0.69999]])
        np.testing.assert_allclose(ratio_above(gamma2, 0.7), [0.5])

    def test_rounding_tie_counts(self):
        # a constant phase difference scores 0.9999999999999996, not 1
        gamma2 = np.array([[0.9999999999999996], [1.0 - 1e-9]])
        np.testing.assert_array_equal(ratio_above(gamma2, 1.0), [0.5])

    def test_threshold_range(self):
        # the rule and message of PipelineConfig's and the CLI's thresholds
        for r in (1.2, -0.1, float("nan")):
            message = f"thresholds must lie in [0, 1], got {r}"
            with pytest.raises(ContractError, match=re.escape(message)):
                ratio_above(np.array([[0.5]]), r)

    def test_empty_rejected(self):
        with pytest.raises(ContractError, match="at least one pair"):
            ratio_above(np.empty((0, 5)), 0.5)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_not_two_dimensional_rejected(self, shape):
        with pytest.raises(ContractError, match="2-d"):
            ratio_above(np.zeros(shape), 0.5)

    @pytest.mark.parametrize("value", [np.nan, 5.0, -1.0])
    def test_value_outside_unit_interval_rejected(self, value):
        gamma2 = np.array([[0.5, 0.9, 0.2], [0.3, value, np.nan]])
        with pytest.raises(ContractError, match=r"got .* at \(row 1, column 1\)"):
            ratio_above(gamma2, 0.8)

    def test_first_bad_value_in_row_order_named(self):
        with pytest.raises(ContractError, match=r"got nan at \(row 0, column 0\)"):
            ratio_above(np.array([[np.nan, 0.9], [5.0, -1.0]]), 0.8)


class TestAnnotateRecessions:
    """Regime labels and regime means from ResultMeta.regimes."""

    CAL = RecessionCalendar(((Month(1990, 7), Month(1991, 3)),))

    def result(self, start=Month(1988, 1)):
        # trim margin 13 plus half window 6 puts the first sample at
        # start + 19 months; starting 1988-01 covers the 1990-91 episode
        panel = small_panel(3, n=120, seed=8, start=start)
        return run_pipeline(panel, PipelineConfig(band=FilterBand(2, 9), window=13))

    def test_labels(self):
        result = self.result()
        mask = dict(result.meta.regimes(self.CAL))["contraction"]
        by_month = {result.meta.month_of(idx): bool(c) for idx, c in enumerate(mask)}
        assert by_month[Month(1990, 8)]
        assert by_month[Month(1991, 3)]
        assert not by_month[Month(1990, 7)]   # peak month
        assert not by_month[Month(1990, 6)]   # before first peak
        assert not by_month[Month(1991, 4)]

    def test_regime_means(self):
        result = self.result()
        regimes = dict(result.meta.regimes(self.CAL))
        for ratio in result.ratios:
            months = [result.meta.month_of(idx) for idx in range(result.n_samples)]
            contraction = [R for R, m in zip(ratio, months)
                           if Month(1990, 7) < m <= Month(1991, 3)]
            expansion = [R for R, m in zip(ratio, months)
                         if not Month(1990, 7) < m <= Month(1991, 3)]
            assert ratio[regimes["contraction"]].mean() == pytest.approx(np.mean(contraction))
            assert ratio[regimes["expansion"]].mean() == pytest.approx(np.mean(expansion))

    def test_disjoint_calendar_rejected(self):
        result = self.result(start=Month(2030, 1))
        with pytest.raises(ContractError,
                           match="disjoint from the result range 2031-08..2038-05"):
            result.meta.regimes(self.CAL)

    def test_rows_iterate_in_order(self):
        result = self.result()
        mask = dict(result.meta.regimes(self.CAL))["contraction"]
        assert mask.tolist() == [Month(1990, 7) < result.meta.month_of(idx) <= Month(1991, 3)
                                 for idx in range(result.n_samples)]


# the examples' samples lie wholly inside, across and wholly after the episode
@example(ONE_EPISODE, Month(1990, 10), 3)
@example(ONE_EPISODE, Month(1990, 1), 24)
@example(ONE_EPISODE, Month(1991, 4), 24)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(calendars(), st.integers(-40, 350).map(lambda k: Month(1990, 1) + k),
       st.integers(1, 120))
def test_regimes_split_the_samples(calendar, first, count):
    # no trim and a 3-month window: count samples, the first centred on first
    panel = Panel(["a", "b"], first + -1, np.zeros((count + 2, 2)))
    meta = ResultMeta.of(panel, PipelineConfig(band=FilterBand(1, 1), window=3, trim=False))
    assert (meta.anchor, meta.n_samples) == (first, count)
    in_contraction = [any(p < first + k <= t for p, t in calendar.episodes)
                      for k in range(count)]
    if not any(in_contraction):
        with pytest.raises(ContractError, match="calendar episodes are disjoint from the "
                                                "result range"):
            meta.regimes(calendar)
        return
    names, masks = zip(*meta.regimes(calendar))
    assert names == (("contraction",) if all(in_contraction) else ("contraction", "expansion"))
    assert all(mask.dtype == bool and mask.shape == (count,) and mask.any() for mask in masks)
    assert (np.sum(masks, axis=0) == 1).all()  # disjoint, and every sample in one
    assert masks[0].tolist() == in_contraction


class TestResultOutputs:
    @pytest.fixture()
    def result(self):
        return run_pipeline(small_panel(3, n=120, seed=9),
                            PipelineConfig(band=FilterBand(2, 9), window=13))

    def test_gamma_csv(self, result, tmp_path):
        path = tmp_path / "gamma2.csv"
        with open(path, "wb") as fh:
            gamma_csv_sink(fh, result.meta)(result.gamma2)
        rows = read_rows(path)
        assert rows[0] == ["t", "date", "pair_i", "pair_j", "gamma2"]
        assert len(rows) == 1 + result.n_pairs * result.n_samples
        pairs = {(row[2], row[3]) for row in rows[1:]}
        assert pairs == set(result.meta.pairs)
        first = rows[1]
        assert int(first[0]) == result.meta.t_of(0)
        assert first[1] == str(result.meta.month_of(0))
        assert float(first[4]) == pytest.approx(
            result.gamma2[result.meta.pairs.index(("m01", "m02")), 0], rel=1e-11)

    def test_ratio_long_csv(self, result, tmp_path):
        path = tmp_path / "ratios_long.csv"
        write_ratio_long_csv(path, result.meta, result.ratios)
        rows = read_rows(path)
        assert rows[0] == ["t", "date", "r", "R"]
        assert len(rows) == 1 + 2 * result.n_samples
        r_values = {row[2] for row in rows[1:]}
        assert r_values == {"0.7", "0.8"}

    def test_ratio_wide_csv(self, result, tmp_path):
        path = tmp_path / "ratios.csv"
        write_ratio_csv(path, result.meta, result.ratios)
        rows = read_rows(path)
        assert rows[0] == ["t", "date", "R_0.7", "R_0.8"]
        assert len(rows) == 1 + result.n_samples
        np.testing.assert_allclose(
            [float(row[2]) for row in rows[1:]], result.ratios[0], rtol=1e-11)

    def test_ratio_wide_with_labels(self, result, tmp_path):
        path = tmp_path / "ratios.csv"
        mask = np.arange(result.n_samples) < 5
        write_ratio_csv(path, result.meta, result.ratios,
                        [("contraction", mask), ("expansion", ~mask)])
        rows = read_rows(path)
        assert rows[0][-1] == "regime"
        assert [row[-1] for row in rows[1:]] == ["contraction"] * 5 + ["expansion"] * (
            result.n_samples - 5)

    def test_meta_items_and_sidecar(self, result, tmp_path):
        items = result.meta.items()
        as_dict = dict(items)
        assert as_dict["n_series"] == "3"
        assert as_dict["n_months"] == "120"
        assert as_dict["window"] == "13"
        assert as_dict["thresholds"] == "0.7,0.8"
        assert as_dict["trim_offset"] == str(round_half_up(120 / 9))
        assert as_dict["first_sample_date"] == str(result.meta.anchor)
        path = tmp_path / "metadata.txt"
        write_metadata(path, items)
        lines = path.read_text().splitlines()
        parsed = dict(line.split(" = ", 1) for line in lines)
        assert parsed == as_dict
