import csv
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import phasesync
import phasesync.pipeline
import phasesync.sync
from phasesync import Month, Panel, RegimeSpec, gen_regime_panel, write_panel_csv
from phasesync.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_meta(path):
    lines = path.read_text().splitlines()
    return dict(line.split(" = ", 1) for line in lines)


@pytest.fixture()
def regime_panel(tmp_path):
    """Five-member panel, one coupled then one uncoupled segment."""
    out = tmp_path / "gen"
    code = run("gen", "--regime", "coupled:120,uncoupled:120", "--members", 5,
               "--seed", 7, "--out", out)
    assert code == 0
    return out / "panel.csv"


class TestGen:
    def test_regime_panel_shape(self, regime_panel):
        rows = read_rows(regime_panel)
        assert rows[0] == ["date", "m01", "m02", "m03", "m04", "m05"]
        assert len(rows) == 1 + 240
        assert rows[1][0] == "1980-01"

    def test_regime_prints_seed(self, tmp_path, capsys):
        assert run("gen", "--regime", "coupled:24", "--seed", 7,
                   "--out", tmp_path) == 0
        assert "seed = 7" in capsys.readouterr().out

    def test_sine_panel(self, tmp_path):
        code = run("gen", "--sine", "--n", 48, "--period", 24, "--members", 2,
                   "--amp", "1,2", "--phase", "0,0.5", "--out", tmp_path)
        assert code == 0
        rows = read_rows(tmp_path / "panel.csv")
        assert rows[0] == ["date", "s1", "s2"]
        assert len(rows) == 49
        assert float(rows[1][1]) == 0.0  # sin(0)

    def test_sine_with_no_members_is_clean_error(self, tmp_path, capsys):
        assert run("gen", "--sine", "--n", 10, "--members", 0, "--out", tmp_path) == 1
        assert capsys.readouterr().err == "error: panel needs at least one series\n"
        assert not (tmp_path / "panel.csv").exists()

    def test_panel_past_9999_12_is_clean_error(self, tmp_path, capsys):
        assert run("gen", "--sine", "--n", 30, "--period", 12, "--members", 2,
                   "--start", "9999-06", "--out", tmp_path) == 1
        assert capsys.readouterr().err == (
            "error: a 30-month panel from 9999-06 runs past 9999-12\n")
        assert not (tmp_path / "panel.csv").exists()
        assert run("gen", "--regime", "coupled:8", "--start", "9999-06",
                   "--out", tmp_path) == 1
        assert not (tmp_path / "panel.csv").exists()

    def test_sine_requires_n(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run("gen", "--sine", "--out", tmp_path)
        assert excinfo.value.code == 2

    def test_sine_and_regime_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run("gen", "--sine", "--n", 48, "--regime", "coupled:48",
                "--out", tmp_path)
        assert excinfo.value.code == 2

    def test_mode_required(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run("gen", "--out", tmp_path)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("start", ["2000-01\n", "\u0661\u0669\u0669\u0660-\u0660\u0667"])
    def test_start_must_be_yyyy_mm(self, tmp_path, capsys, start):
        assert run("gen", "--regime", "coupled:60", "--start", start,
                   "--out", tmp_path) == 1
        assert "expected YYYY-MM date" in capsys.readouterr().err
        assert not (tmp_path / "panel.csv").exists()

    def test_bad_segment_is_clean_error(self, tmp_path, capsys):
        assert run("gen", "--regime", "coupled", "--out", tmp_path) == 1
        assert "regime:length" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (("--regime", "coupled:60", "--seed", -1), "seed >= 0, got -1"),
        (("--regime", "coupled:60", "--noise-sd", "nan"), "noise_sd >= 0, got nan"),
        (("--regime", "coupled:60", "--base-period", "inf"), "base_period >= 2, got inf"),
        (("--regime", "coupled:60", "--base-period", "nan"), "base_period >= 2, got nan"),
        (("--regime", "coupled:60", "--jitter", "nan"), "jitter >= 0, got nan"),
        (("--sine", "--n", 48, "--period", "nan"), "period >= 2, got nan"),
        (("--sine", "--n", 48, "--amp", "nan"), "finite amplitude, got nan"),
    ])
    def test_unusable_generator_parameter_is_clean_error(self, tmp_path, capsys,
                                                         argv, message):
        assert run("gen", *argv, "--members", 3, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "panel.csv").exists()


class TestFilter:
    def test_period_flags_resolve_band(self, tmp_path, capsys):
        gen_dir = tmp_path / "gen"
        run("gen", "--regime", "coupled:488", "--members", 2, "--out", gen_dir)
        out = tmp_path / "flt"
        assert run("filter", gen_dir / "panel.csv",
                   "--longest", 81, "--shortest", 35, "--out", out) == 0
        meta = read_meta(out / "metadata.txt")
        assert meta["band_lower"] == "6"
        assert meta["band_upper"] == "14"
        assert meta["n_months"] == "488"
        rows = read_rows(out / "filtered.csv")
        assert len(rows) == 489
        # band-passed series have zero mean
        total = sum(float(row[1]) for row in rows[1:])
        assert abs(total) < 1e-8

    def test_metadata_has_input_digest(self, tmp_path):
        gen_dir = tmp_path / "gen"
        run("gen", "--regime", "coupled:60", "--out", gen_dir)
        out = tmp_path / "flt"
        assert run("filter", gen_dir / "panel.csv", "--kl", 2, "--ku", 9,
                   "--out", out) == 0
        meta = read_meta(out / "metadata.txt")
        assert meta["command"] == "filter"
        assert len(meta["input_sha256"]) == 64
        assert meta["detrend"] == "true"

    def test_band_flag_conflict(self, tmp_path, capsys):
        gen_dir = tmp_path / "gen"
        run("gen", "--regime", "coupled:60", "--out", gen_dir)
        assert run("filter", gen_dir / "panel.csv", "--kl", 2, "--ku", 9,
                   "--longest", 30, "--shortest", 7,
                   "--out", tmp_path / "flt") == 1
        assert "not both" in capsys.readouterr().err

    def test_band_required(self, tmp_path, capsys):
        gen_dir = tmp_path / "gen"
        run("gen", "--regime", "coupled:60", "--out", gen_dir)
        assert run("filter", gen_dir / "panel.csv", "--out", tmp_path / "f") == 1
        assert "band is required" in capsys.readouterr().err

    def test_peak_memory_about_one_copy_of_the_panel(self, tmp_path):
        # 150 members x 3,000 months, 3.6 MB of floats: the loader's
        # concatenation, the input and filtered panels held together and a
        # column-stacked copy for the writer peak at about 3.7 times that;
        # one copy of the panel at a time near 1.5
        rng = np.random.default_rng(0)
        write_panel_csv(Panel([f"s{i}" for i in range(150)], Month(2000, 1),
                              rng.normal(size=(150, 3000)).T), tmp_path / "panel.csv")
        tracemalloc.start()
        try:
            code = run("filter", tmp_path / "panel.csv", "--kl", 4, "--ku", 18,
                       "--out", tmp_path / "flt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1.6 * 150 * 3000 * 8


class TestSync:
    def test_outputs(self, regime_panel, tmp_path):
        out = tmp_path / "sync"
        assert run("sync", regime_panel, "--kl", 4, "--ku", 18,
                   "--window", 13, "--out", out) == 0
        gamma_rows = read_rows(out / "gamma2.csv")
        assert gamma_rows[0] == ["t", "date", "pair_i", "pair_j", "gamma2"]
        pairs = {(row[2], row[3]) for row in gamma_rows[1:]}
        assert len(pairs) == 10  # C(5,2)
        ratio_rows = read_rows(out / "ratios.csv")
        assert ratio_rows[0] == ["t", "date", "R_0.7", "R_0.8"]
        long_rows = read_rows(out / "ratios_long.csv")
        assert long_rows[0] == ["t", "date", "r", "R"]
        assert len(long_rows) == 1 + 2 * (len(ratio_rows) - 1)

    def test_metadata_periods(self, tmp_path):
        gen_dir = tmp_path / "gen"
        run("gen", "--regime", "coupled:505", "--members", 3, "--out", gen_dir)
        out = tmp_path / "sync"
        assert run("sync", gen_dir / "panel.csv", "--kl", 4, "--ku", 18,
                   "--window", 13, "--out", out) == 0
        meta = read_meta(out / "metadata.txt")
        assert meta["shortest_period_rounded"] == "28"
        assert meta["longest_period_rounded"] == "126"
        assert meta["n_pairs"] == "3"
        assert meta["window"] == "13"
        assert meta["trim_offset"] == "28"

    def test_custom_thresholds(self, regime_panel, tmp_path):
        out = tmp_path / "sync"
        assert run("sync", regime_panel, "--kl", 4, "--ku", 18, "--window", 13,
                   "--r", 0.5, "--r", 0.9, "--out", out) == 0
        assert read_rows(out / "ratios.csv")[0] == ["t", "date", "R_0.5", "R_0.9"]

    def test_calendar_annotation(self, regime_panel, tmp_path):
        calendar = tmp_path / "cal.csv"
        calendar.write_text("peak,trough\n1982-07,1983-11\n")
        out = tmp_path / "sync"
        assert run("sync", regime_panel, "--kl", 4, "--ku", 18, "--window", 13,
                   "--calendar", calendar, "--out", out) == 0
        rows = read_rows(out / "ratios.csv")
        assert rows[0][-1] == "regime"
        by_date = {row[1]: row[-1] for row in rows[1:]}
        assert by_date["1982-09"] == "contraction"
        assert by_date["1982-07"] == "expansion"
        meta = read_meta(out / "metadata.txt")
        assert "mean_R_0.7_contraction" in meta
        assert "mean_R_0.8_expansion" in meta

    def test_shipped_calendar_regime_is_the_per_month_rule(self, regime_panel, tmp_path):
        calendar = Path(__file__).resolve().parents[1] / "data" / "japan_recessions.csv"
        episodes = [[Month.parse(cell) for cell in row] for row in read_rows(calendar)[1:]]
        out = tmp_path / "sync"
        assert run("sync", regime_panel, "--kl", 4, "--ku", 18, "--window", 13,
                   "--calendar", calendar, "--out", out) == 0
        rows = read_rows(out / "ratios.csv")
        assert rows[0][-1] == "regime"
        assert {row[-1] for row in rows[1:]} == {"contraction", "expansion"}
        for row in rows[1:]:
            month = Month.parse(row[1])
            in_contraction = any(p < month <= t for p, t in episodes)
            assert row[-1] == ("contraction" if in_contraction else "expansion"), row[1]

    def test_single_series_fails(self, tmp_path, capsys):
        gen_dir = tmp_path / "gen"
        run("gen", "--sine", "--n", 120, "--members", 1, "--out", gen_dir)
        assert run("sync", gen_dir / "panel.csv", "--kl", 2, "--ku", 18,
                   "--window", 13, "--out", tmp_path / "sync") == 1
        assert "need >= 2 series" in capsys.readouterr().err

    def test_band_out_of_range(self, regime_panel, tmp_path, capsys):
        assert run("sync", regime_panel, "--kl", 4, "--ku", 500,
                   "--window", 13, "--out", tmp_path / "sync") == 1
        assert "floor(N/2) = 120" in capsys.readouterr().err

    def test_idempotent_reruns(self, regime_panel, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert run("sync", regime_panel, "--kl", 4, "--ku", 18,
                       "--window", 13, "--out", out) == 0
        for name in ("gamma2.csv", "ratios.csv", "ratios_long.csv",
                     "metadata.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_failed_run_leaves_no_outputs(self, regime_panel, tmp_path, capsys):
        out = tmp_path / "sync"
        # a directory squatting on a target filename forces a write failure
        (out / "ratios.csv").mkdir(parents=True)
        assert run("sync", regime_panel, "--kl", 4, "--ku", 18,
                   "--window", 13, "--out", out) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "gamma2.csv").exists()
        assert not (out / "ratios_long.csv").exists()
        assert not (out / "metadata.txt").exists()

    def test_thresholds_with_one_label_rejected(self, regime_panel, tmp_path, capsys):
        # both print as 0.7, which would name two R columns and two metadata keys alike
        calendar = tmp_path / "cal.csv"
        calendar.write_text("peak,trough\n1982-07,1983-11\n")
        out = tmp_path / "sync"
        assert run("sync", regime_panel, "--kl", 4, "--ku", 18, "--window", 13,
                   "--r", 0.7, "--r", 0.70000000000001, "--calendar", calendar,
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert ("thresholds 0.7 and 0.70000000000001 both print as 0.7: "
                "thresholds must differ in their first 6 significant digits") in err
        assert list(out.iterdir()) == []

    def test_threshold_has_one_label_in_every_output(self, regime_panel, tmp_path):
        calendar = tmp_path / "cal.csv"
        calendar.write_text("peak,trough\n1982-07,1983-11\n")
        out = tmp_path / "sync"
        assert run("sync", regime_panel, "--kl", 4, "--ku", 18, "--window", 13,
                   "--r", "1e-07", "--r", 0.5, "--calendar", calendar, "--out", out) == 0
        assert read_rows(out / "ratios.csv")[0] == ["t", "date", "R_1e-07", "R_0.5", "regime"]
        assert {row[2] for row in read_rows(out / "ratios_long.csv")[1:]} == {"1e-07", "0.5"}
        meta = read_meta(out / "metadata.txt")
        assert meta["thresholds"] == "1e-07,0.5"
        assert {"mean_R_1e-07_contraction", "mean_R_1e-07_expansion"} <= meta.keys()
        out = tmp_path / "sweep"
        assert run("sweep", regime_panel, "--kl", 4, "--ku", 18, "--windows", "11,13",
                   "--r", "1e-07", "--r", 0.5, "--out", out) == 0
        assert read_rows(out / "ratios_W11.csv")[0] == ["t", "date", "R_1e-07", "R_0.5"]
        assert [row[2] for row in read_rows(out / "stability.csv")[1:]] == ["1e-07", "0.5"]
        assert read_meta(out / "metadata.txt")["thresholds"] == "1e-07,0.5"

    def test_nan_threshold_is_a_range_error(self, regime_panel, tmp_path, capsys):
        out = tmp_path / "sync"
        assert run("sync", regime_panel, "--kl", 4, "--ku", 18, "--window", 13,
                   "--r", "nan", "--out", out) == 1
        assert capsys.readouterr().err == "error: thresholds must lie in [0, 1], got nan\n"
        assert list(out.iterdir()) == []

    def test_negative_zero_threshold_labels_as_zero(self, regime_panel, tmp_path):
        outputs = []
        for i, order in enumerate((("-0", "0"), ("0", "-0"))):
            out = tmp_path / f"sync{i}"
            assert run("sync", regime_panel, "--kl", 4, "--ku", 18, "--window", 13,
                       "--r", order[0], "--r", order[1], "--out", out) == 0
            assert read_rows(out / "ratios.csv")[0] == ["t", "date", "R_0"]
            outputs.append([(out / name).read_bytes()
                            for name in ("ratios.csv", "ratios_long.csv")])
        assert outputs[0] == outputs[1]

    def test_no_trim_no_detrend_flags(self, regime_panel, tmp_path):
        out = tmp_path / "sync"
        assert run("sync", regime_panel, "--kl", 4, "--ku", 18, "--window", 13,
                   "--no-trim", "--no-detrend", "--out", out) == 0
        meta = read_meta(out / "metadata.txt")
        assert meta["trim"] == "false"
        assert meta["detrend"] == "false"
        assert meta["trim_offset"] == "0"
        assert meta["n_samples"] == str(240 - 13 + 1)


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Records each call of the pair-scoring kernel, one per panel member scored."""
    calls = []
    kernel = phasesync.sync.windowed_resultant_sq

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(phasesync.sync, "windowed_resultant_sq", counted)
    return calls


class TestStreamedSync:
    """sync scores one member's pairs at a time and writes them as they come."""

    @pytest.mark.parametrize("calendar_text, message", [
        (None, "No such file"),
        ("peak,trough\n1950-01,1951-01\n", "calendar episodes are disjoint"),
    ], ids=["missing", "disjoint"])
    def test_bad_calendar_fails_before_scoring(self, regime_panel, tmp_path, capsys,
                                               monkeypatch, kernel_calls, calendar_text,
                                               message):
        bandpassed, bandpass = [], phasesync.pipeline.bandpass

        def counted_bandpass(*args):
            bandpassed.append(1)
            return bandpass(*args)

        monkeypatch.setattr(phasesync.pipeline, "bandpass", counted_bandpass)
        calendar = tmp_path / "cal.csv"
        if calendar_text is not None:
            calendar.write_text(calendar_text)
        out = tmp_path / "sync"
        assert run("sync", regime_panel, "--kl", 4, "--ku", 18, "--window", 13,
                   "--calendar", calendar, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert bandpassed == []  # the calendar is checked before any series is filtered
        assert kernel_calls == []
        assert list(out.iterdir()) == []

    def test_write_failure_after_first_block(self, regime_panel, tmp_path, capsys,
                                             monkeypatch, kernel_calls):
        # the 5-member panel's first block holds 4 pairs; the 5th row fails
        format_g12, rows = phasesync.pipeline.format_g12, []

        def fail_on_fifth_row(values):
            if len(rows) + len(values) > 4:
                raise OSError("No space left on device")
            rows.extend(values)
            return format_g12(values)

        monkeypatch.setattr(phasesync.pipeline, "format_g12", fail_on_fifth_row)
        out = tmp_path / "sync"
        assert run("sync", regime_panel, "--kl", 4, "--ku", 18, "--window", 13,
                   "--out", out) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert len(kernel_calls) == 2  # failed while writing the second member's block
        assert list(out.iterdir()) == []

    def test_peak_memory_below_the_pair_array(self, tmp_path):
        # 60 members x 300 months: 1,770 pairs x 254 samples of float64 is
        # 3.6 MB; holding them all peaks at about 1.4 times that, one
        # member's block at a time near 0.4
        spec = RegimeSpec(segments=((150, "coupled"), (150, "uncoupled")), seed=3)
        write_panel_csv(gen_regime_panel(60, spec), tmp_path / "panel.csv")
        out = tmp_path / "sync"
        tracemalloc.start()
        try:
            code = run("sync", tmp_path / "panel.csv", "--kl", 4, "--ku", 18,
                       "--window", 13, "--out", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        meta = read_meta(out / "metadata.txt")
        assert peak < int(meta["n_pairs"]) * int(meta["n_samples"]) * 8


class TestSweep:
    def test_window_sweep(self, regime_panel, tmp_path):
        out = tmp_path / "sweep"
        assert run("sweep", regime_panel, "--kl", 4, "--ku", 18,
                   "--windows", "11,13,15", "--out", out) == 0
        for w in (11, 13, 15):
            assert (out / f"ratios_W{w}.csv").exists()
        rows = read_rows(out / "stability.csv")
        assert rows[0] == ["setting_a", "setting_b", "r", "pearson"]
        assert len(rows) == 1 + 3 * 2  # C(3,2) pairs x 2 thresholds
        for row in rows[1:]:
            assert -1.0 <= float(row[3]) <= 1.0
        meta = read_meta(out / "metadata.txt")
        assert meta["settings"] == "W11,W13,W15"

    def test_band_sweep(self, regime_panel, tmp_path):
        out = tmp_path / "sweep"
        assert run("sweep", regime_panel, "--bands", "5:17,4:18",
                   "--window", 13, "--out", out) == 0
        assert (out / "ratios_kl5_ku17.csv").exists()
        assert (out / "ratios_kl4_ku18.csv").exists()
        rows = read_rows(out / "stability.csv")
        assert len(rows) == 1 + 1 * 2

    def test_band_sweep_needs_window(self, regime_panel, tmp_path, capsys):
        assert run("sweep", regime_panel, "--bands", "5:17,4:18",
                   "--out", tmp_path / "sweep") == 1
        assert "--window" in capsys.readouterr().err

    def test_exactly_one_axis(self, regime_panel, tmp_path, capsys):
        assert run("sweep", regime_panel, "--kl", 4, "--ku", 18,
                   "--out", tmp_path / "s1") == 1
        assert "exactly one" in capsys.readouterr().err
        assert run("sweep", regime_panel, "--kl", 4, "--ku", 18,
                   "--windows", "11,13", "--bands", "5:17,4:18",
                   "--out", tmp_path / "s2") == 1
        assert "exactly one" in capsys.readouterr().err

    def test_constant_ratio_series_gives_nan_without_warning(self, tmp_path):
        # four locked sines: every pair is locked in every month, so each
        # setting's R series is constant and has no correlation
        assert run("gen", "--sine", "--n", 240, "--period", 30, "--members", 4,
                   "--phase", "0,0.5,1,1.5", "--out", tmp_path) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("sweep", tmp_path / "panel.csv", "--kl", 4, "--ku", 18,
                       "--windows", "11,13", "--out", tmp_path / "sw")
        assert code == 0
        rows = read_rows(tmp_path / "sw" / "stability.csv")
        assert [row[:3] for row in rows[1:]] == [["W11", "W13", "0.7"], ["W11", "W13", "0.8"]]
        assert all(math.isnan(float(row[3])) for row in rows[1:])

    def test_window_sweep_records_its_band(self, regime_panel, tmp_path):
        out = tmp_path / "sweep"
        assert run("sweep", regime_panel, "--longest", 60, "--shortest", 15,
                   "--windows", "11,13", "--out", out) == 0
        meta = read_meta(out / "metadata.txt")
        assert (meta["band_lower"], meta["band_upper"]) == ("4", "16")
        assert meta["shortest_period_months"] == "15"
        assert meta["longest_period_months"] == "60"
        assert (meta["shortest_period_rounded"], meta["longest_period_rounded"]) == ("15", "60")
        assert "window" not in meta

    def test_band_sweep_records_its_window(self, regime_panel, tmp_path):
        out = tmp_path / "sweep"
        assert run("sweep", regime_panel, "--bands", "5:17,4:18",
                   "--window", 13, "--out", out) == 0
        meta = read_meta(out / "metadata.txt")
        assert meta["window"] == "13"
        assert "band_lower" not in meta

    @pytest.mark.parametrize("flag, value", [
        ("--kl", 3), ("--ku", 20), ("--longest", 80), ("--shortest", 12),
    ])
    def test_band_sweep_rejects_band_flag(self, regime_panel, tmp_path, capsys,
                                          flag, value):
        out = tmp_path / "sweep"
        assert run("sweep", regime_panel, "--bands", "5:17,4:18", "--window", 13,
                   flag, value, "--out", out) == 1
        assert f"{flag} does not apply to a --bands sweep" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_window_sweep_rejects_window(self, regime_panel, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run("sweep", regime_panel, "--kl", 4, "--ku", 18, "--windows", "11,13",
                   "--window", 13, "--out", out) == 1
        assert "--window does not apply to a --windows sweep" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("axis, message", [
        (("--kl", 4, "--ku", 18, "--windows", "11,13,11"), "--windows repeats the window 11"),
        (("--bands", "4:18,5:17,04:18", "--window", 13), "--bands repeats the band 4:18"),
    ], ids=["windows", "bands"])
    def test_repeated_setting_rejected_before_panel_is_read(self, tmp_path, capsys,
                                                            axis, message):
        # the input does not exist, so only a check made before the load can answer
        out = tmp_path / "sweep"
        assert run("sweep", tmp_path / "absent.csv", *axis, "--out", out) == 1
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_single_setting_rejected(self, regime_panel, tmp_path, capsys):
        assert run("sweep", regime_panel, "--kl", 4, "--ku", 18,
                   "--windows", "13", "--out", tmp_path / "sweep") == 1
        assert "at least two" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("filter", "--longest", 60, "--shortest", 15),
    ("sync", "--kl", 4, "--ku", 18, "--window", 13, "--calendar", "{calendar}"),
    ("sweep", "--kl", 4, "--ku", 18, "--windows", "11,13"),
    ("sweep", "--bands", "5:17,4:18", "--window", 13),
], ids=["filter", "sync-calendar", "sweep-windows", "sweep-bands"])
def test_metadata_keys_written_once(regime_panel, tmp_path, argv):
    calendar = tmp_path / "cal.csv"
    calendar.write_text("peak,trough\n1982-07,1983-11\n")
    out = tmp_path / "out"
    argv = [str(calendar) if a == "{calendar}" else a for a in argv]
    assert run(argv[0], regime_panel, *argv[1:], "--out", out) == 0
    keys = [line.split(" = ", 1)[0]
            for line in (out / "metadata.txt").read_text().splitlines()]
    assert len(keys) == len(set(keys)), sorted(k for k in keys if keys.count(k) > 1)


class TestMainContract:
    def test_missing_input_file(self, tmp_path, capsys):
        assert run("sync", tmp_path / "nope.csv", "--kl", 4, "--ku", 18,
                   "--window", 13, "--out", tmp_path) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            run("frobnicate")
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("cells,message", [
        (b"1\xff,2", "line 3: not UTF-8 text"),
        (b"1" * 140_000 + b",2", "line 3: field larger than field limit"),
    ], ids=["not-utf8", "oversized-field"])
    def test_unreadable_panel_is_clean_error(self, tmp_path, capsys, cells, message):
        panel = tmp_path / "panel.csv"
        panel.write_bytes(b"date,a,b\n2000-01,1,2\n2000-02," + cells + b"\n2000-03,5,6\n")
        out = tmp_path / "out"
        assert run("filter", panel, "--kl", 1, "--ku", 1, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert list(out.iterdir()) == []

    def test_unreadable_calendar_is_clean_error(self, regime_panel, tmp_path, capsys):
        calendar = tmp_path / "cal.csv"
        calendar.write_bytes(b"peak,trough\n1982-07,1983-11\n\xff\n")
        out = tmp_path / "out"
        assert run("sync", regime_panel, "--kl", 4, "--ku", 18, "--window", 13,
                   "--calendar", calendar, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 3: not UTF-8 text" in err
        assert list(out.iterdir()) == []


class TestOutputIsNotAnInput:
    """An output that is the input panel or the calendar is refused before
    it is opened: exit 1, no outputs, the input's bytes unchanged."""

    def refused(self, capsys, out, source, named, *argv):
        """Run argv, whose input `named` is the file `source` inside out."""
        before = source.read_bytes()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out / source.name) in err and str(named) in err
        assert source.read_bytes() == before
        assert [p.name for p in out.iterdir()] == [source.name]

    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
    def test_filter(self, regime_panel, tmp_path, capsys, link):
        out = tmp_path / "out"
        out.mkdir()
        source = out / "filtered.csv"
        source.write_bytes(regime_panel.read_bytes())
        named = source
        if link:
            named = tmp_path / "link.csv"
            named.symlink_to(source)
        self.refused(capsys, out, source, named,
                     "filter", named, "--kl", 4, "--ku", 18, "--out", out)

    def test_sync_input(self, regime_panel, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        source = out / "gamma2.csv"
        source.write_bytes(regime_panel.read_bytes())
        self.refused(capsys, out, source, source, "sync", source, "--kl", 4, "--ku", 18,
                     "--window", 13, "--out", out)

    def test_sync_calendar(self, regime_panel, tmp_path, capsys):
        # gamma2.csv is written before ratios.csv is refused, then removed
        out = tmp_path / "out"
        out.mkdir()
        calendar = out / "ratios.csv"
        calendar.write_text("peak,trough\n1982-07,1983-11\n")
        self.refused(capsys, out, calendar, calendar, "sync", regime_panel, "--kl", 4, "--ku", 18,
                     "--window", 13, "--calendar", calendar, "--out", out)

    def test_sweep(self, regime_panel, tmp_path, capsys):
        # every ratios_W*.csv is written before stability.csv is refused
        out = tmp_path / "out"
        out.mkdir()
        source = out / "stability.csv"
        source.write_bytes(regime_panel.read_bytes())
        self.refused(capsys, out, source, source, "sweep", source, "--kl", 4, "--ku", 18,
                     "--windows", "11,13,15", "--out", out)


def test_non_utf8_locale_gives_same_bytes(tmp_path, monkeypatch):
    """Files are read and written as UTF-8 whatever the locale's encoding."""
    spec = RegimeSpec(segments=((120, "coupled"),), seed=7)
    regime = gen_regime_panel(3, spec)
    panel = Panel(("Tōkyō", "Ōsaka", "Nagoya"), regime.start, regime.values)
    write_panel_csv(panel, tmp_path / "panel.csv")
    argv = ["sync", "panel.csv", "--kl", 2, "--ku", 9, "--window", 13]
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--out", "in_process") == 0

    src = str(Path(phasesync.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    encoding = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    assert encoding.lower().replace("-", "") != "utf8"
    child = subprocess.run([sys.executable, "-m", "phasesync", *map(str, argv),
                            "--out", "child"], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr

    names = sorted(p.name for p in (tmp_path / "in_process").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "child").iterdir())
    for name in names:
        assert (tmp_path / "child" / name).read_bytes() == \
            (tmp_path / "in_process" / name).read_bytes(), name
