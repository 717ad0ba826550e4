import csv
import hashlib
import importlib
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
from phasesync import (FilterBand, Month, Panel, PipelineConfig, RegimeSpec, gen_regime_panel,
                        load_panel_csv, load_recession_csv, run_pipeline, write_panel_csv)
from phasesync.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_meta(path):
    lines = path.read_text().splitlines()
    return dict(line.split(" = ", 1) for line in lines)


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree(out):
    """{name: bytes} of everything in out; a directory's value is None."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in out.iterdir()}


def child_env(**extra):
    """os.environ with this checkout's phasesync first on PYTHONPATH."""
    src = str(Path(phasesync.__file__).resolve().parent.parent)
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


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
        (("--sine", "--n", 20, "--amp", "1,x"), "--amp expects comma-separated numbers, got 'x'"),
        (("--sine", "--n", 20, "--amp", "1,2"), "--amp got 2 values for 3 members"),
        (("--regime", "coupled:x"),
         "--regime expects comma-separated regime:length parts, got 'coupled:x'"),
        (("--regime", "coupled:1"), "total panel length must be >= 2"),
        (("--regime", "coupled:0"), "need an integer segment length >= 1, got 0"),
        (("--sine", "--n", 1), "need an integer n >= 2, got 1"),
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

    def test_band_out_of_range(self, tmp_path, capsys):
        gen_dir = tmp_path / "gen"
        run("gen", "--regime", "coupled:60", "--out", gen_dir)
        out = tmp_path / "flt"
        assert run("filter", gen_dir / "panel.csv", "--kl", 2, "--ku", 31, "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: band (2, 31) invalid for length 60: need upper <= floor(N/2) = 30\n")
        assert list(out.iterdir()) == []

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
        assert "calendar" not in meta and "calendar_sha256" not in meta
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

    def test_calendar_covering_every_sample_month(self, regime_panel, tmp_path):
        # no sample month is an expansion month: that regime gets no key, not nan
        calendar = tmp_path / "cal.csv"
        calendar.write_text("peak,trough\n1970-01,2020-01\n")
        out = tmp_path / "sync"
        assert run("sync", regime_panel, "--kl", 4, "--ku", 18, "--window", 13,
                   "--calendar", calendar, "--out", out) == 0
        assert {row[-1] for row in read_rows(out / "ratios.csv")[1:]} == {"contraction"}
        meta = read_meta(out / "metadata.txt")
        assert [key for key in meta if key.startswith("mean_R_")] == [
            "mean_R_0.7_contraction", "mean_R_0.8_contraction"]
        assert "nan" not in meta.values()

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

    def test_regimes_feed_the_regime_column_and_the_means(self, tmp_path):
        # the seed-7 demo panel with the U.S. calendar: both regimes have sample months
        gen, out = tmp_path / "gen", tmp_path / "sync"
        calendar = Path(__file__).resolve().parents[1] / "data" / "us_recessions.csv"
        assert run("gen", "--regime", "coupled:120,uncoupled:120,coupled:120",
                   "--members", 10, "--seed", 7, "--out", gen) == 0
        assert run("sync", gen / "panel.csv", "--kl", 4, "--ku", 18, "--window", 13,
                   "--calendar", calendar, "--out", out) == 0
        result = run_pipeline(load_panel_csv(gen / "panel.csv"),
                              PipelineConfig(band=FilterBand(4, 18), window=13))
        regimes = result.meta.regimes(load_recession_csv(calendar))
        assert [name for name, _ in regimes] == ["contraction", "expansion"]
        labels = np.array([row[-1] for row in read_rows(out / "ratios.csv")[1:]])
        meta = read_meta(out / "metadata.txt")
        means = {key: value for key, value in meta.items() if key.startswith("mean_R_")}
        assert list(means) == [f"mean_R_{r}_{name}" for r in ("0.7", "0.8")
                               for name, _ in regimes]
        for name, mask in regimes:
            assert (labels[mask] == name).all()
            for r, row in zip(("0.7", "0.8"), result.ratios):
                assert means[f"mean_R_{r}_{name}"] == format(row[mask].mean(), ".12g")

    def test_single_series_fails(self, tmp_path, capsys):
        gen_dir = tmp_path / "gen"
        run("gen", "--sine", "--n", 120, "--members", 1, "--out", gen_dir)
        assert run("sync", gen_dir / "panel.csv", "--kl", 2, "--ku", 18,
                   "--window", 13, "--out", tmp_path / "sync") == 1
        assert "need >= 2 series" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (("--kl", 4), "--kl and --ku must be given together"),
        (("--longest", 90), "--longest and --shortest must be given together"),
    ], ids=["kl", "longest"])
    def test_band_flag_without_its_pair(self, regime_panel, tmp_path, capsys, flags, message):
        out = tmp_path / "sync"
        assert run("sync", regime_panel, *flags, "--window", 13, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(out.iterdir()) == []

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
        # a directory squatting on an output is found before any output moves
        (out / "ratios.csv").mkdir(parents=True)
        assert run("sync", regime_panel, "--kl", 4, "--ku", 18,
                   "--window", 13, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 21] Is a directory: '{out / 'ratios.csv'}'\n")
        assert tree(out) == {"ratios.csv": None}

    def test_failed_rerun_leaves_earlier_run(self, regime_panel, tmp_path, capsys):
        out = tmp_path / "sync"
        argv = ["--kl", 4, "--ku", 18, "--window", 13, "--out", out]
        assert run("sync", regime_panel, *argv) == 0
        before = tree(out)
        # a rerun that fails before writing an output leaves --out as it was
        assert run("sync", regime_panel, "--calendar", tmp_path / "missing.csv", *argv) == 1
        assert tree(out) == before
        # and so does one that fails after writing gamma2.csv
        panel = phasesync.load_panel_csv(regime_panel)
        values = panel.values.copy()
        values[:, 1] = 1.0
        write_panel_csv(Panel(panel.ids, panel.start, values), tmp_path / "flat.csv")
        capsys.readouterr()
        assert run("sync", tmp_path / "flat.csv", *argv) == 1
        assert f"series '{panel.ids[1]}': zero amplitude everywhere" in capsys.readouterr().err
        assert tree(out) == before

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

    @pytest.mark.parametrize("argv, message", [
        (("sync", "--window", 12), "window must be an odd integer >= 3, got 12"),
        (("sync", "--window", 13, "--r", 2), "thresholds must lie in [0, 1], got 2.0"),
        (("sweep", "--windows", "11,13", "--r", 2), "thresholds must lie in [0, 1], got 2.0"),
    ], ids=["window", "sync-threshold", "sweep-threshold"])
    def test_config_flag_named_before_unfitting_band(self, regime_panel, tmp_path, capsys,
                                                     argv, message):
        # PipelineConfig checks the window and thresholds; ResultMeta.of then the band
        command, *flags = argv
        out = tmp_path / "run"
        assert run(command, regime_panel, "--kl", 4, "--ku", 500, *flags, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(out.iterdir()) == []

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
        ("peak,trough\n", "cal.csv: no episodes after the header"),
        ("peak,trough\n1990-07,1991-03,x\n", "row 2: expected 2 cells, got 3"),
        ("peak,trough\n1990-07,1991-03\n1991-01,1992-01\n",
         "cal.csv: row 3: episode starting 1991-01 overlaps previous trough 1991-03"),
    ], ids=["missing", "disjoint", "empty", "three-cells", "overlap"])
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

    def test_negative_zero_threshold_labels_as_zero(self, regime_panel, tmp_path):
        out = tmp_path / "sweep"
        assert run("sweep", regime_panel, "--kl", 4, "--ku", 18, "--windows", "11,13",
                   "--r", "-0", "--r", "0.8", "--out", out) == 0
        assert read_meta(out / "metadata.txt")["thresholds"] == "0,0.8"
        assert [row[2] for row in read_rows(out / "stability.csv")[1:]] == ["0", "0.8"]
        assert read_rows(out / "ratios_W13.csv")[0] == ["t", "date", "R_0", "R_0.8"]

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
        (("--kl", 4, "--ku", 18, "--windows", "11,x"),
         "--windows expects comma-separated integers, got 'x'"),
        (("--bands", "4-18,5:17", "--window", 13),
         "--bands expects comma-separated lower:upper pairs, got '4-18'"),
        (("--bands", "4:18", "--window", 13), "--bands needs at least two values to compare"),
        (("--bands", "0:18,4:18", "--window", 13),
         "--bands part '0:18': need 1 <= lower <= upper, got (0, 18)"),
        (("--bands", "18:4,4:18", "--window", 13),
         "--bands part '18:4': need 1 <= lower <= upper, got (18, 4)"),
        (("--kl", 4, "--ku", 18, "--windows", "11,12"),
         "--windows part '12': window must be an odd integer >= 3, got 12"),
        (("--kl", 4, "--ku", 18, "--windows", "11,1"),
         "--windows part '1': window must be an odd integer >= 3, got 1"),
    ], ids=["windows", "bands", "windows-not-integer", "bands-not-a-pair", "one-band",
            "band-below-1", "band-inverted", "window-even", "window-below-3"])
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


# every command that writes metadata.txt; {calendar} is a one-episode calendar
metadata_runs = pytest.mark.parametrize("argv", [
    ("filter", "--longest", 60, "--shortest", 15),
    ("sync", "--kl", 4, "--ku", 18, "--window", 13),
    ("sync", "--kl", 4, "--ku", 18, "--window", 13, "--calendar", "{calendar}"),
    ("sweep", "--kl", 4, "--ku", 18, "--windows", "11,13"),
    ("sweep", "--bands", "5:17,4:18", "--window", 13),
], ids=["filter", "sync", "sync-calendar", "sweep-windows", "sweep-bands"])


def run_with_calendar(panel, tmp_path, argv):
    """Run argv on panel into tmp_path/out, {calendar} filled in; return the
    calendar path, or None if argv names none."""
    calendar = tmp_path / "cal.csv"
    calendar.write_text("peak,trough\n1982-07,1983-11\n")
    filled = [str(calendar) if a == "{calendar}" else a for a in argv]
    assert run(filled[0], panel, *filled[1:], "--out", tmp_path / "out") == 0
    return calendar if "{calendar}" in argv else None


@metadata_runs
def test_metadata_keys_written_once(regime_panel, tmp_path, argv):
    run_with_calendar(regime_panel, tmp_path, argv)
    keys = [line.split(" = ", 1)[0]
            for line in (tmp_path / "out" / "metadata.txt").read_text().splitlines()]
    assert len(keys) == len(set(keys)), sorted(k for k in keys if keys.count(k) > 1)


@metadata_runs
def test_metadata_opens_with_input_digests_and_is_written_last(regime_panel, tmp_path,
                                                               monkeypatch, argv):
    targets, target = [], phasesync.pipeline.StagedOutputs.target

    def recorded(self, name):
        targets.append(name)
        return target(self, name)

    monkeypatch.setattr(phasesync.pipeline.StagedOutputs, "target", recorded)
    calendar = run_with_calendar(regime_panel, tmp_path, argv)
    assert targets[-1] == "metadata.txt" and targets.count("metadata.txt") == 1
    # outputs, the last item, names every other file the run wrote
    outputs = read_meta(tmp_path / "out" / "metadata.txt")["outputs"]
    assert outputs.split(",") == sorted(targets[:-1]) == sorted(
        p.name for p in (tmp_path / "out").iterdir() if p.name != "metadata.txt")
    header = [("command", argv[0]), ("input", str(regime_panel)),
              ("input_sha256", sha256_of(regime_panel))]
    if calendar is not None:
        header += [("calendar", str(calendar)), ("calendar_sha256", sha256_of(calendar))]
    lines = (tmp_path / "out" / "metadata.txt").read_text().splitlines()
    assert [tuple(line.split(" = ", 1)) for line in lines[:len(header)]] == header


class TestMainContract:
    def test_missing_input_file(self, tmp_path, capsys):
        assert run("sync", tmp_path / "nope.csv", "--kl", 4, "--ku", 18,
                   "--window", 13, "--out", tmp_path) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_directory_input_is_refused(self, regime_panel, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("sync", regime_panel, "--kl", 4, "--ku", 18, "--window", 13,
                   "--calendar", tmp_path, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: --calendar {tmp_path} is not a regular file: it is read twice\n")
        assert not out.exists()

    # every line break str.splitlines() sees: written as is, the path would
    # add a forged 'nel = x.csv' line to metadata.txt
    @pytest.mark.parametrize("brk", list("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_line_break_in_input_path_is_refused(self, regime_panel, tmp_path, capsys, brk,
                                                 kernel_calls):
        panel = tmp_path / f"pa{brk}nel = x.csv"
        panel.write_bytes(regime_panel.read_bytes())
        out = tmp_path / "out"
        out.mkdir()
        assert run("sync", panel, "--kl", 4, "--ku", 18, "--window", 13, "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: metadata 'input': a key or value holds a line break\n")
        assert kernel_calls == []  # refused before any work
        assert list(out.iterdir()) == []

    # a name holding bytes that are not UTF-8 decodes to lone surrogates, which
    # metadata.txt, a UTF-8 file, cannot hold
    @pytest.mark.parametrize("key", ["input", "calendar"])
    def test_non_utf8_input_path_is_refused(self, regime_panel, tmp_path, capsys, key,
                                            kernel_calls):
        inputs = {"input": regime_panel,
                  "calendar": Path(__file__).resolve().parents[1] / "data" / "us_recessions.csv"}
        try:
            path = tmp_path / os.fsdecode(b"p\xff.csv")
            path.write_bytes(inputs[key].read_bytes())
        except (OSError, UnicodeError):
            pytest.skip("the file system takes only UTF-8 names")
        inputs[key] = path
        out = tmp_path / "out"
        out.mkdir()
        assert run("sync", inputs["input"], "--kl", 4, "--ku", 18, "--window", 13,
                   "--calendar", inputs["calendar"], "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: metadata '{key}': a key or value is not UTF-8 text\n")
        assert kernel_calls == []  # refused before any work
        assert list(out.iterdir()) == []

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
    any output moves into --out: exit 1, no outputs, the input's bytes
    unchanged."""

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
        # gamma2.csv is staged before ratios.csv is refused, and never moves
        out = tmp_path / "out"
        out.mkdir()
        calendar = out / "ratios.csv"
        calendar.write_text("peak,trough\n1982-07,1983-11\n")
        self.refused(capsys, out, calendar, calendar, "sync", regime_panel, "--kl", 4, "--ku", 18,
                     "--window", 13, "--calendar", calendar, "--out", out)

    def test_sync_calendar_named_metadata(self, regime_panel, tmp_path, capsys):
        # every output is staged before metadata.txt is refused, and none
        # moves; metadata.txt itself is kept
        out = tmp_path / "out"
        out.mkdir()
        calendar = out / "metadata.txt"
        calendar.write_text("peak,trough\n1982-07,1983-11\n")
        self.refused(capsys, out, calendar, calendar, "sync", regime_panel, "--kl", 4, "--ku", 18,
                     "--window", 13, "--calendar", calendar, "--out", out)

    def test_sweep(self, regime_panel, tmp_path, capsys):
        # every ratios_W*.csv is staged before stability.csv is refused
        out = tmp_path / "out"
        out.mkdir()
        source = out / "stability.csv"
        source.write_bytes(regime_panel.read_bytes())
        self.refused(capsys, out, source, source, "sweep", source, "--kl", 4, "--ku", 18,
                     "--windows", "11,13,15", "--out", out)


class TestOneRunPerOut:
    """A run that succeeds replaces the run its --out held, and one that
    fails leaves --out as it was. Files no metadata.txt names, and inputs,
    are kept."""

    BAND = ("--kl", 4, "--ku", 18)

    def test_each_run_replaces_the_last(self, regime_panel, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        steps = [
            (("sweep", *self.BAND, "--windows", "11,13,15"),
             ["ratios_W11.csv", "ratios_W13.csv", "ratios_W15.csv", "stability.csv"]),
            (("sweep", *self.BAND, "--windows", "11,13"),
             ["ratios_W11.csv", "ratios_W13.csv", "stability.csv"]),
            (("sync", *self.BAND, "--window", 13),
             ["gamma2.csv", "ratios.csv", "ratios_long.csv"]),
            (("filter", *self.BAND), ["filtered.csv"]),
        ]
        for argv, names in steps:
            assert run(argv[0], regime_panel, *argv[1:], "--out", out) == 0
            assert sorted(tree(out)) == sorted(names + ["metadata.txt", "notes.txt"])
            assert read_meta(out / "metadata.txt")["outputs"] == ",".join(names)
        assert (out / "notes.txt").read_text() == "kept\n"
        # gen writes no metadata.txt, so it leaves the earlier run alone
        before = tree(out)
        assert run("gen", "--sine", "--n", 60, "--out", out) == 0
        assert tree(out) == {**before, "panel.csv": (out / "panel.csv").read_bytes()}

    def test_input_named_by_outputs_is_kept(self, regime_panel, tmp_path):
        out = tmp_path / "d"
        assert run("filter", regime_panel, *self.BAND, "--out", out) == 0
        filtered = (out / "filtered.csv").read_bytes()
        assert run("sync", out / "filtered.csv", *self.BAND, "--window", 13,
                   "--no-detrend", "--out", out) == 0
        assert (out / "filtered.csv").read_bytes() == filtered
        assert sorted(tree(out)) == ["filtered.csv", "gamma2.csv", "metadata.txt",
                                     "ratios.csv", "ratios_long.csv"]

    def test_forged_outputs_remove_nothing(self, regime_panel, tmp_path):
        out = tmp_path / "d"
        (out / "sub").mkdir(parents=True)
        kept = [tmp_path / "x", tmp_path / "y", out / "sub" / "z"]
        for path in kept:
            path.write_text("kept\n")
        (out / "metadata.txt").write_text(f"outputs = ../x,{tmp_path / 'y'},sub/z,sub,,.,..\n")
        assert run("sync", regime_panel, *self.BAND, "--window", 13, "--out", out) == 0
        assert all(path.read_text() == "kept\n" for path in kept)
        assert sorted(tree(out)) == ["gamma2.csv", "metadata.txt", "ratios.csv",
                                     "ratios_long.csv", "sub"]

    def test_named_link_is_removed_not_its_target(self, regime_panel, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        target = tmp_path / "target.csv"
        target.write_text("kept\n")
        (out / "link.csv").symlink_to(target)
        (out / "metadata.txt").write_text("outputs = link.csv\n")
        assert run("filter", regime_panel, *self.BAND, "--out", out) == 0
        assert sorted(tree(out)) == ["filtered.csv", "metadata.txt"]
        assert target.read_text() == "kept\n"

    @pytest.mark.parametrize("argv, module", [
        (("sync", *BAND, "--window", 13), phasesync.pipeline),
        (("sweep", *BAND, "--windows", "11,13"), phasesync.cli),
    ], ids=["sync", "sweep"])
    def test_interrupt_leaves_out_as_it_was(self, regime_panel, tmp_path, monkeypatch,
                                            argv, module):
        out = tmp_path / "d"
        assert run(argv[0], regime_panel, *argv[1:], "--out", out) == 0
        before = tree(out)

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(module, "score_pairs", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(argv[0], regime_panel, *argv[1:], "--out", out)
        assert list(out.glob(".phasesync-*")) == []
        assert tree(out) == before

    def test_publish_that_fails_leaves_no_metadata(self, regime_panel, tmp_path, capsys,
                                                   monkeypatch):
        # once the earlier run is removed, metadata.txt is the last file to
        # move in, so an interrupted publish never looks complete
        out = tmp_path / "d"
        argv = ("sync", regime_panel, *self.BAND, "--window", 13, "--out", out)
        assert run(*argv) == 0
        replace = Path.replace

        def full_disk(self, target):
            if Path(target).name == "ratios.csv":
                raise OSError("No space left on device")
            return replace(self, target)

        monkeypatch.setattr(Path, "replace", full_disk)
        assert run(*argv) == 1
        assert capsys.readouterr().err == "error: No space left on device\n"
        assert sorted(tree(out)) == ["gamma2.csv"]


def test_non_utf8_locale_gives_same_bytes(tmp_path, monkeypatch):
    """Files are read and written as UTF-8 whatever the locale's encoding."""
    spec = RegimeSpec(segments=((120, "coupled"),), seed=7)
    regime = gen_regime_panel(3, spec)
    panel = Panel(("Tōkyō", "Ōsaka", "Nagoya"), regime.start, regime.values)
    write_panel_csv(panel, tmp_path / "panel.csv")
    argv = ["sync", "panel.csv", "--kl", 2, "--ku", 9, "--window", 13]
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--out", "in_process") == 0

    env = child_env(PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0")
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


@pytest.mark.parametrize("argv, name", [
    (("sync", "/dev/stdin", "--kl", 4, "--ku", 18, "--window", 13), "input"),
    (("sync", "{panel}", "--kl", 4, "--ku", 18, "--window", 13, "--calendar", "/dev/stdin"),
     "--calendar"),
], ids=["sync", "sync-calendar"])
def test_piped_input_is_refused(regime_panel, tmp_path, argv, name):
    """A pipe is drained by the load, so its SHA-256 would be that of no
    bytes: an input that is not a regular file is refused before any output.
    main makes this check before it picks the command, so one command covers
    them all."""
    out = tmp_path / "out"
    out.mkdir()
    piped = (Path(__file__).resolve().parents[1] / "data" / "japan_recessions.csv"
             if "--calendar" in argv else regime_panel)
    argv = [str(regime_panel) if a == "{panel}" else str(a) for a in argv]
    child = subprocess.run([sys.executable, "-m", "phasesync", *argv, "--out", str(out)],
                           input=piped.read_bytes(), env=child_env(), capture_output=True)
    assert child.returncode == 1, child.stderr
    assert child.stderr.decode() == (
        f"error: {name} /dev/stdin is not a regular file: it is read twice\n")
    assert list(out.iterdir()) == []


def test_import_adds_no_openssl():
    """hashlib's OpenSSL module adds about 3.5 MB resident; phasesync loads it
    only when metadata.txt is written, after the run's arrays are freed.
    numpy 1.x loads it itself (numpy.random imports secrets, which imports
    hmac), so only what importing phasesync.cli adds to numpy is checked."""
    code = ("import sys, numpy; print('_hashlib' in sys.modules); "
            "import phasesync.cli; print('_hashlib' in sys.modules)")
    child = subprocess.run([sys.executable, "-c", code], env=child_env(),
                           capture_output=True, text=True, check=True)
    with_numpy, with_cli = child.stdout.split()
    assert with_cli == with_numpy



def child_stdout(code, env=None):
    """stdout of `python -c code` run with env (child_env() if None)."""
    return subprocess.run([sys.executable, "-c", code], env=env or child_env(),
                          capture_output=True, text=True, check=True).stdout


def test_import_cli_skips_synthetic():
    """Only gen generates panels, so cmd_gen imports synthetic.py itself and
    sync, sweep and filter calls never compile or run it."""
    code = "import sys, phasesync.cli; print('phasesync.synthetic' in sys.modules)"
    assert child_stdout(code).split() == ["False"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("given", [None, "2"], ids=["default", "caller"])
def test_cli_runs_one_blas_thread(given):
    """`python -m phasesync` sets OPENBLAS_NUM_THREADS=1 before numpy loads, so
    OpenBLAS starts no worker thread beside the main one; a value the caller
    set wins (how many threads it starts then depends on the host's cores)."""
    code = ("import os, runpy, sys; sys.argv = ['phasesync', '--help']\n"
            "try: runpy.run_module('phasesync', run_name='__main__')\n"
            "except SystemExit: pass\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    value, threads = child_stdout(code, env).splitlines()[-1].split()
    assert value == (given or "1")
    if given is None:
        assert threads == "1"


class TestLazyPackage:
    """`import phasesync` loads no submodule and not numpy; each public name
    is imported from its module on first use."""

    def test_import_loads_no_module(self):
        code = ("import sys, phasesync; "
                "print([m for m in sys.modules if m == 'numpy' or m.startswith('phasesync.')])")
        assert child_stdout(code).split() == ["[]"]

    def test_star_import_binds_every_export(self):
        names = {}
        exec("from phasesync import *", names)
        for name in phasesync.__all__:
            home = (phasesync if name == "__version__" else
                    importlib.import_module(f"phasesync.{phasesync._EXPORTS[name]}"))
            assert names[name] is getattr(home, name), name

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            phasesync.no_such_name
