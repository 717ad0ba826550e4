"""Every CSV writer, byte for byte, against a reference written by csv.writer.

Reading outputs back with csv.reader would not notice a changed line
ending or different quoting; these tests compare the exact bytes.
"""

import csv
import io

import numpy as np
import pytest

from phasesync import (
    FilterBand,
    Month,
    Panel,
    PipelineConfig,
    RegimeSpec,
    TimeSeries,
    gen_regime_panel,
    load_panel_csv,
    run_pipeline,
    write_panel_csv,
)
from phasesync.cli import main
from phasesync.panel import CsvRows, csv_line

# ids that csv.writer quotes, or that contain the %-template's own marker
IDS = ("a,b", 'q"x', "p%d", "100%", "line\nbreak", "cr\rx", " sp", "plain")


def writer_bytes(rows) -> bytes:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def quoted_panel(n=120, seed=9) -> Panel:
    spec = RegimeSpec(segments=((n, "uncoupled"),), seed=seed)
    panel = gen_regime_panel(len(IDS), spec, start=Month(1980, 1))
    return Panel(tuple(
        TimeSeries(sid, s.start, s.values) for sid, s in zip(IDS, panel)
    ))


@pytest.fixture(scope="module")
def result():
    return run_pipeline(quoted_panel(), PipelineConfig(band=FilterBand(2, 9), window=13))


def sample_fields(result, idx):
    return [result.t_of(idx), str(result.month_of(idx))]


@pytest.mark.parametrize("sid", IDS + ("",))
def test_csv_line_matches_csv_writer(sid):
    fields = ["date", sid, "x"]
    assert csv_line(fields).encode() == writer_bytes([fields])


def test_csv_rows_escapes_percent_in_every_field():
    rows = CsvRows([("1%", "x,y"), ("%s", '"')])
    values = np.array([[0.5, -0.0], [1 / 3, 1e-300]])
    expected = writer_bytes([
        ["1%", "x,y", "p%d", "0.5", "-0"],
        ["%s", '"', "p%d", format(1 / 3, ".12g"), "1e-300"],
    ])
    assert rows.text(("p%d",), values).encode() == expected


def test_gamma_csv_bytes(result, tmp_path):
    path = tmp_path / "gamma2.csv"
    result.write_gamma_csv(path)
    expected = [["t", "date", "pair_i", "pair_j", "gamma2"]]
    for (id_i, id_j), row in zip(result.pairs, result.gamma2):
        for idx, g in enumerate(row):
            expected.append(sample_fields(result, idx) + [id_i, id_j, format(g, ".12g")])
    assert path.read_bytes() == writer_bytes(expected)


def test_ratio_long_csv_bytes(result, tmp_path):
    path = tmp_path / "ratios_long.csv"
    result.write_ratio_long_csv(path)
    expected = [["t", "date", "r", "R"]]
    for r in result.meta.config.thresholds:
        for idx, value in enumerate(result.ratios[r]):
            expected.append(sample_fields(result, idx) + [format(r, "g"), format(value, ".12g")])
    assert path.read_bytes() == writer_bytes(expected)


@pytest.mark.parametrize("with_labels", [False, True])
def test_ratio_wide_csv_bytes(result, tmp_path, with_labels):
    labels = None
    if with_labels:
        labels = tuple(IDS[idx % len(IDS)] for idx in range(result.n_samples))
    path = tmp_path / "ratios.csv"
    result.write_ratio_wide_csv(path, labels)
    thresholds = result.meta.config.thresholds
    expected = [["t", "date"] + [f"R_{format(r, 'g')}" for r in thresholds]
                + (["regime"] if with_labels else [])]
    for idx in range(result.n_samples):
        row = sample_fields(result, idx)
        row += [format(result.ratios[r][idx], ".12g") for r in thresholds]
        if with_labels:
            row.append(labels[idx])
        expected.append(row)
    assert path.read_bytes() == writer_bytes(expected)


def test_panel_csv_bytes_and_round_trip(tmp_path):
    panel = quoted_panel(n=300)
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    expected = [["date", *panel.ids]]
    for i in range(panel.n):
        expected.append([str(panel.month_at(i))]
                        + [format(s.values[i], ".12g") for s in panel.series])
    assert path.read_bytes() == writer_bytes(expected)

    loaded = load_panel_csv(path)
    assert loaded.ids == IDS
    assert loaded.start == panel.start
    for original, back in zip(panel, loaded):
        np.testing.assert_array_equal(
            back.values, [float(format(v, ".12g")) for v in original.values])


def test_sweep_stability_bytes(tmp_path):
    panel_path = tmp_path / "panel.csv"
    write_panel_csv(quoted_panel(n=240), panel_path)
    out = tmp_path / "sweep"
    assert main(["sweep", str(panel_path), "--kl", "4", "--ku", "18",
                 "--windows", "11,13,15", "--out", str(out)]) == 0

    panel = load_panel_csv(panel_path)
    results = [(f"W{w}", run_pipeline(panel, PipelineConfig(band=FilterBand(4, 18), window=w)))
               for w in (11, 13, 15)]
    months = [{res.month_of(i): i for i in range(res.n_samples)} for _, res in results]
    common = sorted(set(months[0]).intersection(*months[1:]))
    expected = [["setting_a", "setting_b", "r", "pearson"]]
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            for r in (0.7, 0.8):
                a = results[i][1].ratios[r][[months[i][m] for m in common]]
                b = results[j][1].ratios[r][[months[j][m] for m in common]]
                pearson = float(np.corrcoef(a, b)[0, 1])
                expected.append([results[i][0], results[j][0], format(r, "g"),
                                 format(pearson, ".12g")])
    assert (out / "stability.csv").read_bytes() == writer_bytes(expected)
