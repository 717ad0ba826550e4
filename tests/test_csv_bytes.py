"""Every CSV writer, byte for byte, against a reference written by csv.writer.

Reading outputs back with csv.reader would not notice a changed line
ending or different quoting; these tests compare the exact bytes.
"""

import csv
import io

import numpy as np
import pytest

import phasesync.panel
from phasesync import (
    FilterBand,
    Month,
    Panel,
    PipelineConfig,
    RegimeSpec,
    gen_regime_panel,
    load_panel_csv,
    run_pipeline,
    write_panel_csv,
)
from phasesync.cli import main
from phasesync.csvtext import FORMAT_CHUNK, csv_fields, csv_rows, format_g12
from phasesync.pipeline import (ResultMeta, gamma_csv_sink, r_label, write_ratio_csv,
                                write_ratio_long_csv)

# ids that csv.writer quotes, or that contain the %-template's own marker
IDS = ("a,b", 'q"x', "p%d", "100%", "line\nbreak", "cr\rx", " sp", "plain")


def writer_bytes(rows) -> bytes:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def quoted_panel(n=120, seed=9) -> Panel:
    spec = RegimeSpec(segments=((n, "uncoupled"),), seed=seed)
    panel = gen_regime_panel(len(IDS), spec, start=Month(1980, 1))
    return Panel(IDS, panel.start, panel.values)


@pytest.fixture(scope="module")
def result():
    return run_pipeline(quoted_panel(), PipelineConfig(band=FilterBand(2, 9), window=13))


def sample_fields(result, idx):
    return [result.meta.t_of(idx), str(result.meta.month_of(idx))]


@pytest.mark.parametrize("sid", IDS + ("",))
def test_csv_line_matches_csv_writer(sid):
    # a header row, built by csv_rows as every CSV row is
    fields = ["date", sid, "x"]
    assert csv_rows(csv_fields([fields])) == writer_bytes([fields])


def test_csv_rows_escapes_percent_in_every_field():
    leads = csv_fields([("1%", "x,y"), ("%s", '"')])
    values = np.array([[0.5, -0.0], [1 / 3, 1e-300]])
    expected = writer_bytes([
        ["1%", "x,y", "p%d", "0.5", "-0"],
        ["%s", '"', "p%d", format(1 / 3, ".12g"), "1e-300"],
    ])
    assert csv_rows(leads, csv_fields([("p%d",)]), format_g12(values)) == expected


def test_gamma_csv_bytes(result, tmp_path):
    path = tmp_path / "gamma2.csv"
    with open(path, "wb") as fh:
        gamma_csv_sink(fh, result.meta)(result.gamma2)
    expected = [["t", "date", "pair_i", "pair_j", "gamma2"]]
    for (id_i, id_j), row in zip(result.meta.pairs, result.gamma2):
        for idx, g in enumerate(row):
            expected.append(sample_fields(result, idx) + [id_i, id_j, format(g, ".12g")])
    assert path.read_bytes() == writer_bytes(expected)


def csv_rows_long_table(meta, header, keys, block) -> bytes:
    """A long table as csv_rows writes it, joining every field byte by byte:
    the oracle of long_table_sink, which copies whole fields."""
    lead = csv_fields(meta.sample_fields())
    return (csv_rows(csv_fields([["t", "date", *header]]))
            + csv_rows(lead, csv_fields(keys)[:, None], format_g12(block)[..., None, :]))


def long_table_meta(ids, n_samples, window=13):
    config = PipelineConfig(band=FilterBand(2, 9), window=window)
    return ResultMeta(config, tuple(ids), n_samples + window - 1, Month(1990, 1), 0)


def long_table_values(rows, n_samples, seed=3):
    """gamma2-like values, with cells format_g12 leaves to "%.12g": exactly 0,
    below 1e-4 and exactly 1."""
    values = np.random.default_rng(seed).uniform(size=(rows, n_samples))
    values.ravel()[::7] = 0.0
    values.ravel()[1::7] = 3.25e-5
    values.ravel()[2::7] = 1.0
    return values


@pytest.mark.parametrize("ids, n_samples", [
    (IDS, 48),
    # UTF-8 of several widths, and ids of different lengths in one chunk
    (("é", "東京都", "a", "long,ü", 'z"'), 30),
    # more samples than FORMAT_CHUNK: one row per chunk
    (("a", "bb", "c,c"), FORMAT_CHUNK + 3),
], ids=["quoted", "non-ascii", "row-per-chunk"])
def test_long_table_sink_matches_csv_rows(ids, n_samples):
    meta = long_table_meta(ids, n_samples)
    values = long_table_values(meta.n_pairs, n_samples)
    fh = io.BytesIO()
    sink = gamma_csv_sink(fh, meta)
    start = 0
    for i in range(len(ids) - 1):  # in member blocks, as score_pairs sends them
        sink(values[start:start + len(ids) - 1 - i])
        start += len(ids) - 1 - i
    header = ["pair_i", "pair_j", "gamma2"]
    assert fh.getvalue() == csv_rows_long_table(meta, header, meta.pairs, values)


def test_ratio_long_sink_matches_csv_rows(tmp_path):
    meta = long_table_meta(("x", "y"), 100)
    ratios = long_table_values(len(meta.config.thresholds), 100)
    write_ratio_long_csv(tmp_path / "ratios_long.csv", meta, ratios)
    labels = [(r_label(r),) for r in meta.config.thresholds]
    assert (tmp_path / "ratios_long.csv").read_bytes() == csv_rows_long_table(
        meta, ["r", "R"], labels, ratios)


def test_ratio_long_csv_bytes(result, tmp_path):
    path = tmp_path / "ratios_long.csv"
    write_ratio_long_csv(path, result.meta, result.ratios)
    expected = [["t", "date", "r", "R"]]
    for r, ratios in zip(result.meta.config.thresholds, result.ratios):
        for idx, value in enumerate(ratios):
            expected.append(sample_fields(result, idx) + [format(r, "g"), format(value, ".12g")])
    assert path.read_bytes() == writer_bytes(expected)


@pytest.mark.parametrize("with_labels", [False, True])
def test_ratio_wide_csv_bytes(result, tmp_path, with_labels):
    regimes, labels = (), None
    if with_labels:
        mask = np.arange(result.n_samples) % 3 == 1
        regimes = [("contraction", mask), ("expansion", ~mask)]
        labels = ["contraction" if c else "expansion" for c in mask]
    path = tmp_path / "ratios.csv"
    write_ratio_csv(path, result.meta, result.ratios, regimes)
    thresholds = result.meta.config.thresholds
    expected = [["t", "date"] + [f"R_{format(r, 'g')}" for r in thresholds]
                + (["regime"] if with_labels else [])]
    for idx in range(result.n_samples):
        row = sample_fields(result, idx)
        row += [format(value, ".12g") for value in result.ratios[:, idx]]
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
                        + [format(v, ".12g") for v in panel.values[i]])
    assert path.read_bytes() == writer_bytes(expected)

    loaded = load_panel_csv(path)
    assert loaded.ids == IDS
    assert loaded.start == panel.start
    np.testing.assert_array_equal(
        loaded.values, [[float(format(v, ".12g")) for v in row] for row in panel.values])


def test_quoted_ids_take_the_numpy_reader(tmp_path, monkeypatch):
    # every id, date and cell quoted: csv.reader parses the header and
    # np.loadtxt the data rows, to the floats of the twin where only the
    # ids are quoted; neither file reaches the fault finder
    panel = quoted_panel(n=300)
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    write_panel_csv(panel, plain)
    with open(quoted, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
        writer.writerow(["date", *panel.ids])
        writer.writerows([str(panel.month_at(i)), *map("{:.12g}".format, row)]
                         for i, row in enumerate(panel.values))
    assert quoted.read_bytes().count(b'"') > 2 * panel.values.size

    def fault(path):
        raise AssertionError(f"{path} went to the fault finder")

    monkeypatch.setattr(phasesync.panel, "_fault", fault)
    expected, loaded = load_panel_csv(plain), load_panel_csv(quoted)
    assert loaded.ids == expected.ids == IDS
    assert loaded.start == expected.start
    assert loaded.values.tobytes() == expected.values.tobytes()


@pytest.mark.parametrize("flags, configs", [
    (["--kl", "4", "--ku", "18", "--windows", "11,13,15"],
     {f"W{w}": PipelineConfig(band=FilterBand(4, 18), window=w) for w in (11, 13, 15)}),
    # the trims differ, so the common months are a slice of some settings' samples
    (["--bands", "5:17,4:18,3:19", "--window", "13"],
     {f"kl{lo}_ku{hi}": PipelineConfig(band=FilterBand(lo, hi), window=13)
      for lo, hi in ((5, 17), (4, 18), (3, 19))}),
], ids=["windows", "bands"])
def test_sweep_stability_bytes(tmp_path, flags, configs):
    panel_path = tmp_path / "panel.csv"
    write_panel_csv(quoted_panel(n=240), panel_path)
    out = tmp_path / "sweep"
    assert main(["sweep", str(panel_path), *flags, "--out", str(out)]) == 0

    panel = load_panel_csv(panel_path)
    results = [(label, run_pipeline(panel, config)) for label, config in configs.items()]
    for label, res in results:
        rows = [["t", "date", "R_0.7", "R_0.8"]]
        for idx in range(res.n_samples):
            rows.append(sample_fields(res, idx)
                        + [format(value, ".12g") for value in res.ratios[:, idx]])
        assert (out / f"ratios_{label}.csv").read_bytes() == writer_bytes(rows)

    months = [{res.meta.month_of(i): i for i in range(res.n_samples)} for _, res in results]
    common = sorted(set(months[0]).intersection(*months[1:]))
    expected = [["setting_a", "setting_b", "r", "pearson"]]
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            for k, r in enumerate((0.7, 0.8)):
                a = results[i][1].ratios[k][[months[i][m] for m in common]]
                b = results[j][1].ratios[k][[months[j][m] for m in common]]
                pearson = float(np.corrcoef(a, b)[0, 1])
                expected.append([results[i][0], results[j][0], format(r, "g"),
                                 format(pearson, ".12g")])
    assert (out / "stability.csv").read_bytes() == writer_bytes(expected)
