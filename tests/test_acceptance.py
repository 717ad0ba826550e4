"""End-to-end acceptance checks.

Thirteen numbered criteria covering the full chain: Fourier analysis and
reconstruction, Hilbert identities, the locked sine pair, null
calibration of the synchronization index, pair combinatorics, cutoff
arithmetic, the coupled/uncoupled regime contrast, sweep stability, the
invariance suite, exactly locked sines counting at r = 1 through the
CLI, the paper's contraction/expansion contrast on panels coupled in
the bundled calendars' contraction months, and the lock decisions a
record's edge changes. Each test prints one summary line; run with -s to see them. Timed
tests exclude first-call costs via the module warmup.
"""

import csv
import time
from itertools import combinations, groupby
from pathlib import Path

import numpy as np
import pytest

from phasesync import (
    FilterBand,
    Month,
    Panel,
    PipelineConfig,
    RegimeSpec,
    ResultMeta,
    band_from_periods,
    bandpass,
    gen_regime_panel,
    gen_sine,
    hilbert,
    instantaneous_phase,
    load_recession_csv,
    periods_of_band,
    round_half_up,
    run_pipeline,
    sync_index_windowed,
    write_panel_csv,
)
from phasesync.cli import main as cli_main
from phasesync.sync import RATIO_TOL

from fourier_reference import direct_coefficients, fourier_analyze

BAND = FilterBand(4, 18)

REGIME_SPEC = RegimeSpec(
    segments=((120, "coupled"), (120, "uncoupled"), (120, "coupled")),
    base_period=33.0,
    jitter=0.65,
    noise_sd=0.15,
    seed=7,
)


@pytest.fixture(scope="module", autouse=True)
def _warm():
    # touch the whole pipeline once so the timed criteria measure
    # steady-state work
    panel = gen_regime_panel(2, RegimeSpec(segments=((60, "coupled"),), seed=0))
    run_pipeline(panel, PipelineConfig(band=FilterBand(2, 9), window=13))


@pytest.fixture(scope="module")
def regime_panel():
    return gen_regime_panel(10, REGIME_SPEC)


def common_month_indices(results):
    maps = [{res.meta.month_of(i): i for i in range(res.n_samples)} for res in results]
    common = sorted(set(maps[0]).intersection(*maps[1:]))
    return [[m[month] for month in common] for m in maps]


def test_criterion_01_fourier_round_trip():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for n in (64, 488, 505):
        x = rng.normal(size=n) * 10.0 + 3.0
        coeffs = fourier_analyze(x)
        recon = coeffs.synthesize(FilterBand(1, n // 2)) + x.mean()
        err = np.abs(recon - x).max() / np.abs(x).max()
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 1.0
    print(f"criterion 01: PASS (round trip, max rel err {worst:.2e}, {elapsed:.3f}s)")


def test_criterion_02_filter_oracle():
    rng = np.random.default_rng(12)
    worst = 0.0
    for n in (2, 3, 16, 17, 64, 100, 101, 255, 256, 488, 505, 512):
        x = rng.normal(size=n)
        coeffs = fourier_analyze(x)
        a_ref, b_ref = direct_coefficients(x)
        worst = max(worst,
                    np.abs(coeffs.a - a_ref).max(),
                    np.abs(coeffs.b - b_ref).max())
    assert worst <= 1e-10
    print(f"criterion 02: PASS (fast vs direct analyzer, max abs err {worst:.2e})")


def test_criterion_03_hilbert_identities():
    n = 96
    t = np.arange(n)
    worst_pair = 0.0
    for k in (1, 3, 7, 20):
        c = np.cos(2.0 * np.pi * k * t / n)
        s = np.sin(2.0 * np.pi * k * t / n)
        worst_pair = max(worst_pair,
                         np.abs(hilbert(c) - s).max(),
                         np.abs(hilbert(s) + c).max())
    assert worst_pair <= 1e-10

    rng = np.random.default_rng(13)
    worst_inv = 0.0
    for n in (64, 101, 240):
        x = bandpass(rng.normal(size=n), FilterBand(1, (n - 1) // 2))
        worst_inv = max(worst_inv, np.abs(hilbert(hilbert(x)) + x).max())
    assert worst_inv <= 1e-9
    print(f"criterion 03: PASS (cos->sin {worst_pair:.2e}, involution {worst_inv:.2e})")


def test_criterion_04_locked_sine_pair():
    n, period = 240, 24.0
    band = FilterBand(5, 15)
    lead = gen_sine(n, period, amplitude=1.0)
    lag = gen_sine(n, period, amplitude=2.0, phase_offset=-np.pi / 2)
    panel = Panel(("a", "b"), Month(2000, 1), np.column_stack([lead, lag]))

    # no detrending here: the signals carry no trend, and the discrete
    # least-squares line of a grid sinusoid is slightly nonzero, so
    # removing it would inject in-band ripple and break the lock
    phases = []
    for member in (lead, lag):
        filtered = bandpass(member, band)
        phases.append(instantaneous_phase(filtered))
    psi = phases[0] - phases[1]
    wrapped = np.mod(psi + np.pi, 2.0 * np.pi) - np.pi
    config = PipelineConfig(band=band, window=13, detrend=False)
    margin = ResultMeta.of(panel, config).trim_offset
    psi_err = np.abs(wrapped[margin:n - margin] - np.pi / 2).max()
    assert psi_err <= 1e-6

    result = run_pipeline(panel, config)
    assert result.meta.pairs == (("a", "b"),)
    gamma = result.gamma2[0]
    gamma_err = np.abs(gamma - 1.0).max()
    assert gamma_err <= 1e-9
    print(f"criterion 04: PASS (psi=pi/2 +/- {psi_err:.2e} strips {margin}/side, "
          f"gamma2=1 +/- {gamma_err:.2e})")


def test_criterion_05_null_calibration():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    devs = {}
    for window, expected in ((13, 0.077), (17, 0.059)):
        psi = rng.uniform(-np.pi, np.pi, size=10_500 + window - 1)
        gamma = sync_index_windowed(psi, window)
        assert gamma.size >= 10_000
        devs[window] = abs(gamma.mean() - expected)
        assert devs[window] <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 05: PASS (null mean dev W13 {devs[13]:.4f}, "
          f"W17 {devs[17]:.4f}, {elapsed:.3f}s)")


def test_criterion_06_pair_combinatorics():
    config = PipelineConfig(band=BAND, window=13)
    counts = {}
    for members in (50, 47):
        spec = RegimeSpec(segments=((120, "uncoupled"),), seed=1)
        panel = gen_regime_panel(members, spec)
        result = run_pipeline(panel, config)
        counts[members] = result.n_pairs
        assert result.gamma2.shape == (result.n_pairs, result.n_samples)
    assert counts[50] == 1225
    assert counts[47] == 1081
    print(f"criterion 06: PASS (50 -> {counts[50]} pairs, 47 -> {counts[47]})")


def test_criterion_07_cutoff_arithmetic():
    cases = {
        (505, FilterBand(4, 18)): (28, 126),
        (488, FilterBand(6, 14)): (35, 81),
    }
    for (n, band), (short_m, long_m) in cases.items():
        shortest, longest = periods_of_band(n, band)
        assert round_half_up(shortest) == short_m
        assert round_half_up(longest) == long_m
        assert band_from_periods(n, longest, shortest) == band
        panel = Panel(("a", "b"), Month(1980, 1), np.zeros((n, 2)))
        meta = ResultMeta.of(panel, PipelineConfig(band=band, window=13))
        assert meta.trim_offset == short_m
        assert meta.n_samples == n - 2 * short_m - 13 + 1
    print("criterion 07: PASS (505/(4,18) -> 28..126 trim 28, "
          "488/(6,14) -> 35..81 trim 35)")


def test_criterion_08_regime_contrast(regime_panel):
    start = time.perf_counter()
    result = run_pipeline(regime_panel,
                          PipelineConfig(band=BAND, window=25, thresholds=(0.8,)))
    ratio = result.ratios[0]  # R at the one threshold, 0.8
    labels = np.array([
        REGIME_SPEC.regime_at(result.meta.month_of(i) - regime_panel.start)
        for i in range(result.n_samples)
    ])
    coupled_mean = ratio[labels == "coupled"].mean()
    uncoupled_mean = ratio[labels == "uncoupled"].mean()
    elapsed = time.perf_counter() - start
    assert coupled_mean - uncoupled_mean >= 0.3
    assert elapsed < 10.0
    print(f"criterion 08: PASS (mean R coupled {coupled_mean:.3f} vs "
          f"uncoupled {uncoupled_mean:.3f}, gap "
          f"{coupled_mean - uncoupled_mean:.3f}, {elapsed:.2f}s)")


def test_criterion_09_sweep_stability(regime_panel):
    def min_pairwise(configs):
        results = [run_pipeline(regime_panel, c) for c in configs]
        index_lists = common_month_indices(results)
        low = 1.0
        for i, j in combinations(range(len(results)), 2):
            a = results[i].ratios[0][index_lists[i]]
            b = results[j].ratios[0][index_lists[j]]
            low = min(low, float(np.corrcoef(a, b)[0, 1]))
        return low

    window_min = min_pairwise([
        PipelineConfig(band=BAND, window=w, thresholds=(0.8,))
        for w in (11, 13, 15)
    ])
    band_min = min_pairwise([
        PipelineConfig(band=FilterBand(lo, hi), window=25, thresholds=(0.8,))
        for lo, hi in ((5, 17), (4, 18), (3, 19))
    ])
    assert window_min > 0.9
    assert band_min > 0.9
    print(f"criterion 09: PASS (min corr across windows {window_min:.4f}, "
          f"across bands {band_min:.4f})")


def test_criterion_10_invariance_suite():
    spec = RegimeSpec(segments=((180, "uncoupled"),), seed=4)
    panel = gen_regime_panel(4, spec)
    config = PipelineConfig(band=BAND, window=13,
                            thresholds=(0.2, 0.5, 0.7, 0.9))
    base = run_pipeline(panel, config)

    # amplitude scaling of one member
    scaled = Panel(panel.ids, panel.start, panel.values * [1.0, 2.5, 1.0, 1.0])
    scaled_result = run_pipeline(scaled, config)
    assert scaled_result.meta.pairs == base.meta.pairs
    amp_err = np.abs(scaled_result.gamma2 - base.gamma2).max()
    assert amp_err <= 1e-9

    # constant shift and whole 2*pi jumps of the phase difference
    rng = np.random.default_rng(15)
    psi = rng.uniform(-np.pi, np.pi, size=400)
    reference = sync_index_windowed(psi, 13)
    shift_err = np.abs(
        sync_index_windowed(psi + 0.83, 13) - reference).max()
    assert shift_err <= 1e-12
    jumps = 2.0 * np.pi * rng.integers(-3, 4, size=psi.size)
    jump_err = np.abs(
        sync_index_windowed(psi + jumps, 13) - reference).max()
    assert jump_err <= 1e-12

    # pair order: reversing the panel relabels pairs, nothing else
    reversed_result = run_pipeline(
        Panel(panel.ids[::-1], panel.start, panel.values[:, ::-1]), config)
    reversed_gamma = dict(zip(reversed_result.meta.pairs, reversed_result.gamma2))
    order_err = max(
        np.abs(reversed_gamma[(j, i)] - row).max()
        for (i, j), row in zip(base.meta.pairs, base.gamma2)
    )
    assert order_err <= 1e-12

    # ratio is non-increasing in the threshold
    assert np.all(np.diff(base.ratios, axis=0) <= 0)

    print(f"criterion 10: PASS (amp {amp_err:.2e}, shift {shift_err:.2e}, "
          f"jumps {jump_err:.2e}, order {order_err:.2e}, monotone ratios)")


def test_criterion_11_locked_sines_at_r_one(tmp_path):
    assert cli_main(["gen", "--sine", "--n", "240", "--period", "30", "--members", "4",
                     "--phase", "0,0.5,1,1.5", "--out", str(tmp_path)]) == 0
    # no detrending, as in criterion 04: removing the least-squares line of
    # a phase-shifted grid sinusoid breaks the lock (gamma2 down to 0.9998)
    assert cli_main(["sync", str(tmp_path / "panel.csv"), "--kl", "4", "--ku", "18",
                     "--window", "13", "--r", "1.0", "--no-detrend",
                     "--out", str(tmp_path / "run")]) == 0
    with open(tmp_path / "run" / "ratios.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "date", "R_1"]
    assert len(rows) > 200
    assert all(row[2] == "1" for row in rows[1:])
    print(f"criterion 11: PASS (4 locked sines, R_1 = 1 in all {len(rows) - 1} months)")


DATA = Path(__file__).resolve().parents[1] / "data"


def contrast(panel_csv, calendar, out) -> dict[str, float]:
    """D = mean_R_<r>_contraction - mean_R_<r>_expansion, by r, as sync's
    metadata.txt reports them."""
    assert cli_main(["sync", str(panel_csv), "--kl", "4", "--ku", "22", "--window", "13",
                     "--calendar", str(calendar), "--out", str(out)]) == 0
    lines = (out / "metadata.txt").read_text(encoding="utf-8").splitlines()
    meta = dict(line.split(" = ", 1) for line in lines)
    return {r: float(meta[f"mean_R_{r}_contraction"]) - float(meta[f"mean_R_{r}_expansion"])
            for r in ("0.7", "0.8")}


@pytest.mark.parametrize("seed", [5, 6, 7])
@pytest.mark.parametrize("calendar_name", ["us_recessions.csv", "japan_recessions.csv"])
def test_criterion_12_contraction_contrast(tmp_path, calendar_name, seed):
    # 20 members over 540 months from 1975-01, coupled exactly in the
    # calendar's contraction months and uncoupled otherwise. sync must find
    # R higher in contraction than in expansion (D > 0), and higher than
    # with the same calendar shifted 60 months later. Measured at seeds
    # 5-7: U.S. D = +0.055 to +0.208, shifted -0.035 to -0.099; Japan
    # D = +0.064 to +0.167, shifted -0.011 to +0.038. Band 4..22 is used,
    # not 4..18: at 50 members 4..18 gave D = -0.025 / -0.019 (r = 0.7 /
    # 0.8) for U.S. seed 7 and -0.023 / -0.011 for Japan seed 6, a band
    # dependence of the finding that is recorded here, not asserted.
    start, n = Month(1975, 1), 540
    calendar = load_recession_csv(DATA / calendar_name)
    mask = calendar.contraction_mask(start, n)
    segments = [(len(list(run)), "coupled" if coupled else "uncoupled")
                for coupled, run in groupby(mask)]
    panel_csv = tmp_path / "panel.csv"
    write_panel_csv(gen_regime_panel(20, RegimeSpec(segments=segments, seed=seed),
                                     start=start), panel_csv)
    shifted = tmp_path / "shifted.csv"
    shifted.write_text("peak,trough\n" + "".join(
        f"{peak + 60},{trough + 60}\n" for peak, trough in calendar.episodes), encoding="utf-8")

    d = contrast(panel_csv, DATA / calendar_name, tmp_path / "run")
    d_shifted = contrast(panel_csv, shifted, tmp_path / "shifted")
    for r in d:
        assert d[r] > 0
        assert d[r] > d_shifted[r]
    print(f"criterion 12: PASS ({calendar_name} seed {seed}: D = "
          + ", ".join(f"{d[r]:+.3f} (shifted {d_shifted[r]:+.3f}) at r = {r}" for r in d) + ")")


def edge_flip_shares(trim: bool, seeds) -> dict[float, tuple[float, float]]:
    """{r: (edge share, interior share)} of the lock decisions that differ
    between a 505-month cut and the same months inside its 1,515-month
    record, pooled over the seeds' 20-member panels of fifteen alternating
    101-month segments. The record runs band 12..54 and the cut band 4..18,
    the same periods (28.06-126.25 months) and the same trim of 28; the cut
    is trimmed only when trim is set. Edge: the 15 window centres nearest
    each end of the cut. Interior: the centres >= 150 months from both ends."""
    # {r: [[edge flips, edge decisions], [interior flips, interior decisions]]}
    counts = {r: np.zeros((2, 2), dtype=int) for r in (0.7, 0.8)}
    layout = tuple((101, ("coupled", "uncoupled")[k % 2]) for k in range(15))
    for seed in seeds:
        panel = gen_regime_panel(20, RegimeSpec(segments=layout, seed=seed))
        record = run_pipeline(panel, PipelineConfig(band=FilterBand(12, 54), window=13))
        months = Panel(panel.ids, panel.start + 505, panel.values[505:1010])
        cut = run_pipeline(months, PipelineConfig(band=BAND, window=13, trim=trim))
        first = cut.meta.anchor - record.meta.anchor
        same = record.gamma2[:, first:first + cut.n_samples]
        idx = np.arange(cut.n_samples)
        centre = cut.meta.anchor - months.start + idx  # month of the cut, 0..504
        edge = (idx < 15) | (idx >= cut.n_samples - 15)
        interior = (centre >= 150) & (months.n - 1 - centre >= 150)
        for r, count in counts.items():
            flips = (same >= r - RATIO_TOL) != (cut.gamma2 >= r - RATIO_TOL)
            for row, where in zip(count, (edge, interior)):
                row += flips[:, where].sum(), flips[:, where].size
    return {r: tuple(flips / total for flips, total in count) for r, count in counts.items()}


def test_criterion_13_record_length_edges():
    # A window centre near the cut's edge sees the filter's edge effects,
    # one in the interior sees only the record length. Measured over seeds
    # 1-12 (both configurations together take under a second): trimmed,
    # edge 8.0% vs interior 3.9% (2.1x) at r = 0.7 and 13.7% vs 5.5% (2.5x)
    # at r = 0.8; untrimmed, edge 14.8% (3.8x) and 21.6% (3.9x). The bound
    # of 3x sits between the two, 0.9x / 0.5x above the trimmed ratios and
    # 0.8x / 0.9x below the untrimmed ones, so the trim is what keeps the
    # edge within it: the untrimmed cut must fail it (the mutation check). The interior
    # share is the floor: with the same periods about 4% / 5.5% of interior
    # lock decisions change when the record is three times longer.
    seeds = range(1, 13)
    trimmed, untrimmed = edge_flip_shares(True, seeds), edge_flip_shares(False, seeds)
    for r, (edge, interior) in trimmed.items():
        assert edge <= 3 * interior
        assert untrimmed[r][0] > 3 * untrimmed[r][1]
    print("criterion 13: PASS (" + ", ".join(
        f"edge {edge:.1%} vs interior {interior:.1%}, untrimmed edge "
        f"{untrimmed[r][0]:.1%} at r = {r}" for r, (edge, interior) in trimmed.items()) + ")")
