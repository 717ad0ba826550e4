"""End-to-end acceptance checks.

Eleven numbered criteria covering the full chain: Fourier analysis and
reconstruction, Hilbert identities, the locked sine pair, null
calibration of the synchronization index, pair combinatorics, cutoff
arithmetic, the coupled/uncoupled regime contrast, sweep stability, the
invariance suite, and exactly locked sines counting at r = 1 through the
CLI. Each test prints one summary line; run with -s to see them. Timed
tests exclude first-call costs via the module warmup.
"""

import csv
import time
from itertools import combinations

import numpy as np
import pytest

from phasesync import (
    FilterBand,
    Month,
    Panel,
    PipelineConfig,
    RegimeSpec,
    ResultMeta,
    TimeSeries,
    band_from_periods,
    bandpass,
    gen_regime_panel,
    gen_sine,
    hilbert,
    instantaneous_phase,
    periods_of_band,
    round_half_up,
    run_pipeline,
    sync_index_windowed,
)
from phasesync.cli import main as cli_main

from fourier_reference import fourier_analyze

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


def direct_coefficients(x):
    """O(N^2) trigonometric regression, the slow reference analyzer."""
    n = x.size
    t = np.arange(n, dtype=float)
    half = n // 2
    a = np.zeros(half + 1)
    b = np.zeros(half + 1)
    a[0] = 2.0 * x.mean()
    for k in range(1, half + 1):
        c = np.cos(2.0 * np.pi * k * t / n)
        s = np.sin(2.0 * np.pi * k * t / n)
        if n % 2 == 0 and k == half:
            a[k] = float(x @ c) / n
            b[k] = 0.0
        else:
            a[k] = 2.0 * float(x @ c) / n
            b[k] = 2.0 * float(x @ s) / n
    return a, b


def common_month_indices(results):
    maps = [{res.month_of(i): i for i in range(res.n_samples)} for res in results]
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
    lead = gen_sine(n, period, amplitude=1.0, series_id="a")
    lag = gen_sine(n, period, amplitude=2.0, phase_offset=-np.pi / 2,
                   series_id="b")

    # no detrending here: the signals carry no trend, and the discrete
    # least-squares line of a grid sinusoid is slightly nonzero, so
    # removing it would inject in-band ripple and break the lock
    phases = []
    for member in (lead, lag):
        filtered = bandpass(member.values, band)
        phases.append(instantaneous_phase(filtered))
    psi = phases[0] - phases[1]
    wrapped = np.mod(psi + np.pi, 2.0 * np.pi) - np.pi
    config = PipelineConfig(band=band, window=13, detrend=False)
    margin = ResultMeta.of(Panel((lead, lag)), config).trim_offset
    psi_err = np.abs(wrapped[margin:n - margin] - np.pi / 2).max()
    assert psi_err <= 1e-6

    result = run_pipeline(Panel((lead, lag)), config)
    assert result.pairs == (("a", "b"),)
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
        panel = Panel(tuple(TimeSeries(sid, Month(1980, 1), np.zeros(n)) for sid in "ab"))
        meta = ResultMeta.of(panel, PipelineConfig(band=band, window=13))
        assert meta.trim_offset == short_m
        assert meta.n_samples == n - 2 * short_m - 13 + 1
    print("criterion 07: PASS (505/(4,18) -> 28..126 trim 28, "
          "488/(6,14) -> 35..81 trim 35)")


def test_criterion_08_regime_contrast(regime_panel):
    start = time.perf_counter()
    result = run_pipeline(regime_panel,
                          PipelineConfig(band=BAND, window=25, thresholds=(0.8,)))
    ratio = result.ratios[0.8]
    labels = np.array([
        REGIME_SPEC.regime_at(result.month_of(i) - regime_panel.start)
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
            a = results[i].ratios[0.8][index_lists[i]]
            b = results[j].ratios[0.8][index_lists[j]]
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
    scaled = Panel(tuple(
        TimeSeries(s.id, s.start, s.values * 2.5) if i == 1 else s
        for i, s in enumerate(panel)
    ))
    scaled_result = run_pipeline(scaled, config)
    assert scaled_result.pairs == base.pairs
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
    reversed_result = run_pipeline(Panel(tuple(reversed(panel.series))), config)
    reversed_gamma = dict(zip(reversed_result.pairs, reversed_result.gamma2))
    order_err = max(
        np.abs(reversed_gamma[(j, i)] - row).max()
        for (i, j), row in zip(base.pairs, base.gamma2)
    )
    assert order_err <= 1e-12

    # ratio is non-increasing in the threshold
    for low, high in zip(config.thresholds, config.thresholds[1:]):
        assert np.all(base.ratios[high] <= base.ratios[low])

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
