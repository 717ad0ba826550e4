import numpy as np
import pytest

from phasesync import (
    ContractError,
    FilterBand,
    Month,
    Panel,
    PipelineConfig,
    ResultMeta,
    TimeSeries,
    bandpass,
    detrend_linear,
)

from fourier_reference import fourier_analyze

ORACLE_SIZES = [2, 3, 16, 17, 64, 100, 101, 255, 256, 488, 505, 512]


def fourier_oracle(x):
    """O(N^2) summation of the coefficient integrals, discretized as sums."""
    x = np.asarray(x, dtype=float)
    n = x.size
    half = n // 2
    a = np.zeros(half + 1)
    b = np.zeros(half + 1)
    t = np.arange(n)
    for k in range(half + 1):
        scale = 2.0 / n
        if n % 2 == 0 and k == half:
            scale = 1.0 / n  # Nyquist mode appears once in the trig sum
        a[k] = scale * (x @ np.cos(2.0 * np.pi * k * t / n))
        b[k] = scale * (x @ np.sin(2.0 * np.pi * k * t / n))
    b[0] = 0.0
    if n % 2 == 0:
        b[half] = 0.0
    return a, b


def grid_cos(n, k):
    return np.cos(2.0 * np.pi * k * np.arange(n) / n)


def grid_sin(n, k):
    return np.sin(2.0 * np.pi * k * np.arange(n) / n)


class TestFourierAnalyze:
    def test_constant_series(self):
        coef = fourier_analyze(np.full(50, 3.7))
        assert coef.a[0] == pytest.approx(7.4, abs=1e-12)
        assert np.max(np.abs(coef.a[1:])) < 1e-12
        assert np.max(np.abs(coef.b)) < 1e-12

    def test_pure_cosine(self):
        coef = fourier_analyze(grid_cos(64, 3))
        expected = np.zeros(33)
        expected[3] = 1.0
        np.testing.assert_allclose(coef.a, expected, atol=1e-10)
        np.testing.assert_allclose(coef.b, np.zeros(33), atol=1e-10)

    def test_pure_sine(self):
        coef = fourier_analyze(grid_sin(64, 5))
        expected = np.zeros(33)
        expected[5] = 1.0
        np.testing.assert_allclose(coef.b, expected, atol=1e-10)
        np.testing.assert_allclose(coef.a, np.zeros(33), atol=1e-10)

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_matches_direct_summation(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) * 10.0
        coef = fourier_analyze(x)
        a_ref, b_ref = fourier_oracle(x)
        np.testing.assert_allclose(coef.a, a_ref, atol=1e-10)
        np.testing.assert_allclose(coef.b, b_ref, atol=1e-10)

    @pytest.mark.parametrize("n", [64, 100, 488, 505])
    def test_full_reconstruction(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.normal(size=n)
        rebuilt = fourier_analyze(x).synthesize()
        assert np.max(np.abs(rebuilt - x)) <= 1e-9 * max(1.0, np.max(np.abs(x)))

    def test_too_short(self):
        with pytest.raises(ContractError):
            fourier_analyze([1.0])

    def test_non_finite(self):
        with pytest.raises(ContractError, match="index 2"):
            fourier_analyze([1.0, 2.0, np.inf, 0.0])


class TestBandpass:
    def test_in_band_passthrough(self):
        x = grid_cos(64, 3)
        np.testing.assert_allclose(bandpass(x, FilterBand(2, 5)), x, atol=1e-9)

    def test_out_of_band_rejection(self):
        x = grid_cos(64, 3)
        np.testing.assert_allclose(bandpass(x, FilterBand(5, 10)), 0.0, atol=1e-9)

    def test_mixed_modes(self):
        x = grid_cos(64, 2) + grid_cos(64, 9)
        np.testing.assert_allclose(
            bandpass(x, FilterBand(5, 10)), grid_cos(64, 9), atol=1e-9
        )

    def test_zero_mean_output(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=101) + 50.0
        y = bandpass(x, FilterBand(1, 50))
        assert abs(y.mean()) < 1e-12 * np.max(np.abs(x))

    def test_full_band_plus_mean_is_identity(self):
        rng = np.random.default_rng(1)
        for n in (64, 100, 488, 505):
            x = rng.normal(size=n)
            y = bandpass(x, FilterBand(1, n // 2)) + x.mean()
            assert np.max(np.abs(y - x)) <= 1e-9 * np.max(np.abs(x))

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=128)
        y = rng.normal(size=128)
        band = FilterBand(3, 20)
        lhs = bandpass(2.5 * x - 1.25 * y, band)
        rhs = 2.5 * bandpass(x, band) - 1.25 * bandpass(y, band)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=200)
        band = FilterBand(4, 18)
        once = bandpass(x, band)
        np.testing.assert_allclose(bandpass(once, band), once, atol=1e-9)

    def test_matches_direct_partial_sum(self):
        rng = np.random.default_rng(4)
        for n in (64, 101, 505):
            x = rng.normal(size=n)
            band = FilterBand(4, 18)
            direct = fourier_analyze(x).synthesize(band)
            np.testing.assert_allclose(bandpass(x, band), direct, atol=1e-9)

    def test_nyquist_edge_even_length(self):
        n = 64
        x = grid_cos(n, n // 2)  # alternating +1/-1
        band = FilterBand(n // 2, n // 2)
        np.testing.assert_allclose(bandpass(x, band), x, atol=1e-9)

    def test_invalid_band(self):
        with pytest.raises(ContractError):
            bandpass(np.zeros(100), FilterBand(1, 51))


class TestDetrendLinear:
    def test_exact_line(self):
        np.testing.assert_allclose(
            detrend_linear([1.0, 2.0, 3.0, 4.0, 5.0]), 0.0, atol=1e-12
        )

    def test_constant(self):
        np.testing.assert_allclose(detrend_linear(np.full(9, 4.2)), 0.0, atol=1e-12)

    def test_line_plus_cosine(self):
        # an integer-grid cosine is not discretely orthogonal to a linear
        # trend (sum t*cos = -n/2); the half-sample-shifted one is, exactly
        n = 96
        wave = np.cos(2.0 * np.pi * 4 * (np.arange(n) + 0.5) / n)
        x = 0.5 * np.arange(n) - 3.0 + wave
        np.testing.assert_allclose(detrend_linear(x), wave, atol=1e-9)

    def test_residual_properties(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=77) + 0.3 * np.arange(77)
        resid = detrend_linear(x)
        t = np.arange(77, dtype=float)
        assert abs(resid.sum()) < 1e-9
        assert abs(resid @ (t - t.mean())) < 1e-9 * np.max(np.abs(x)) * 77

    def test_matches_polyfit(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=123) * 4 + np.linspace(-3, 11, 123)
        t = np.arange(123, dtype=float)
        slope, intercept = np.polyfit(t, x, 1)
        np.testing.assert_allclose(
            detrend_linear(x), x - (intercept + slope * t), atol=1e-9
        )


class TestTrimEdges:
    """The trim offset of ResultMeta.of: round_half_up(n / band.upper) per end."""

    @pytest.mark.parametrize("n,upper,margin,out_len", [
        (505, 18, 28, 449),
        (488, 14, 35, 418),
        (100, 50, 2, 96),
    ])
    def test_margins(self, n, upper, margin, out_len):
        x = np.arange(n, dtype=float)
        panel = Panel(tuple(TimeSeries(sid, Month(2000, 1), x) for sid in "ab"))
        meta = ResultMeta.of(panel, PipelineConfig(band=FilterBand(1, upper), window=3))
        assert meta.trim_offset == margin
        assert meta.n_samples == out_len - 3 + 1
