import numpy as np
import pytest

from phasesync import (
    ContractError,
    DegeneratePhaseError,
    FilterBand,
    analytic_signal,
    bandpass,
    hilbert,
)


def grid_cos(n, k):
    return np.cos(2.0 * np.pi * k * np.arange(n) / n)


def grid_sin(n, k):
    return np.sin(2.0 * np.pi * k * np.arange(n) / n)


def band_limited(n, seed, lower=2, upper=None):
    """Random zero-mean signal confined strictly below the Nyquist mode."""
    rng = np.random.default_rng(seed)
    if upper is None:
        upper = n // 2 - 1
    return bandpass(rng.normal(size=n), FilterBand(lower, upper))


class TestHilbert:
    @pytest.mark.parametrize("n", [64, 100, 101])
    @pytest.mark.parametrize("k", [1, 2, 5, 16])
    def test_cosine_to_sine(self, n, k):
        np.testing.assert_allclose(hilbert(grid_cos(n, k)), grid_sin(n, k), atol=1e-10)

    @pytest.mark.parametrize("n", [64, 100, 101])
    @pytest.mark.parametrize("k", [1, 2, 5, 16])
    def test_sine_to_negative_cosine(self, n, k):
        np.testing.assert_allclose(hilbert(grid_sin(n, k)), -grid_cos(n, k), atol=1e-10)

    def test_zeros(self):
        np.testing.assert_array_equal(hilbert(np.zeros(32)), np.zeros(32))

    def test_mean_ignored(self):
        x = grid_cos(64, 3)
        np.testing.assert_allclose(hilbert(x + 100.0), hilbert(x), atol=1e-10)

    def test_even_nyquist_maps_to_zero(self):
        n = 64
        np.testing.assert_allclose(hilbert(grid_cos(n, n // 2)), 0.0, atol=1e-12)

    def test_linearity(self):
        x = band_limited(100, seed=1)
        y = band_limited(100, seed=2)
        lhs = hilbert(3.0 * x - 0.5 * y)
        rhs = 3.0 * hilbert(x) - 0.5 * hilbert(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize("n", [64, 101])
    def test_involution_up_to_sign(self, n):
        x = band_limited(n, seed=3)
        np.testing.assert_allclose(hilbert(hilbert(x)), -x, atol=1e-9)

    @pytest.mark.parametrize("n", [64, 101])
    def test_energy_preserved(self, n):
        x = band_limited(n, seed=4)
        h = hilbert(x)
        assert np.sum(h * h) == pytest.approx(np.sum(x * x), rel=1e-9)

    def test_too_short(self):
        with pytest.raises(ContractError):
            hilbert([1.0])


class TestAnalyticSignal:
    def test_phase_advances_uniformly(self):
        n, k = 100, 5
        result = analytic_signal(grid_cos(n, k))
        assert result.phase[0] == pytest.approx(0.0, abs=1e-12)
        steps = np.diff(np.unwrap(result.phase))
        np.testing.assert_allclose(steps, 2.0 * np.pi * k / n, atol=1e-8)

    def test_positive_real_axis_is_zero_phase(self):
        result = analytic_signal(grid_cos(64, 4))
        # t=0: s=1, s_h=0
        assert result.s[0] == pytest.approx(1.0)
        assert abs(result.s_h[0]) < 1e-12
        assert result.phase[0] == pytest.approx(0.0, abs=1e-12)

    def test_constant_amplitude(self):
        result = analytic_signal(2.0 * grid_cos(128, 7))
        np.testing.assert_allclose(result.amplitude, 2.0, atol=1e-9)

    def test_polar_identities(self):
        x = band_limited(101, seed=5)
        result = analytic_signal(x)
        np.testing.assert_allclose(
            result.amplitude ** 2, result.s ** 2 + result.s_h ** 2, rtol=1e-12
        )
        np.testing.assert_allclose(result.amplitude * np.cos(result.phase),
                                   result.s, atol=1e-9)
        np.testing.assert_allclose(result.amplitude * np.sin(result.phase),
                                   result.s_h, atol=1e-9)

    def test_phase_range_half_open(self):
        # Nyquist-only signal: transform is exactly zero, so the points with
        # s < 0 land precisely on the branch cut and must fold to -pi
        n = 32
        result = analytic_signal(grid_cos(n, n // 2))
        assert np.all(result.phase < np.pi)
        assert np.all(result.phase >= -np.pi)
        np.testing.assert_array_equal(result.phase[1::2], np.full(n // 2, -np.pi))
        np.testing.assert_array_equal(result.phase[0::2], np.zeros(n // 2))

    def test_all_zero_amplitude(self):
        with pytest.raises(DegeneratePhaseError, match="zero amplitude"):
            analytic_signal(np.zeros(16))

    def test_floor_names_offending_index(self):
        # two beating modes give a strongly dipping envelope; a huge relative
        # floor makes the dip degenerate
        x = grid_cos(128, 5) + grid_cos(128, 6)
        with pytest.raises(DegeneratePhaseError, match=r"t=\d+"):
            analytic_signal(x, amplitude_floor=0.5)

    def test_floor_default_accepts_clean_signal(self):
        result = analytic_signal(band_limited(256, seed=6))
        assert result.n == 256

    def test_leaves_the_input_writable(self):
        x = band_limited(64, seed=7)
        result = analytic_signal(x)
        assert x.flags.writeable
        assert not result.s.flags.writeable
        before = x.copy()
        x[0] += 1.0  # the result holds its own copy
        np.testing.assert_array_equal(result.s, before)
