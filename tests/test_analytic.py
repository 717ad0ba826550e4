import numpy as np
import pytest

from phasesync import (
    ContractError,
    DegeneratePhaseError,
    FilterBand,
    bandpass,
    hilbert,
    instantaneous_phase,
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
    """instantaneous_phase: the angle of the analytic signal x + i*hilbert(x)."""

    def test_phase_advances_uniformly(self):
        n, k = 100, 5
        phase = instantaneous_phase(grid_cos(n, k))
        assert phase[0] == pytest.approx(0.0, abs=1e-12)
        steps = np.diff(np.unwrap(phase))
        np.testing.assert_allclose(steps, 2.0 * np.pi * k / n, atol=1e-8)

    def test_positive_real_axis_is_zero_phase(self):
        x = grid_cos(64, 4)
        # t=0: s=1, s_h=0
        assert x[0] == pytest.approx(1.0)
        assert abs(hilbert(x)[0]) < 1e-12
        assert instantaneous_phase(x)[0] == pytest.approx(0.0, abs=1e-12)

    def test_constant_amplitude(self):
        x = 2.0 * grid_cos(128, 7)
        np.testing.assert_allclose(np.hypot(x, hilbert(x)), 2.0, atol=1e-9)

    def test_polar_identities(self):
        x = band_limited(101, seed=5)
        h = hilbert(x)
        amplitude = np.hypot(x, h)
        phase = instantaneous_phase(x)
        np.testing.assert_allclose(amplitude ** 2, x ** 2 + h ** 2, rtol=1e-12)
        np.testing.assert_allclose(amplitude * np.cos(phase), x, atol=1e-9)
        np.testing.assert_allclose(amplitude * np.sin(phase), h, atol=1e-9)

    def test_phase_range_half_open(self):
        # Nyquist-only signal: transform is exactly zero, so the points with
        # s < 0 land precisely on the branch cut and must fold to -pi
        n = 32
        phase = instantaneous_phase(grid_cos(n, n // 2))
        assert np.all(phase < np.pi)
        assert np.all(phase >= -np.pi)
        np.testing.assert_array_equal(phase[1::2], np.full(n // 2, -np.pi))
        np.testing.assert_array_equal(phase[0::2], np.zeros(n // 2))

    def test_all_zero_amplitude(self):
        with pytest.raises(DegeneratePhaseError, match="zero amplitude"):
            instantaneous_phase(np.zeros(16))

    def test_floor_names_offending_index(self):
        # two beating modes: the envelope 2|cos(pi*t/128)| vanishes at t=64,
        # where it is about 2e-16 of the peak, below the 1e-12 floor
        x = grid_cos(128, 5) + grid_cos(128, 6)
        with pytest.raises(DegeneratePhaseError, match=r"at t=64 below floor 1\.0e-12 "):
            instantaneous_phase(x)

    def test_floor_default_accepts_clean_signal(self):
        assert instantaneous_phase(band_limited(256, seed=6)).shape == (256,)

    def test_leaves_the_input_writable(self):
        x = band_limited(64, seed=7)
        before = x.copy()
        instantaneous_phase(x)
        assert x.flags.writeable
        np.testing.assert_array_equal(x, before)
