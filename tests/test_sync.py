import numpy as np
import pytest

from phasesync import (
    ContractError,
    gen_sine,
    instantaneous_phase,
    sync_index_windowed,
)
from phasesync.sync import windowed_resultant_sq


def wrap(psi):
    return np.mod(psi + np.pi, 2.0 * np.pi) - np.pi


def direct_windowed(psi, window):
    out = np.empty(psi.size - window + 1)
    for i in range(out.size):
        chunk = psi[i:i + window]
        out[i] = np.cos(chunk).mean() ** 2 + np.sin(chunk).mean() ** 2
    return np.minimum(out, 1.0)


def oracle_cases():
    rng = np.random.default_rng(99)
    yield rng.uniform(-np.pi, np.pi, size=500), 13
    yield rng.normal(scale=20.0, size=301), 17
    yield np.full(100, 0.7), 11
    # adversarial for running sums: nearly constant over a long series
    yield 0.7 + 1e-9 * rng.normal(size=5000), 13


class TestWindowedResultant:
    @pytest.mark.parametrize("psi,window", list(oracle_cases()))
    def test_matches_direct(self, psi, window):
        np.testing.assert_allclose(windowed_resultant_sq(psi, window),
                                   direct_windowed(psi, window), atol=1e-12)

    def test_clamped_to_one(self):
        # unclamped, a constant 0.3 scores 1 + 4.4e-16
        for value in (1.234, 0.3):
            got = windowed_resultant_sq(np.full(64, value), 13)
            assert np.all(got <= 1.0)
            np.testing.assert_allclose(got, 1.0, atol=1e-12)



class TestPhaseDifference:
    """Phase differences of analytic-signal phases."""

    def test_quarter_cycle_offset_pair(self):
        # sin(2*pi*t/P) against 2*sin(2*pi*t/P - pi/2): difference pi/2 always
        s1 = gen_sine(240, 24, 1.0, 0.0)
        s2 = gen_sine(240, 24, 2.0, -np.pi / 2)
        psi = instantaneous_phase(s1) - instantaneous_phase(s2)
        np.testing.assert_allclose(wrap(psi), np.pi / 2, atol=1e-9)


class TestSyncIndexFull:
    """The index of a whole sequence: one window that spans it."""

    @pytest.mark.parametrize("value", [0.0, 0.4, -np.pi, 100.0])
    def test_constant_is_one(self, value):
        got = windowed_resultant_sq(np.full(13, value), 13)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_cluster_example(self):
        psi = np.array([0.0] * 7 + [np.pi] * 6)
        (got,) = windowed_resultant_sq(psi, psi.size)
        assert got == pytest.approx((1.0 / 13.0) ** 2, abs=1e-12)
        assert got == pytest.approx(0.005917, abs=5e-7)

    @pytest.mark.parametrize("w", [4, 13, 100])
    def test_uniform_spacing_cancels(self, w):
        psi = 2.0 * np.pi * np.arange(w) / w
        (got,) = windowed_resultant_sq(psi, psi.size)
        assert got == pytest.approx(0.0, abs=1e-12)


class TestSyncIndexWindowed:
    def test_constant_gives_ones(self):
        np.testing.assert_allclose(sync_index_windowed(np.full(60, -2.2), 13), 1.0,
                                   atol=1e-12)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(1)
        psi = rng.uniform(-np.pi, np.pi, size=400)
        np.testing.assert_allclose(sync_index_windowed(psi, 13), direct_windowed(psi, 13),
                                   atol=1e-12)

    def test_alignment_bookkeeping(self):
        assert len(sync_index_windowed(np.zeros(100), 13)) == 100 - 13 + 1

    @pytest.mark.parametrize("window", [2, 4, 12, 1, 0, -3])
    def test_even_or_small_window_rejected(self, window):
        with pytest.raises(ContractError, match="odd"):
            sync_index_windowed(np.zeros(50), window)

    def test_window_longer_than_input_rejected(self):
        with pytest.raises(ContractError, match="exceeds"):
            sync_index_windowed(np.zeros(10), 11)

    def test_psi_not_1d_rejected(self):
        # 7 fits the 10 values, not the 5-long rows
        with pytest.raises(ContractError, match=r"1-d sequence, got shape \(2, 5\)"):
            sync_index_windowed(np.zeros((2, 5)), 7)

    def test_non_finite_psi_rejected(self):
        with pytest.raises(ContractError, match="non-finite value at index 1"):
            sync_index_windowed([0.0, np.nan, 0.0, 0.0], 3)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        psi = np.cumsum(rng.normal(size=500))
        g = sync_index_windowed(psi, 17)
        assert np.all(g >= 0.0)
        assert np.all(g <= 1.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        psi = rng.uniform(-np.pi, np.pi, size=200)
        base = sync_index_windowed(psi, 11)
        for shift in (0.3, -4.0, 2.0 * np.pi, 123.456):
            shifted = sync_index_windowed(psi + shift, 11)
            np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_two_pi_jump_invariance(self):
        rng = np.random.default_rng(4)
        psi = rng.uniform(-np.pi, np.pi, size=200)
        jumped = psi + 2.0 * np.pi * rng.integers(-3, 4, size=200)
        np.testing.assert_allclose(
            sync_index_windowed(jumped, 13),
            sync_index_windowed(psi, 13),
            atol=1e-12,
        )

    def test_negation_invariance(self):
        rng = np.random.default_rng(5)
        psi = rng.uniform(-np.pi, np.pi, size=150)
        np.testing.assert_allclose(
            sync_index_windowed(-psi, 15),
            sync_index_windowed(psi, 15),
            atol=1e-12,
        )

    @pytest.mark.parametrize("window", [11, 13, 15, 17, 19])
    def test_null_expectation_one_over_window(self, window):
        # independent blocks so the standard error is the plain i.i.d. one
        rng = np.random.default_rng(7)
        blocks = rng.uniform(-np.pi, np.pi, size=(20000, window))
        g = (np.cos(blocks).mean(axis=1) ** 2 + np.sin(blocks).mean(axis=1) ** 2)
        se = g.std(ddof=1) / np.sqrt(g.size)
        assert abs(g.mean() - 1.0 / window) < 3.0 * se
