"""Analytic signal construction and instantaneous phase/amplitude.

The Hilbert transform is applied in the frequency domain: every positive
mode is rotated by -pi/2. For a band-limited input (the output of a
band-pass) this is exact for the periodic extension, not an approximation
of the principal-value integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegeneratePhaseError
from .spectral import _as_series


def hilbert(series) -> np.ndarray:
    """Rotate every Fourier mode by -pi/2.

    Mode a*cos(theta) + b*sin(theta) maps to a*sin(theta) - b*cos(theta).
    The mean (k=0) is ignored, so the input is treated as zero-mean; for
    even length the Nyquist mode's image is zero (a -pi/2-shifted cosine
    at the Nyquist frequency is sampled exactly at its zeros).
    """
    x = _as_series(series)
    spectrum = np.fft.rfft(x)
    spectrum[0] = 0.0
    if x.size % 2 == 0:
        spectrum[-1] = 0.0
    return np.fft.irfft(spectrum * -1j, n=x.size)


@dataclass(frozen=True)
class AnalyticSeries:
    """A series paired with its Hilbert transform, in polar form.

    amplitude[t] = sqrt(s[t]**2 + s_h[t]**2) and phase[t] in [-pi, pi) is
    the four-quadrant angle of (s[t], s_h[t]).
    """

    s: np.ndarray
    s_h: np.ndarray
    amplitude: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        for name in ("s", "s_h", "amplitude", "phase"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.s.size


def analytic_signal(series, amplitude_floor: float = 1e-12) -> AnalyticSeries:
    """Build the analytic signal and extract instantaneous phase.

    Parameters
    ----------
    series : array_like
        Real input, length >= 2. Expected zero-mean (the transform drops
        the mean regardless).
    amplitude_floor : float
        Degeneracy threshold relative to the peak amplitude. Any time point
        whose amplitude falls below ``amplitude_floor * max(amplitude)``
        has no meaningful phase and raises DegeneratePhaseError; a
        trajectory passing near the origin would otherwise inject abrupt
        phase jumps that corrupt synchronization downstream.

    Returns
    -------
    AnalyticSeries
        With phase standardized to [-pi, pi) (the +pi branch folds to -pi).
    """
    x = _as_series(series)
    h = hilbert(x)
    amplitude = np.hypot(x, h)
    peak = amplitude.max()
    if peak == 0.0:
        raise DegeneratePhaseError("zero amplitude everywhere; phase undefined")
    low = np.flatnonzero(amplitude < amplitude_floor * peak)
    if low.size:
        t = int(low[0])
        raise DegeneratePhaseError(
            f"amplitude {amplitude[t]:.3e} at t={t} below floor "
            f"{amplitude_floor:.1e} x peak {peak:.3e}; phase degenerate"
        )
    phase = np.arctan2(h, x)
    phase[phase == np.pi] = -np.pi
    return AnalyticSeries(s=x, s_h=h, amplitude=amplitude, phase=phase)
