"""Fourier band-pass, detrending, Hilbert transform and instantaneous phase.

A length-N real series is treated as one period of a periodic function and
decomposed into modes k = 0..floor(N/2) (cycles per record). Band-passing
keeps the modes inside an inclusive [lower, upper] index range and
resynthesizes; everything else is zeroed, including the mean.

The Hilbert transform is applied in the frequency domain: every positive
mode is rotated by -pi/2. For a band-limited input (the output of a
band-pass) this is exact for the periodic extension, not an approximation
of the principal-value integral.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DegeneratePhaseError
from .panel import FilterBand

# Degeneracy threshold of instantaneous_phase, relative to the peak amplitude.
AMPLITUDE_FLOOR = 1e-12


def _as_series(values) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ContractError(f"need a 1-d sequence, got shape {x.shape}")
    if x.size < 2:
        raise ContractError(f"need length >= 2, got {x.size}")
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise ContractError(f"non-finite value at index {bad}")
    return x


def bandpass(series, band: FilterBand) -> np.ndarray:
    """Keep only the Fourier modes with indices in [band.lower, band.upper].

    Output has the input's length and zero mean (the k=0 term is always
    outside a valid band). Raises ContractError if the band does not fit
    the series length.
    """
    x = _as_series(series)
    band.validate_for(x.size)
    spectrum = np.fft.rfft(x)
    spectrum[: band.lower] = 0.0
    spectrum[band.upper + 1 :] = 0.0
    return np.fft.irfft(spectrum, n=x.size)


def detrend_linear(series) -> np.ndarray:
    """Subtract the least-squares line; residuals have zero sum."""
    x = _as_series(series)
    t = np.arange(x.size, dtype=float)
    t -= t.mean()
    slope = (t @ (x - x.mean())) / (t @ t)
    return x - x.mean() - slope * t


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


def instantaneous_phase(series) -> np.ndarray:
    """Phase in [-pi, pi) of the analytic signal s + i*hilbert(s).

    phase[t] is the four-quadrant angle of (s[t], hilbert(s)[t]); the +pi
    branch folds to -pi. The input (real, length >= 2) is expected
    zero-mean; the transform drops the mean regardless.

    Raises DegeneratePhaseError when the amplitude hypot(s, hilbert(s)) is
    zero everywhere, or falls below AMPLITUDE_FLOOR x its peak at some
    time point (the first is named): a trajectory passing near the origin
    has no meaningful phase and would inject abrupt phase jumps that
    corrupt synchronization downstream.
    """
    x = _as_series(series)
    h = hilbert(x)
    amplitude = np.hypot(x, h)
    peak = amplitude.max()
    if peak == 0.0:
        raise DegeneratePhaseError("zero amplitude everywhere; phase undefined")
    low = np.flatnonzero(amplitude < AMPLITUDE_FLOOR * peak)
    if low.size:
        t = int(low[0])
        raise DegeneratePhaseError(
            f"amplitude {amplitude[t]:.3e} at t={t} below floor "
            f"{AMPLITUDE_FLOOR:.1e} x peak {peak:.3e}; phase degenerate"
        )
    phase = np.arctan2(h, x)
    phase[phase == np.pi] = -np.pi
    return phase
