"""Fourier band-pass and detrending.

A length-N real series is treated as one period of a periodic function and
decomposed into modes k = 0..floor(N/2) (cycles per record). Band-passing
keeps the modes inside an inclusive [lower, upper] index range and
resynthesizes; everything else is zeroed, including the mean.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .panel import FilterBand


def _as_series(values, minimum: int = 2) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ContractError(f"need a 1-d sequence, got shape {x.shape}")
    if x.size < minimum:
        raise ContractError(f"need length >= {minimum}, got {x.size}")
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
