"""The trigonometric Fourier reference the spectral tests check against.

fourier_analyze takes a series' real trigonometric coefficients, and
FourierCoefficients.synthesize evaluates the trigonometric sum directly
(O(N^2), no FFT), in full or over a band: the band-pass partial sum that
phasesync.spectral.bandpass must equal. direct_coefficients is the O(N^2)
oracle fourier_analyze is checked against, and grid_cos and grid_sin are
whole-cycle test signals. It is test code, kept apart from the package it
checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from phasesync import ContractError, FilterBand
from phasesync.spectral import _as_series


@dataclass(frozen=True)
class FourierCoefficients:
    """Real trigonometric coefficients of a length-n series.

    a[k] multiplies cos(2*pi*k*t/n) and b[k] multiplies sin(2*pi*k*t/n) for
    k = 0..floor(n/2); b[0] is identically 0. The series equals
    a[0]/2 + sum over k >= 1, exactly (up to rounding), under this scaling:
    a[k], b[k] carry 2/n for 0 < k < n/2, and the k = n/2 term of an even-n
    record carries 1/n (it appears once, with b[n//2] = 0).
    """

    a: np.ndarray
    b: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        half = self.n // 2
        if self.a.shape != (half + 1,) or self.b.shape != (half + 1,):
            raise ContractError(
                f"coefficient arrays must have length floor(n/2)+1 = {half + 1}"
            )

    def synthesize(self, band: FilterBand | None = None) -> np.ndarray:
        """Evaluate the trigonometric sum directly (no FFT).

        With band=None the full series is rebuilt, mean included. With a
        band, only modes inside it are summed: the band-pass partial sum.
        """
        if band is None:
            lo, hi = 1, self.n // 2
            out = np.full(self.n, self.a[0] / 2.0)
        else:
            band.validate_for(self.n)
            lo, hi = band.lower, band.upper
            out = np.zeros(self.n)
        t = np.arange(self.n)
        for k in range(lo, hi + 1):
            theta = (2.0 * np.pi * k / self.n) * t
            out += self.a[k] * np.cos(theta) + self.b[k] * np.sin(theta)
        return out


def fourier_analyze(series) -> FourierCoefficients:
    """Decompose a real series into trigonometric coefficients.

    Parameters
    ----------
    series : array_like
        Finite values, length >= 2.

    Returns
    -------
    FourierCoefficients
        Scaled so that ``synthesize()`` reproduces the input: a[0] is twice
        the mean, interior modes carry 2/n, and the Nyquist mode of an
        even-length record carries 1/n.
    """
    x = _as_series(series)
    n = x.size
    spectrum = np.fft.rfft(x)
    a = 2.0 * spectrum.real / n
    b = -2.0 * spectrum.imag / n
    b[0] = 0.0
    if n % 2 == 0:
        # rfft's last bin is the Nyquist mode, which the trig sum counts once
        a[-1] = spectrum.real[-1] / n
        b[-1] = 0.0
    return FourierCoefficients(a=a, b=b, n=n)


def direct_coefficients(x):
    """fourier_analyze's coefficients by O(N^2) summation of the coefficient
    integrals, discretized as sums: the slow reference analyzer."""
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
