"""Phase differences and the windowed synchronization index.

For a phase-difference sequence psi the synchronization index is the
squared length of the mean unit phasor,

    gamma2 = (mean cos psi)**2 + (mean sin psi)**2,

which is 1 when the difference is constant and has expectation 1/W for W
i.i.d. uniform phases. The windowed variant slides a centered odd-length
window over psi; pair_gamma2 scores every pair of a panel's phases at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError


def phase_difference(phi1, phi2) -> np.ndarray:
    """Pointwise phase difference phi1 - phi2, unwrapped.

    No modular reduction is applied: consumers only ever take cos/sin of
    the result, which are 2*pi-periodic anyway.
    """
    p1 = np.asarray(phi1, dtype=float)
    p2 = np.asarray(phi2, dtype=float)
    if p1.shape != p2.shape:
        raise ContractError(
            f"phase sequences differ in shape: {p1.shape} vs {p2.shape}"
        )
    return p1 - p2


def windowed_resultant_sq(psi, window: int) -> np.ndarray:
    """Squared mean resultant of every length-`window` slice of psi's last axis.

    Values lie in [0, 1]. Each slice is summed on its own, so nothing drifts.
    """
    mean_c = sliding_window_view(np.cos(psi), window, axis=-1).mean(axis=-1)
    mean_s = sliding_window_view(np.sin(psi), window, axis=-1).mean(axis=-1)
    return np.minimum(mean_c * mean_c + mean_s * mean_s, 1.0)


def sync_index_full(psi) -> float:
    """Synchronization index of the whole sequence, in [0, 1]."""
    psi = np.asarray(psi, dtype=float)
    if psi.size == 0:
        raise ContractError("empty phase-difference sequence")
    g = np.cos(psi).mean() ** 2 + np.sin(psi).mean() ** 2
    return float(min(g, 1.0))


@dataclass(frozen=True)
class SyncSeries:
    """Windowed synchronization indices with their alignment bookkeeping.

    gamma2[i] covers source positions i .. i+window-1, centered at source
    index i + (window-1)/2. In the 1-indexed convention of valid_range,
    gamma2[0] belongs to t = p+1 with p the half-width.
    """

    gamma2: np.ndarray
    window: int

    def __post_init__(self):
        arr = np.asarray(self.gamma2, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "gamma2", arr)

    @property
    def half_width(self) -> int:
        return (self.window - 1) // 2

    @property
    def source_length(self) -> int:
        return self.gamma2.size + self.window - 1

    @property
    def valid_range(self) -> tuple[int, int]:
        """Centered positions (first, last) in 1-indexed source coordinates."""
        p = self.half_width
        return p + 1, self.source_length - p

    def __len__(self) -> int:
        return self.gamma2.size


def sync_index_windowed(psi, window: int) -> SyncSeries:
    """Centered moving synchronization index.

    Parameters
    ----------
    psi : array_like
        Phase differences in radians, any branch.
    window : int
        Odd, 3 <= window <= len(psi).

    Returns
    -------
    SyncSeries
        len(psi) - window + 1 values, each in [0, 1].
    """
    psi = np.asarray(psi, dtype=float)
    if window != int(window) or window < 3 or window % 2 == 0:
        raise ContractError(f"window must be an odd integer >= 3, got {window}")
    if window > psi.size:
        raise ContractError(
            f"window {window} exceeds sequence length {psi.size}"
        )
    gamma2 = windowed_resultant_sq(psi, int(window))
    return SyncSeries(gamma2=gamma2, window=int(window))


def pair_gamma2(phases: np.ndarray, window: int) -> np.ndarray:
    """Windowed gamma2 of every pair of rows i < j of (members, n) phases.

    Rows follow itertools.combinations order, and row (i, j) equals
    sync_index_windowed(phases[i] - phases[j], window).gamma2. The caller
    checks members >= 2 and the window. One call per member keeps
    temporaries to one row of the pair triangle.
    """
    members, n = phases.shape
    out = np.empty((members * (members - 1) // 2, n - window + 1))
    start = 0
    for i in range(members - 1):
        stop = start + members - 1 - i
        out[start:stop] = windowed_resultant_sq(phases[i] - phases[i + 1:], window)
        start = stop
    return out
