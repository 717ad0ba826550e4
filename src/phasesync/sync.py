"""The windowed synchronization index of phase differences.

For a phase-difference sequence psi the synchronization index is the
squared length of the mean unit phasor,

    gamma2 = (mean cos psi)**2 + (mean sin psi)**2,

which is 1 when the difference is constant and has expectation 1/W for W
i.i.d. uniform phases. The windowed variant slides a centered odd-length
window over psi; pair_gamma2 scores every pair of a panel's phases at once.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError


def check_window(window) -> None:
    """Raise unless window is an odd integer >= 3."""
    if window != int(window) or window < 3 or window % 2 == 0:
        raise ContractError(f"window must be an odd integer >= 3, got {window}")


def windowed_resultant_sq(psi, window: int) -> np.ndarray:
    """Squared mean resultant of every length-`window` slice of psi's last axis.

    Values lie in [0, 1]. Each slice is summed on its own, so nothing drifts.
    """
    mean_c = sliding_window_view(np.cos(psi), window, axis=-1).mean(axis=-1)
    mean_s = sliding_window_view(np.sin(psi), window, axis=-1).mean(axis=-1)
    return np.minimum(mean_c * mean_c + mean_s * mean_s, 1.0)


def sync_index_windowed(psi, window: int) -> np.ndarray:
    """Centered moving synchronization index of phase differences psi
    (radians, any branch).

    window is odd, 3 <= window <= len(psi). Returns len(psi) - window + 1
    values in [0, 1]; value i covers psi[i : i + window], centered at
    index i + (window - 1) // 2.
    """
    psi = np.asarray(psi, dtype=float)
    check_window(window)
    if window > psi.size:
        raise ContractError(
            f"window {window} exceeds sequence length {psi.size}"
        )
    return windowed_resultant_sq(psi, int(window))


def pair_gamma2(phases: np.ndarray, window: int) -> np.ndarray:
    """Windowed gamma2 of every pair of rows i < j of (members, n) phases.

    Rows follow itertools.combinations order, and row (i, j) equals
    sync_index_windowed(phases[i] - phases[j], window). The caller checks
    members >= 2 and the window. One call per member keeps temporaries to
    one row of the pair triangle.
    """
    members, n = phases.shape
    out = np.empty((members * (members - 1) // 2, n - window + 1))
    start = 0
    for i in range(members - 1):
        stop = start + members - 1 - i
        out[start:stop] = windowed_resultant_sq(phases[i] - phases[i + 1:], window)
        start = stop
    return out
