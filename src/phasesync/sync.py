"""The windowed synchronization index of phase differences.

For a phase-difference sequence psi the synchronization index is the
squared length of the mean unit phasor,

    gamma2 = (mean cos psi)**2 + (mean sin psi)**2,

which is 1 when the difference is constant and has expectation 1/W for W
i.i.d. uniform phases. The windowed variant slides a centered odd-length
window over psi; score_pairs scores every pair of a panel's phases, one
member's pairs at a time, and counts the pairs locked at each threshold.

Each window's sums of cos psi and sin psi are added in one stated order,
that of numpy's pairwise summation of one slice (_window_sums), so the
bits of gamma2 depend on that order, not on how numpy iterates a
reduction; on numpy 2.4 they equal those of
sliding_window_view(x, W).mean(axis=-1).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .panel import is_integer
from .spectral import _as_series

RATIO_TOL = 1e-12  # a pair is locked at r when gamma2 >= r - RATIO_TOL


def check_window(window) -> int:
    """window as an int. Raises ContractError unless it is an odd integer >= 3."""
    if not is_integer(window) or window < 3 or window % 2 == 0:
        raise ContractError(f"window must be an odd integer >= 3, got {window}")
    return int(window)


def _window_sums(x: np.ndarray, window: int) -> np.ndarray:
    """The sum of every length-window slice of x's last axis, each added in
    the order numpy's pairwise summation adds one slice:

    - window < 8: left to right;
    - 8 <= window <= 128: eight accumulators, r_k adding elements k, k + 8,
      ... of the first 8 * (window // 8) from left to right, then
      ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
      remaining elements from left to right;
    - window > 128: the sum of the first h = window // 2 - (window // 2) % 8
      elements plus the sum of the rest, each added by these rules.

    Neighbouring windows share partial sums: accumulator r_k of the window
    at i is r_0 of the window at i + k, so each stage of the 8-way tree is
    one add of shifted slices over the whole array. Only a slice summing
    to -0 can differ from numpy's, which starts from +0.
    """
    m = x.shape[-1] - window + 1
    if window > 128:
        half = window // 2 - window // 2 % 8
        return _window_sums(x, half)[..., :m] + _window_sums(x[..., half:], window - half)
    if window < 8:
        return sum((x[..., k:k + m] for k in range(1, window)), start=x[..., :m])
    blocks = window // 8
    span = x.shape[-1] - 8 * (blocks - 1)  # starts of r_0 any window uses: m + 7 or more
    r0 = sum((x[..., 8 * k:8 * k + span] for k in range(1, blocks)), start=x[..., :span])
    pairs = r0[..., :m + 6] + r0[..., 1:m + 7]  # r0 + r1
    quads = pairs[..., :m + 4] + pairs[..., 2:m + 6]  # (r0 + r1) + (r2 + r3)
    total = quads[..., :m] + quads[..., 4:m + 4]
    for k in range(8 * blocks, window):
        total += x[..., k:k + m]
    return total


def windowed_resultant_sq(psi, window: int) -> np.ndarray:
    """Squared mean resultant of every length-`window` slice of psi's last axis.

    Values lie in [0, 1]. Each slice is summed on its own (_window_sums),
    so nothing drifts.
    """
    mean_c = _window_sums(np.cos(psi), window) / window
    mean_s = _window_sums(np.sin(psi), window) / window
    return np.minimum(mean_c * mean_c + mean_s * mean_s, 1.0)


def sync_index_windowed(psi, window: int) -> np.ndarray:
    """Centered moving synchronization index of phase differences psi
    (radians, any branch).

    psi is a finite 1-d sequence; window is odd, 3 <= window <= len(psi).
    Returns len(psi) - window + 1 values in [0, 1]; value i covers
    psi[i : i + window], centered at index i + (window - 1) // 2.
    """
    check_window(window)
    psi = _as_series(psi)
    if window > psi.size:
        raise ContractError(
            f"window {window} exceeds sequence length {psi.size}"
        )
    return windowed_resultant_sq(psi, int(window))


def lock_counts(gamma2: np.ndarray, r: float) -> np.ndarray:
    """Per sample (column), how many rows of gamma2 are locked at r.

    A row counts when gamma2 >= r - RATIO_TOL (1e-12), so an exactly
    locked pair, whose gamma2 rounds to just below 1, counts at r = 1.
    """
    return np.count_nonzero(gamma2 >= r - RATIO_TOL, axis=0)


def score_pairs(phases: np.ndarray, window: int, thresholds, sink=None) -> np.ndarray:
    """R at each threshold: the share of pairs i < j of (members, n) phases
    locked in each window, as a (thresholds x samples) array.

    Member i's pairs are scored together as one (members - 1 - i, samples)
    block whose row for pair (i, j) equals sync_index_windowed(phases[i] -
    phases[j], window). Each block is added into integer lock counts, then
    passed to sink, if given, and dropped, so the blocks arrive in
    itertools.combinations order and no (pairs x samples) array is kept.
    The caller checks members >= 2, the window and the thresholds.
    """
    members, n = phases.shape
    counts = np.zeros((len(thresholds), n - window + 1), dtype=np.int64)
    for i in range(members - 1):
        block = windowed_resultant_sq(phases[i] - phases[i + 1:], window)
        for row, r in zip(counts, thresholds):
            row += lock_counts(block, r)
        if sink is not None:
            sink(block)
    return counts / (members * (members - 1) // 2)
