"""Ground-truth panel generators for validating the pipeline.

Two kinds of synthetic data:

* pure sinusoids with known amplitude/offset, whose phase relationships
  are exact closed forms, and
* regime-switching oscillator panels, where a latent per-member phase is
  integrated from a frequency process so that the presence or absence of
  synchronization is controlled exactly rather than approximately.

Randomness comes from numpy's default_rng (the PCG64 generator), so any
implementation following the documented draw order reproduces the panels
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .panel import Month, Panel

REGIMES = ("coupled", "uncoupled")

# Detune random-walk step per month, in units of the detune range [-1, 1].
# Small enough that a member's frequency offset persists across a window,
# large enough that offsets decorrelate over a segment.
DETUNE_WALK_STEP = 0.15


def gen_sine(n: int, period: float, amplitude: float = 1.0,
             phase_offset: float = 0.0) -> np.ndarray:
    """Sampled sinusoid: amplitude * sin(2*pi*t/period + phase_offset), t = 0..n-1."""
    if n < 2:
        raise ContractError(f"need n >= 2, got {n}")
    if not (np.isfinite(period) and period >= 2):
        raise ContractError(f"need a finite period >= 2, got {period}")
    for name, value in (("amplitude", amplitude), ("phase_offset", phase_offset)):
        if not np.isfinite(value):
            raise ContractError(f"need a finite {name}, got {value}")
    t = np.arange(n)
    return amplitude * np.sin(2.0 * np.pi * t / period + phase_offset)


@dataclass(frozen=True)
class RegimeSpec:
    """Layout and dynamics of a regime-switching oscillator panel.

    segments is an ordered list of (length-in-months, regime) with regime
    'coupled' or 'uncoupled'. jitter scales a per-member relative frequency
    perturbation: in uncoupled segments member frequencies are
    (1 + jitter*z_m)/base_period cycles per month with independent detunes
    z_m; in coupled segments all members share a single detune path, so
    pairwise phase differences stay constant. noise_sd is the standard
    deviation of additive observation noise on the unit-amplitude signal.
    """

    segments: tuple[tuple[int, str], ...]
    base_period: float = 33.0
    jitter: float = 0.65
    noise_sd: float = 0.15
    seed: int = 0

    def __post_init__(self):
        segs = tuple((int(length), regime) for length, regime in self.segments)
        if not segs:
            raise ContractError("need at least one segment")
        for length, regime in segs:
            if length < 1:
                raise ContractError(f"segment lengths must be >= 1, got {length}")
            if regime not in REGIMES:
                raise ContractError(
                    f"regime must be one of {REGIMES}, got {regime!r}"
                )
        if self.total < 2:
            raise ContractError("total panel length must be >= 2")
        if not (np.isfinite(self.base_period) and self.base_period >= 2):
            raise ContractError(f"need a finite base_period >= 2, got {self.base_period}")
        for name in ("jitter", "noise_sd"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ContractError(f"need a finite {name} >= 0, got {value}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ContractError(f"need an integer seed >= 0, got {self.seed!r}")
        object.__setattr__(self, "segments", segs)

    @property
    def total(self) -> int:
        return sum(length for length, _ in self.segments)

    def regime_at(self, t: int) -> str:
        """Regime of month t (0-indexed from panel start)."""
        offset = 0
        for length, regime in self.segments:
            offset += length
            if t < offset:
                return regime
        raise ContractError(f"month {t} outside the {self.total}-month layout")


def _reflect(z: np.ndarray | float):
    z = np.where(z > 1.0, 2.0 - z, z)
    return np.where(z < -1.0, -2.0 - z, z)


def gen_regime_panel(m: int, spec: RegimeSpec, start: Month = Month(1980, 1),
                     return_phases: bool = False):
    """Generate an m-member panel with known synchronization regimes.

    Latent phase construction, one draw sequence per panel:

    1. m initial phases, uniform on [-pi, pi).
    2. For each month t >= 1, one detune update: a single shared uniform
       draw in a coupled segment, m independent ones in an uncoupled
       segment. The detune is drawn fresh at each segment start and then
       follows a random walk (step DETUNE_WALK_STEP) reflected back into
       [-1, 1]; phase advances by 2*pi*(1 + jitter*detune)/base_period.
    3. One (m, total) block of standard normal observation noise, scaled
       by noise_sd and added to sin(phase).

    Phase paths are continuous across segment boundaries; only the detune
    re-randomizes. With return_phases=True the latent phase matrix is
    returned alongside the panel, which is what ground-truth checks should
    consume (observed values add noise on top).

    Returns
    -------
    Panel, or (Panel, phases) when return_phases is set.
    """
    if m < 2:
        raise ContractError(f"need at least 2 members, got {m}")
    rng = np.random.default_rng(spec.seed)
    total = spec.total
    theta = np.empty((m, total))
    theta[:, 0] = rng.uniform(-np.pi, np.pi, size=m)
    base_step = 2.0 * np.pi / spec.base_period

    t = 1
    seg_end = 0
    shared = 0.0
    detune = np.zeros(m)
    for length, regime in spec.segments:
        seg_end += length
        fresh = True
        while t < seg_end:
            if regime == "coupled":
                if fresh:
                    shared = rng.uniform(-1.0, 1.0)
                    fresh = False
                else:
                    shared = float(_reflect(shared + DETUNE_WALK_STEP
                                            * rng.uniform(-1.0, 1.0)))
                theta[:, t] = theta[:, t - 1] + base_step * (1.0 + spec.jitter * shared)
            else:
                if fresh:
                    detune = rng.uniform(-1.0, 1.0, size=m)
                    fresh = False
                else:
                    detune = _reflect(detune + DETUNE_WALK_STEP
                                      * rng.uniform(-1.0, 1.0, size=m))
                theta[:, t] = theta[:, t - 1] + base_step * (1.0 + spec.jitter * detune)
            t += 1

    values = np.sin(theta)
    if spec.noise_sd > 0:
        values = values + spec.noise_sd * rng.standard_normal(size=(m, total))

    width = max(2, len(str(m)))
    panel = Panel([f"m{i + 1:0{width}d}" for i in range(m)], start, values.T)
    if return_phases:
        return panel, theta
    return panel
