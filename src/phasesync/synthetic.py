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
from numbers import Real

import numpy as np

from .errors import ContractError
from .panel import Month, Panel, is_integer

REGIMES = ("coupled", "uncoupled")

# Detune random-walk step per month, in units of the detune range [-1, 1].
# Small enough that a member's frequency offset persists across a window,
# large enough that offsets decorrelate over a segment.
DETUNE_WALK_STEP = 0.15


def _parameter(name: str, value, least=None, integer: bool = False):
    """value, an int when integer, else a finite number kept as given; >= least
    unless least is None. Raises ContractError naming name otherwise."""
    ok = is_integer(value) if integer else (isinstance(value, Real) and np.isfinite(value))
    if not (ok and (least is None or value >= least)):
        bound = "" if least is None else f" >= {least}"
        raise ContractError(f"need {'an integer' if integer else 'a finite'} {name}{bound}, "
                            f"got {value!r}")
    return int(value) if integer else value


def gen_sine(n: int, period: float, amplitude: float = 1.0,
             phase_offset: float = 0.0) -> np.ndarray:
    """Sampled sinusoid: amplitude * sin(2*pi*t/period + phase_offset), t = 0..n-1."""
    t = np.arange(_parameter("n", n, least=2, integer=True))
    period = _parameter("period", period, least=2)
    amplitude = _parameter("amplitude", amplitude)
    phase_offset = _parameter("phase_offset", phase_offset)
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
        segs = tuple((_parameter("segment length", length, least=1, integer=True), regime)
                     for length, regime in self.segments)
        if not segs:
            raise ContractError("need at least one segment")
        for _, regime in segs:
            if regime not in REGIMES:
                raise ContractError(
                    f"regime must be one of {REGIMES}, got {regime!r}"
                )
        object.__setattr__(self, "segments", segs)
        if self.total < 2:
            raise ContractError("total panel length must be >= 2")
        for name, least, integer in (("base_period", 2, False), ("jitter", 0, False),
                                     ("noise_sd", 0, False), ("seed", 0, True)):
            object.__setattr__(self, name, _parameter(name, getattr(self, name), least, integer))

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


def gen_regime_panel(m: int, spec: RegimeSpec, start: Month = Month(1980, 1)) -> Panel:
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
    re-randomizes. Ground-truth checks read the latent phases, free of the
    observation noise, from regime_phases(m, spec).
    """
    theta, rng = _draw_phases(m, spec)
    values = np.sin(theta)
    if spec.noise_sd > 0:
        values = values + spec.noise_sd * rng.standard_normal(size=theta.shape)

    width = max(2, len(str(len(theta))))
    return Panel([f"m{i + 1:0{width}d}" for i in range(len(theta))], start, values.T)


def regime_phases(m: int, spec: RegimeSpec) -> np.ndarray:
    """The (m, total) latent phases of gen_regime_panel(m, spec): draws 1 and 2."""
    return _draw_phases(m, spec)[0]


def _draw_phases(m: int, spec: RegimeSpec):
    """(regime_phases(m, spec), the generator seeded with spec.seed that drew them)."""
    if not (is_integer(m) and m >= 2):
        raise ContractError(f"need at least 2 members, got {m!r}")
    m = int(m)
    rng = np.random.default_rng(spec.seed)
    theta = np.empty((m, spec.total))
    theta[:, 0] = rng.uniform(-np.pi, np.pi, size=m)
    base_step = 2.0 * np.pi / spec.base_period

    offset = 0  # the segment's first month
    for length, regime in spec.segments:
        size = None if regime == "coupled" else m  # one shared detune, or one each
        detune = None  # drawn fresh at the segment's first month t >= 1
        for t in range(max(offset, 1), offset + length):
            draw = rng.uniform(-1.0, 1.0, size=size)
            detune = draw if detune is None else _reflect(detune + DETUNE_WALK_STEP * draw)
            theta[:, t] = theta[:, t - 1] + base_step * (1.0 + spec.jitter * detune)
        offset += length
    return theta, rng
