"""Panel-level orchestration: filter, phase, all-pairs sync, ratios.

The pipeline runs per series (optional detrend, band-pass, instantaneous
phase) and trims filter edge effects from the phases (panel_phases),
then evaluates the windowed synchronization index for every unordered
pair and the fraction of pairs at or above each threshold (score_pairs).
Results carry explicit calendar anchoring so downstream alignment cannot
silently drift by a half-window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .csvtext import FORMAT_CHUNK, csv_fields, csv_line, csv_rows, format_g12
from .errors import ContractError, PhaseSyncError
from .panel import (FilterBand, Month, Panel, RecessionCalendar, month_labels,
                    periods_of_band, round_half_up)
from .spectral import AMPLITUDE_FLOOR, bandpass, detrend_linear, instantaneous_phase
from .sync import check_window, lock_counts, score_pairs

DEFAULT_THRESHOLDS = (0.7, 0.8)


def r_label(r: float) -> str:
    """Threshold r in every output that names it: six significant digits."""
    return format(r, "g")


def check_thresholds(values) -> tuple[float, ...]:
    """values as a tuple of floats, -0 stored as 0. Raises ContractError
    unless there is at least one, each lies in [0, 1], they strictly
    increase and no two have the same r_label."""
    thresholds = tuple(float(r) + 0.0 for r in values)
    if not thresholds:
        raise ContractError("need at least one threshold")
    for r in thresholds:
        if not 0.0 <= r <= 1.0:
            raise ContractError(f"thresholds must lie in [0, 1], got {r}")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ContractError(f"thresholds must be strictly increasing, got {thresholds}")
    for a, b in zip(thresholds, thresholds[1:]):
        if r_label(a) == r_label(b):
            raise ContractError(
                f"thresholds {a!r} and {b!r} both print as {r_label(a)}: "
                f"thresholds must differ in their first 6 significant digits"
            )
    return thresholds


@dataclass(frozen=True)
class PipelineConfig:
    """Parameters of one full panel run.

    thresholds must be strictly increasing values in [0, 1]; window odd.
    """

    band: FilterBand
    window: int
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    detrend: bool = True
    trim: bool = True

    def __post_init__(self):
        check_window(self.window)
        object.__setattr__(self, "window", int(self.window))
        object.__setattr__(self, "thresholds", check_thresholds(self.thresholds))


@dataclass(frozen=True)
class ResultMeta:
    """Provenance and alignment for one pipeline run; build it with of()."""

    config: PipelineConfig
    ids: tuple[str, ...]
    n_months: int
    panel_start: Month
    trim_offset: int

    @classmethod
    def of(cls, panel: Panel, config: PipelineConfig) -> "ResultMeta":
        """The geometry of config run on panel; the trim offset per end is the
        band's shortest period rounded half up when config.trim, else 0.
        Raises ContractError for < 2 series, or a band or window that does
        not fit."""
        if len(panel) < 2:
            raise ContractError(
                f"need >= 2 series for pairwise synchronization, got {len(panel)}"
            )
        n, band = panel.n, config.band
        shortest, _ = periods_of_band(n, band)
        trim_offset = round_half_up(shortest) if config.trim else 0
        usable = n - 2 * trim_offset
        if usable < config.window:
            raise ContractError(
                f"window {config.window} does not fit the {usable} months left "
                f"after trimming a {n}-month panel for band "
                f"({band.lower}, {band.upper})"
            )
        return cls(config, panel.ids, n, panel.start, trim_offset)

    @property
    def n_series(self) -> int:
        return len(self.ids)

    @property
    def anchor(self) -> Month:
        """Calendar month of the first windowed index sample."""
        return self.panel_start + self.trim_offset + (self.config.window - 1) // 2

    @property
    def n_samples(self) -> int:
        """Windowed index samples per pair: trimmed months - window + 1."""
        return self.n_months - 2 * self.trim_offset - self.config.window + 1

    def t_of(self, idx: int) -> int:
        """1-indexed centered position of sample idx in the trimmed series."""
        return (self.config.window - 1) // 2 + 1 + idx

    def month_of(self, idx: int) -> Month:
        """Calendar month at which sample idx is centered."""
        return self.anchor + idx

    def contraction_mask(self, calendar: RecessionCalendar) -> np.ndarray:
        """RecessionCalendar.contraction_mask over the sample months. Raises
        ContractError when no sample month is a contraction month."""
        mask = calendar.contraction_mask(self.anchor, self.n_samples)
        if not mask.any():
            raise ContractError(
                f"calendar episodes are disjoint from the result range "
                f"{self.anchor}..{self.month_of(self.n_samples - 1)}"
            )
        return mask

    def sample_fields(self) -> list[tuple[str, str]]:
        """(t, date) of every sample, the leading fields of each CSV row."""
        return list(zip(map(str, range(self.t_of(0), self.t_of(self.n_samples))),
                        month_labels(self.anchor, self.n_samples)))


@dataclass(frozen=True)
class SyncResult:
    """All-pairs synchronization output.

    pairs lists (id_i, id_j), i before j in panel order; row k of the
    read-only (pairs x samples) array gamma2 is pair k's windowed index.
    gamma2 is None when run_pipeline was given a sink, which got the scores
    instead, or sweep built the result. ratios maps each r to its R_t sequence.
    """

    gamma2: np.ndarray | None
    ratios: dict[float, np.ndarray]
    meta: ResultMeta

    def __post_init__(self):
        if self.gamma2 is not None:
            self.gamma2.flags.writeable = False

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(combinations(self.meta.ids, 2))

    @property
    def n_pairs(self) -> int:
        return self.meta.n_series * (self.meta.n_series - 1) // 2

    @property
    def n_samples(self) -> int:
        return self.meta.n_samples

    @property
    def window(self) -> int:
        return self.meta.config.window

    def t_of(self, idx: int) -> int:
        """1-indexed centered position of sample idx in the trimmed series."""
        return self.meta.t_of(idx)

    def month_of(self, idx: int) -> Month:
        """Calendar month at which sample idx is centered."""
        return self.meta.month_of(idx)

    def write_ratio_long_csv(self, path) -> None:
        """Long format: t,date,r,R."""
        samples = csv_fields(self.meta.sample_fields())
        with open(path, "wb") as fh:
            fh.write(csv_line(["t", "date", "r", "R"]).encode())
            for r in self.meta.config.thresholds:
                fh.write(csv_rows(samples, csv_fields([(r_label(r),)]),
                                  format_g12(self.ratios[r])[:, None]))

    def write_ratio_wide_csv(self, path, labels: tuple[str, ...] | None = None) -> None:
        """One R column per threshold; optional per-row regime label column."""
        thresholds = self.meta.config.thresholds
        if labels is not None and len(labels) != self.n_samples:
            raise ContractError(
                f"got {len(labels)} labels for {self.n_samples} samples"
            )
        header = ["t", "date"] + [f"R_{r_label(r)}" for r in thresholds]
        blocks = [csv_fields(self.meta.sample_fields()),
                  format_g12(np.column_stack([self.ratios[r] for r in thresholds]))]
        if labels is not None:
            header.append("regime")
            blocks.append(csv_fields([(label,) for label in labels]))
        with open(path, "wb") as fh:
            fh.write(csv_line(header).encode())
            fh.write(csv_rows(*blocks))

    def meta_items(self) -> list[tuple[str, str]]:
        """Key-value pairs describing this run, for the metadata sidecar."""
        cfg = self.meta.config
        return [
            ("n_series", str(self.meta.n_series)),
            ("n_months", str(self.meta.n_months)),
            ("panel_start", str(self.meta.panel_start)),
            *band_items(self.meta.n_months, cfg.band),
            ("window", str(cfg.window)),
            ("thresholds", ",".join(map(r_label, cfg.thresholds))),
            ("detrend", str(cfg.detrend).lower()),
            ("trim", str(cfg.trim).lower()),
            ("amplitude_floor", format(AMPLITUDE_FLOOR, ".12g")),
            ("trim_offset", str(self.meta.trim_offset)),
            ("first_sample_t", str(self.t_of(0))),
            ("first_sample_date", str(self.meta.anchor)),
            ("n_pairs", str(self.n_pairs)),
            ("n_samples", str(self.n_samples)),
        ]


def band_items(n: int, band: FilterBand) -> list[tuple[str, str]]:
    """Metadata items of a band on a length-n panel: its cutoffs and the
    periods in months that bound it, exact and rounded half up."""
    shortest, longest = periods_of_band(n, band)
    return [
        ("band_lower", str(band.lower)),
        ("band_upper", str(band.upper)),
        ("shortest_period_months", format(shortest, ".12g")),
        ("longest_period_months", format(longest, ".12g")),
        ("shortest_period_rounded", str(round_half_up(shortest))),
        ("longest_period_rounded", str(round_half_up(longest))),
    ]


def write_metadata(path, items) -> None:
    """Plain-text sidecar, one `key = value` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in items:
            fh.write(f"{key} = {value}\n")


def gamma_csv_sink(fh, meta: ResultMeta):
    """Write the gamma2 CSV header (t,date,pair_i,pair_j,gamma2) to the
    binary file fh and return a score_pairs sink that writes the rows of
    each block it gets, a few thousand values at a time.

    Block rows are matched to the pairs of meta.ids in combinations order,
    the order score_pairs sends them in.
    """
    samples = csv_fields(meta.sample_fields())
    pairs = combinations(meta.ids, 2)
    step = max(1, FORMAT_CHUNK // meta.n_samples)
    fh.write(csv_line(["t", "date", "pair_i", "pair_j", "gamma2"]).encode())

    def write_block(block: np.ndarray) -> None:
        for start in range(0, len(block), step):
            rows = block[start:start + step]
            names = csv_fields(islice(pairs, len(rows)))
            fh.write(csv_rows(samples, names[:, None], format_g12(rows)[..., None, :]))

    return write_block


def filter_column(column: np.ndarray, band: FilterBand, detrend: bool) -> np.ndarray:
    """The series filter writes and sync phases: a contiguous copy of column
    (its floats do not depend on memory order), detrended if asked, band-passed."""
    x = np.ascontiguousarray(column)
    return bandpass(detrend_linear(x) if detrend else x, band)


def panel_phases(panel: Panel, config: PipelineConfig) -> np.ndarray:
    """The (members, months - 2 x trim offset) phases of a panel.

    Per series: filter_column, instantaneous phase, then the trim offset
    of ResultMeta.of is dropped from each end.

    Raises
    ------
    ContractError
        What ResultMeta.of raises.
    DegeneratePhaseError
        Some series' filtered amplitude collapses; message names it.
    """
    m = ResultMeta.of(panel, config).trim_offset
    phases = np.empty((len(panel), panel.n - 2 * m))
    for k, sid in enumerate(panel.ids):
        try:
            filtered = filter_column(panel.values[:, k], config.band, config.detrend)
            phases[k] = instantaneous_phase(filtered)[m:panel.n - m]
        except PhaseSyncError as exc:
            raise type(exc)(f"series '{sid}': {exc}") from exc
    return phases


def run_pipeline(panel: Panel, config: PipelineConfig, sink=None) -> SyncResult:
    """Run the full synchronization analysis over a panel.

    The panel's phases (panel_phases) are scored pair by pair with the
    windowed index (score_pairs); ratios count the fraction of pairs at
    or above each threshold (see lock_counts for the comparison). With a
    sink, each member's block of scores goes to sink in pair order and
    the result's gamma2 is None; without, the blocks fill gamma2. Raises
    what panel_phases raises.
    """
    meta = ResultMeta.of(panel, config)
    phases = panel_phases(panel, config)
    gamma2 = None
    if sink is None:
        gamma2 = np.empty((len(panel) * (len(panel) - 1) // 2, meta.n_samples))
        start = 0

        def sink(block: np.ndarray) -> None:
            nonlocal start
            gamma2[start:start + len(block)] = block
            start += len(block)

    ratios = score_pairs(phases, config.window, config.thresholds, sink)
    return SyncResult(gamma2=gamma2, ratios=dict(zip(config.thresholds, ratios)), meta=meta)


def ratio_above(gamma2: np.ndarray, r: float) -> np.ndarray:
    """Fraction of the rows of (pairs x samples) gamma2 at or above r, per sample.

    A pair counts when gamma2 >= r - RATIO_TOL, the rule of lock_counts.
    Raises ContractError for a value that is not finite or lies outside
    [0, 1], naming the first such (row, column).
    """
    gamma2 = np.asarray(gamma2, dtype=float)
    if gamma2.ndim != 2 or gamma2.shape[0] == 0:
        raise ContractError(
            f"need a 2-d (pairs x samples) array with at least one pair, "
            f"got shape {gamma2.shape}"
        )
    if not 0.0 <= r <= 1.0:
        raise ContractError(f"threshold must lie in [0, 1], got {r}")
    bad = ~((gamma2 >= 0.0) & (gamma2 <= 1.0))  # nan compares false
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ContractError(
            f"gamma2 must be finite and lie in [0, 1], got {gamma2[row, col]} "
            f"at (row {row}, column {col})"
        )
    return lock_counts(gamma2, r) / gamma2.shape[0]
