"""Panel-level orchestration: filter, analytic signal, all-pairs sync, ratios.

The pipeline runs per series (optional detrend, band-pass, analytic
signal), trims filter edge effects from the phases, then evaluates the
windowed synchronization index for every unordered pair and the fraction
of pairs at or above each threshold. Results carry explicit calendar
anchoring so downstream alignment cannot silently drift by a half-window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Mapping

import numpy as np

from .analytic import analytic_signal
from .errors import ContractError, PhaseSyncError
from .panel import (
    CsvRows,
    FilterBand,
    Month,
    Panel,
    RecessionCalendar,
    csv_line,
    periods_of_band,
    round_half_up,
)
from .spectral import bandpass, detrend_linear, trim_edges
from .sync import SyncSeries, pair_gamma2

RATIO_TOL = 1e-12  # a pair is locked at r when gamma2 >= r - RATIO_TOL


@dataclass(frozen=True)
class PipelineConfig:
    """Parameters of one full panel run.

    thresholds must be strictly increasing values in [0, 1]; window odd.
    amplitude_floor is relative to each series' peak amplitude (see
    analytic_signal).
    """

    band: FilterBand
    window: int
    thresholds: tuple[float, ...] = (0.7, 0.8)
    detrend: bool = True
    trim: bool = True
    amplitude_floor: float = 1e-12

    def __post_init__(self):
        if self.window != int(self.window) or self.window < 3 or self.window % 2 == 0:
            raise ContractError(f"window must be an odd integer >= 3, got {self.window}")
        thresholds = tuple(float(r) for r in self.thresholds)
        if not thresholds:
            raise ContractError("need at least one threshold")
        for r in thresholds:
            if not 0.0 <= r <= 1.0:
                raise ContractError(f"thresholds must lie in [0, 1], got {r}")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ContractError(f"thresholds must be strictly increasing, got {thresholds}")
        if self.amplitude_floor < 0:
            raise ContractError("amplitude_floor must be non-negative")
        object.__setattr__(self, "thresholds", thresholds)

    def validate_for(self, n: int) -> None:
        """Check the config against a panel length before running."""
        self.band.validate_for(n)
        usable = n
        if self.trim:
            usable = n - 2 * round_half_up(n / self.band.upper)
        if usable < self.window:
            raise ContractError(
                f"window {self.window} does not fit the {usable} months left "
                f"after trimming a {n}-month panel for band "
                f"({self.band.lower}, {self.band.upper})"
            )


@dataclass(frozen=True)
class ResultMeta:
    """Provenance and alignment for one pipeline run."""

    config: PipelineConfig
    n_series: int
    n_months: int
    panel_start: Month
    trim_offset: int
    anchor: Month  # calendar month of the first windowed index sample


@dataclass(frozen=True)
class SyncResult:
    """All-pairs synchronization output.

    pairs lists (id_i, id_j), i before j in panel order; row k of the
    read-only (pairs x samples) array gamma2 is pair k's windowed index.
    ratios maps each threshold r to the R_t sequence.
    """

    pairs: tuple[tuple[str, str], ...]
    gamma2: np.ndarray
    ratios: dict[float, np.ndarray]
    meta: ResultMeta

    def __post_init__(self):
        self.gamma2.flags.writeable = False

    @cached_property
    def pair_gamma(self) -> dict[tuple[str, str], SyncSeries]:
        """Each pair's SyncSeries, viewing its row of gamma2."""
        return {pair: SyncSeries(gamma2=row, window=self.window)
                for pair, row in zip(self.pairs, self.gamma2)}

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    @property
    def n_samples(self) -> int:
        return self.gamma2.shape[1]

    @property
    def window(self) -> int:
        return self.meta.config.window

    def t_of(self, idx: int) -> int:
        """1-indexed centered position of sample idx in the trimmed series."""
        return (self.window - 1) // 2 + 1 + idx

    def month_of(self, idx: int) -> Month:
        """Calendar month at which sample idx is centered."""
        return self.meta.anchor + idx

    def _sample_fields(self) -> list[tuple[str, str]]:
        """(t, date) of every sample, the leading fields of each CSV row."""
        return [(str(self.t_of(idx)), str(self.month_of(idx)))
                for idx in range(self.n_samples)]

    def write_gamma_csv(self, path) -> None:
        """Long format: t,date,pair_i,pair_j,gamma2."""
        rows = CsvRows(self._sample_fields())
        with open(path, "w", newline="") as fh:
            fh.write(csv_line(["t", "date", "pair_i", "pair_j", "gamma2"]))
            for pair, row in zip(self.pairs, self.gamma2):
                fh.write(rows.text(pair, row))

    def write_ratio_long_csv(self, path) -> None:
        """Long format: t,date,r,R."""
        rows = CsvRows(self._sample_fields())
        with open(path, "w", newline="") as fh:
            fh.write(csv_line(["t", "date", "r", "R"]))
            for r in self.meta.config.thresholds:
                fh.write(rows.text((format(r, "g"),), self.ratios[r]))

    def write_ratio_wide_csv(self, path, labels: tuple[str, ...] | None = None) -> None:
        """One R column per threshold; optional per-row regime label column."""
        thresholds = self.meta.config.thresholds
        if labels is not None and len(labels) != self.n_samples:
            raise ContractError(
                f"got {len(labels)} labels for {self.n_samples} samples"
            )
        header = ["t", "date"] + [f"R_{format(r, 'g')}" for r in thresholds]
        if labels is not None:
            header.append("regime")
        with open(path, "w", newline="") as fh:
            fh.write(csv_line(header))
            for idx, fields in enumerate(self._sample_fields()):
                row = list(fields) + [format(self.ratios[r][idx], ".12g") for r in thresholds]
                if labels is not None:
                    row.append(labels[idx])
                fh.write(csv_line(row))

    def meta_items(self) -> list[tuple[str, str]]:
        """Key-value pairs describing this run, for the metadata sidecar."""
        cfg = self.meta.config
        shortest, longest = periods_of_band(self.meta.n_months, cfg.band)
        return [
            ("n_series", str(self.meta.n_series)),
            ("n_months", str(self.meta.n_months)),
            ("panel_start", str(self.meta.panel_start)),
            ("band_lower", str(cfg.band.lower)),
            ("band_upper", str(cfg.band.upper)),
            ("shortest_period_months", format(shortest, ".12g")),
            ("longest_period_months", format(longest, ".12g")),
            ("window", str(cfg.window)),
            ("thresholds", ",".join(format(r, "g") for r in cfg.thresholds)),
            ("detrend", str(cfg.detrend).lower()),
            ("trim", str(cfg.trim).lower()),
            ("amplitude_floor", format(cfg.amplitude_floor, ".12g")),
            ("trim_offset", str(self.meta.trim_offset)),
            ("first_sample_t", str(self.t_of(0))),
            ("first_sample_date", str(self.meta.anchor)),
            ("n_pairs", str(self.n_pairs)),
            ("n_samples", str(self.n_samples)),
        ]


def write_metadata(path, items) -> None:
    """Plain-text sidecar, one `key = value` per line."""
    with open(path, "w") as fh:
        for key, value in items:
            fh.write(f"{key} = {value}\n")


def run_pipeline(panel: Panel, config: PipelineConfig) -> SyncResult:
    """Run the full synchronization analysis over a panel.

    Per series: optional linear detrend, band-pass, analytic signal. The
    phases are then edge-trimmed (when config.trim) and every unordered
    pair's phase difference is scored with the windowed index; ratios
    count the fraction of pairs at or above each threshold (see
    ratio_above for the comparison).

    Raises
    ------
    ContractError
        Config unfit for the panel, or fewer than 2 series.
    DegeneratePhaseError
        Some series' filtered amplitude collapses; message names it.
    """
    if len(panel) < 2:
        raise ContractError(
            f"need >= 2 series for pairwise synchronization, got {len(panel)}"
        )
    config.validate_for(panel.n)

    phases, trim_offset = [], 0
    for member in panel:
        try:
            x = member.values
            if config.detrend:
                x = detrend_linear(x)
            filtered = bandpass(x, config.band)
            phi = analytic_signal(filtered, config.amplitude_floor).phase
        except PhaseSyncError as exc:
            raise type(exc)(f"series '{member.id}': {exc}") from exc
        if config.trim:
            phi, trim_offset = trim_edges(phi, config.band)
        phases.append(phi)

    gamma2 = pair_gamma2(np.vstack(phases), config.window)

    half_width = (config.window - 1) // 2
    meta = ResultMeta(
        config=config,
        n_series=len(panel),
        n_months=panel.n,
        panel_start=panel.start,
        trim_offset=trim_offset,
        anchor=panel.start + trim_offset + half_width,
    )
    return SyncResult(pairs=tuple(combinations(panel.ids, 2)), gamma2=gamma2,
                      ratios=_ratios(gamma2, config.thresholds), meta=meta)


def ratio_above(pair_gamma, r: float) -> np.ndarray:
    """Fraction of pair series at or above r at each time point.

    pair_gamma is a mapping or iterable of SyncSeries sharing one window
    and length. A pair counts when gamma2 >= r - RATIO_TOL (1e-12), so an
    exactly locked pair, whose gamma2 rounds to just below 1, counts at r = 1.
    """
    if isinstance(pair_gamma, Mapping):
        series_list = list(pair_gamma.values())
    else:
        series_list = list(pair_gamma)
    if not series_list:
        raise ContractError("no pair series given")
    if not 0.0 <= r <= 1.0:
        raise ContractError(f"threshold must lie in [0, 1], got {r}")
    first = series_list[0]
    for series in series_list[1:]:
        if series.window != first.window or len(series) != len(first):
            raise ContractError(
                "pair series are misaligned: expected window "
                f"{first.window} and length {len(first)}, got "
                f"window {series.window} and length {len(series)}"
            )
    return _ratios(np.vstack([series.gamma2 for series in series_list]), (r,))[r]


def _ratios(gamma2: np.ndarray, thresholds) -> dict[float, np.ndarray]:
    """Fraction of the rows of (pairs x samples) gamma2 locked at each threshold r."""
    return {r: (gamma2 >= r - RATIO_TOL).mean(axis=0) for r in thresholds}


def normalize_di(series) -> np.ndarray:
    """Map a 0..100 diffusion-style index to [-1, 1] via (x - 50)/50."""
    x = np.asarray(series, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ContractError("non-finite value in input")
    bad = np.flatnonzero((x < 0.0) | (x > 100.0))
    if bad.size:
        t = int(bad[0])
        raise ContractError(f"value {x[t]} at index {t} outside [0, 100]")
    return (x - 50.0) / 50.0


@dataclass(frozen=True)
class RegimeAnnotation:
    """Per-sample regime labels plus regime-mean ratios."""

    months: tuple[Month, ...]
    labels: tuple[str, ...]
    regime_means: dict[float, dict[str, float]]

    def rows(self):
        for idx, (month, label) in enumerate(zip(self.months, self.labels)):
            yield idx, month, label


def annotate_recessions(result: SyncResult, calendar: RecessionCalendar) -> RegimeAnnotation:
    """Label every result sample contraction or expansion.

    A month is a contraction when some episode has peak < month <= trough
    (the peak month is the last expansion month, the trough month the last
    contraction month). Also aggregates mean R_t per regime for each
    threshold. Raises ContractError when the calendar and the result do
    not overlap at all.
    """
    months = tuple(result.month_of(idx) for idx in range(result.n_samples))
    if not calendar.overlaps(months[0], months[-1]):
        raise ContractError(
            f"calendar episodes are disjoint from the result range "
            f"{months[0]}..{months[-1]}"
        )
    labels = tuple(
        "contraction" if calendar.is_contraction(m) else "expansion"
        for m in months
    )
    mask = np.array([label == "contraction" for label in labels])
    regime_means: dict[float, dict[str, float]] = {}
    for r, ratio in result.ratios.items():
        means: dict[str, float] = {}
        if mask.any():
            means["contraction"] = float(ratio[mask].mean())
        if (~mask).any():
            means["expansion"] = float(ratio[~mask].mean())
        regime_means[r] = means
    return RegimeAnnotation(months=months, labels=labels, regime_means=regime_means)
