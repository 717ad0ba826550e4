"""Panel-level orchestration: filter, phase, all-pairs sync, ratios.

The pipeline runs per series (optional detrend, band-pass, instantaneous
phase) and trims filter edge effects from the phases (panel_phases),
then evaluates the windowed synchronization index for every unordered
pair and the fraction of pairs at or above each threshold (score_pairs).
Results carry explicit calendar anchoring so downstream alignment cannot
silently drift by a half-window.
"""

from __future__ import annotations

import errno
import os
import shutil
import tempfile
from dataclasses import dataclass
from itertools import combinations, islice
from pathlib import Path

import numpy as np

from .csvtext import FORMAT_CHUNK, csv_fields, csv_joined, csv_long_rows, csv_rows, format_g12
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

    thresholds must be strictly increasing values in [0, 1]; window odd;
    detrend and trim bools.
    """

    band: FilterBand
    window: int
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    detrend: bool = True
    trim: bool = True

    def __post_init__(self):
        object.__setattr__(self, "window", check_window(self.window))
        object.__setattr__(self, "thresholds", check_thresholds(self.thresholds))
        for name in ("detrend", "trim"):
            if not isinstance(value := getattr(self, name), (bool, np.bool_)):
                raise ContractError(f"{name} must be a bool, got {value!r}")
            object.__setattr__(self, name, bool(value))


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
        Raises ContractError for < 2 series, a band or window that does not
        fit, or a band of the Nyquist mode alone, whose phase is 0 or -pi."""
        if len(panel) < 2:
            raise ContractError(
                f"need >= 2 series for pairwise synchronization, got {len(panel)}"
            )
        n, band = panel.n, config.band
        shortest, _ = periods_of_band(n, band)
        if 2 * band.lower == n:
            raise ContractError(f"band ({band.lower}, {band.upper}) holds only the Nyquist "
                                f"mode of a {n}-month panel, whose phase is 0 or -pi")
        trim_offset = round_half_up(shortest) if config.trim else 0
        usable = max(0, n - 2 * trim_offset)
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
    def pairs(self) -> tuple[tuple[str, str], ...]:
        """(id_i, id_j) of every pair, i before j in panel order: the order
        of combinations(ids, 2), in which score_pairs sends the scores."""
        return tuple(combinations(self.ids, 2))

    @property
    def n_pairs(self) -> int:
        return self.n_series * (self.n_series - 1) // 2

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

    def regimes(self, calendar: RecessionCalendar) -> list[tuple[str, np.ndarray]]:
        """(name, mask over the samples) of each regime some sample month is in:
        contraction, the months RecessionCalendar.contraction_mask marks, then
        expansion, the rest. Raises ContractError when no sample month is a
        contraction month."""
        mask = calendar.contraction_mask(self.anchor, self.n_samples)
        if not mask.any():
            raise ContractError(
                f"calendar episodes are disjoint from the result range "
                f"{self.anchor}..{self.month_of(self.n_samples - 1)}"
            )
        return [(name, m) for name, m in (("contraction", mask), ("expansion", ~mask)) if m.any()]

    def sample_fields(self) -> list[tuple[str, str]]:
        """(t, date) of every sample, the leading fields of each CSV row."""
        return list(zip(map(str, range(self.t_of(0), self.t_of(self.n_samples))),
                        month_labels(self.anchor, self.n_samples)))

    def items(self) -> list[tuple[str, str]]:
        """Key-value pairs describing this run, for the metadata sidecar."""
        cfg = self.config
        return [
            ("n_series", str(self.n_series)),
            ("n_months", str(self.n_months)),
            ("panel_start", str(self.panel_start)),
            *band_items(self.n_months, cfg.band),
            ("window", str(cfg.window)),
            ("thresholds", ",".join(map(r_label, cfg.thresholds))),
            ("detrend", str(cfg.detrend).lower()),
            ("trim", str(cfg.trim).lower()),
            ("amplitude_floor", format(AMPLITUDE_FLOOR, ".12g")),
            ("trim_offset", str(self.trim_offset)),
            ("first_sample_t", str(self.t_of(0))),
            ("first_sample_date", str(self.anchor)),
            ("n_pairs", str(self.n_pairs)),
            ("n_samples", str(self.n_samples)),
        ]


@dataclass(frozen=True)
class SyncResult:
    """All-pairs synchronization output.

    n_pairs and n_samples are meta's. Row k of the read-only (pairs x
    samples) array gamma2 is the windowed index of pair meta.pairs[k];
    gamma2 is None when run_pipeline was given a sink, which got the
    scores instead. Row k of the read-only (thresholds x samples) array
    ratios is R_t at meta.config.thresholds[k].
    """

    gamma2: np.ndarray | None
    ratios: np.ndarray
    meta: ResultMeta

    def __post_init__(self):
        self.ratios.flags.writeable = False
        if self.gamma2 is not None:
            self.gamma2.flags.writeable = False

    @property
    def n_pairs(self) -> int:
        return self.meta.n_pairs

    @property
    def n_samples(self) -> int:
        return self.meta.n_samples


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


def metadata_lines(items) -> list[str]:
    """The sidecar's lines, one `key = value` per item. A key or value with a line
    break str.splitlines() sees would forge lines, and one that is not UTF-8 text (a
    path of other bytes) cannot be written: either raises ContractError naming the key."""
    lines = []
    for key, value in items:
        line = f"{key} = {value}"
        if line.splitlines() != [line]:
            raise ContractError(f"metadata {key!r}: a key or value holds a line break")
        if line.encode("utf-8", "replace").decode("utf-8") != line:  # a lone surrogate
            raise ContractError(f"metadata {key!r}: a key or value is not UTF-8 text")
        lines.append(line)
    return lines


def write_metadata(path, items) -> None:
    """UTF-8 sidecar of metadata_lines(items), which raise before any write."""
    lines = metadata_lines(items)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


class StagedOutputs:
    """One command's outputs, none of which may be an input.

    Entered, it makes out_dir and a fresh stage directory in it, where
    target(name) puts output name; publish() moves the outputs into out_dir,
    and leaving removes the stage. So a run that fails leaves out_dir as it was.
    """

    def __init__(self, out_dir, inputs):
        self.out_dir = Path(out_dir)
        self.inputs = [Path(p) for p in inputs]  # files no output may replace or remove
        self.names: list[str] = []

    def __enter__(self) -> StagedOutputs:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.stage = Path(tempfile.mkdtemp(prefix=".phasesync-", dir=self.out_dir))
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.stage)

    def target(self, name: str) -> Path:
        """The staged path of output name; metadata.txt is the last output named."""
        self.names.append(name)
        return self.stage / name

    def outputs_item(self) -> tuple[str, str]:
        """metadata.txt's outputs item: the sorted names of the outputs so far."""
        return "outputs", ",".join(sorted(self.names))

    def input_at(self, path: Path) -> Path | None:
        """The input that path is the same file as, if any."""
        for source in self.inputs:
            if path.exists() and source.exists() and path.samefile(source):
                return source
        return None

    def publish(self) -> None:
        """Move the outputs into out_dir, metadata.txt last. First a destination
        that is an input or a directory raises. Then, with a metadata.txt among
        the outputs, the earlier metadata.txt is removed, and each file or link
        its outputs item names, unless the name is not a plain file name or the
        file is an input."""
        for name in self.names:
            path = self.out_dir / name
            source = self.input_at(path)
            if source is not None:
                raise ContractError(f"output {path} is the input {source}: choose another --out")
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if "metadata.txt" in self.names:
            earlier = self.out_dir / "metadata.txt"
            lines = earlier.read_text("utf-8", "replace").splitlines() if earlier.is_file() else []
            earlier.unlink(missing_ok=True)
            names = []
            for line in lines:
                key, _, value = line.partition(" = ")
                if key == "outputs":
                    names = value.split(",")
            for name in names:
                path = self.out_dir / name
                if (name not in ("", ".", "..") and "/" not in name
                        and (path.is_symlink() or path.is_file()) and not self.input_at(path)):
                    path.unlink()
        for name in self.names:
            (self.stage / name).replace(self.out_dir / name)


def sample_rows(fh, meta: ResultMeta, header) -> np.ndarray:
    """Write the CSV header t,date,*header to the binary file fh and return
    the csv_fields of meta's samples' (t, date), which lead every row."""
    fh.write(csv_rows(csv_fields([["t", "date", *header]])))
    return csv_fields(meta.sample_fields())


def long_table_sink(fh, meta: ResultMeta, header, keys):
    """Write the CSV header t,date,*header to the binary file fh and return a sink
    that writes each (rows x samples) block it gets, a few thousand values at a time:
    each block row, led by the fields of the next of keys, is one CSV row per sample."""
    lead = csv_joined(sample_rows(fh, meta, header))
    keys = iter(keys)
    step = max(1, FORMAT_CHUNK // meta.n_samples)

    def write_block(block: np.ndarray) -> None:
        for start in range(0, len(block), step):
            chunk = block[start:start + step]
            names = csv_joined(csv_fields(islice(keys, len(chunk))))
            fh.write(csv_long_rows(lead, names, format_g12(chunk)))

    return write_block


def gamma_csv_sink(fh, meta: ResultMeta):
    """The gamma2 CSV's score_pairs sink: rows t,date,pair_i,pair_j,gamma2 of meta.pairs."""
    return long_table_sink(fh, meta, ["pair_i", "pair_j", "gamma2"], meta.pairs)


def write_ratio_csv(path, meta: ResultMeta, ratios: np.ndarray, regimes=()) -> None:
    """Wide format: one R_<r> column per threshold of meta, from the rows of
    the (thresholds x samples) ratios; given meta.regimes(calendar), a regime
    column naming the regime of each sample."""
    header = [f"R_{r_label(r)}" for r in meta.config.thresholds]
    blocks = [format_g12(ratios.T)]
    if regimes:
        names, masks = zip(*regimes)
        header.append("regime")
        # the masks cover each sample once, so argmax finds its regime
        blocks.append(csv_fields([(name,) for name in names])[np.argmax(masks, axis=0)])
    with open(path, "wb") as fh:
        fh.write(csv_rows(sample_rows(fh, meta, header), *blocks))


def write_ratio_long_csv(path, meta: ResultMeta, ratios: np.ndarray) -> None:
    """Long format, t,date,r,R: every sample at one threshold, then the next."""
    with open(path, "wb") as fh:
        labels = [(r_label(r),) for r in meta.config.thresholds]
        long_table_sink(fh, meta, ["r", "R"], labels)(ratios)


def filter_column(column: np.ndarray, band: FilterBand, detrend: bool) -> np.ndarray:
    """The series filter writes and sync phases: a contiguous copy of column
    (its floats do not depend on memory order), detrended if asked, band-passed."""
    x = np.ascontiguousarray(column)
    return bandpass(detrend_linear(x) if detrend else x, band)


def panel_phases(panel: Panel, meta: ResultMeta) -> np.ndarray:
    """The (members, months - 2 x trim offset) phases of the run that
    meta = ResultMeta.of(panel, config) describes.

    Per series: filter_column, instantaneous phase, then meta's trim
    offset is dropped from each end. Raises DegeneratePhaseError, naming
    the series, where some series' filtered amplitude collapses.
    """
    config, m = meta.config, meta.trim_offset
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
    what ResultMeta.of and panel_phases raise.
    """
    meta = ResultMeta.of(panel, config)
    phases = panel_phases(panel, meta)
    gamma2 = None
    if sink is None:
        gamma2 = np.empty((meta.n_pairs, meta.n_samples))
        start = 0

        def sink(block: np.ndarray) -> None:
            nonlocal start
            gamma2[start:start + len(block)] = block
            start += len(block)

    ratios = score_pairs(phases, config.window, config.thresholds, sink)
    return SyncResult(gamma2=gamma2, ratios=ratios, meta=meta)


def ratio_above(gamma2: np.ndarray, r: float) -> np.ndarray:
    """Fraction of the rows of (pairs x samples) gamma2 at or above r, per sample.

    A pair counts when gamma2 >= r - RATIO_TOL, the rule of lock_counts.
    Raises ContractError for an r check_thresholds refuses, and for a value
    that is not finite or lies outside [0, 1], naming the first (row, column)."""
    gamma2 = np.asarray(gamma2, dtype=float)
    if gamma2.ndim != 2 or gamma2.shape[0] == 0:
        raise ContractError(
            f"need a 2-d (pairs x samples) array with at least one pair, "
            f"got shape {gamma2.shape}"
        )
    (r,) = check_thresholds((r,))
    bad = ~((gamma2 >= 0.0) & (gamma2 <= 1.0))  # nan compares false
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ContractError(
            f"gamma2 must be finite and lie in [0, 1], got {gamma2[row, col]} "
            f"at (row {row}, column {col})"
        )
    return lock_counts(gamma2, r) / gamma2.shape[0]
