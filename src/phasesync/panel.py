"""Core data containers for monthly panels and frequency bands.

Everything here is immutable after construction.
"""

from __future__ import annotations

import csv
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, IngestionError

_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})")


def round_half_up(x: float) -> int:
    """Round to the nearest integer, ties upward (round(28.5) = 29)."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True, order=True)
class Month:
    """A calendar month at month granularity (no day component)."""

    year: int
    month: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise ContractError(f"month must be in 1..12, got {self.month}")

    @classmethod
    def parse(cls, text: str) -> "Month":
        """Parse 'YYYY-MM'."""
        m = _MONTH_RE.fullmatch(text)
        if m is None:
            raise ContractError(f"expected YYYY-MM date, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"

    def __add__(self, months: int) -> "Month":
        idx = self.year * 12 + (self.month - 1) + months
        return Month(idx // 12, idx % 12 + 1)

    def __sub__(self, other: "Month") -> int:
        """Number of months from `other` to `self`."""
        return (self.year - other.year) * 12 + (self.month - other.month)


def _freeze(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """One named monthly series.

    Parameters
    ----------
    id : str
        Unique member identifier within a panel.
    start : Month
        Calendar month of the first sample.
    values : array_like
        Finite floats, length >= 2. Stored read-only.
    """

    id: str
    start: Month
    values: np.ndarray

    def __post_init__(self):
        arr = _freeze(self.values)
        if arr.ndim != 1 or arr.size < 2:
            raise ContractError(
                f"series '{self.id}': need a 1-d sequence of length >= 2, "
                f"got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ContractError(f"series '{self.id}': non-finite value at index {bad}")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    def month_at(self, i: int) -> Month:
        return self.start + i


@dataclass(frozen=True)
class Panel:
    """A collection of series sharing one calendar (same start, same length)."""

    series: tuple[TimeSeries, ...]

    def __post_init__(self):
        members = tuple(self.series)
        if not members:
            raise ContractError("panel needs at least one series")
        dup = first_repeated([s.id for s in members])
        if dup is not None:
            raise ContractError(f"duplicate series id '{dup}'")
        first = members[0]
        for s in members[1:]:
            if s.start != first.start:
                raise ContractError(
                    f"series '{s.id}' starts {s.start}, expected {first.start}"
                )
            if s.n != first.n:
                raise ContractError(
                    f"series '{s.id}' has length {s.n}, expected {first.n}"
                )
        object.__setattr__(self, "series", members)

    @property
    def n(self) -> int:
        return self.series[0].n

    @property
    def start(self) -> Month:
        return self.series[0].start

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.series)

    def __len__(self) -> int:
        return len(self.series)

    def __iter__(self):
        return iter(self.series)

    def member(self, sid: str) -> TimeSeries:
        for s in self.series:
            if s.id == sid:
                return s
        raise KeyError(sid)

    def month_at(self, i: int) -> Month:
        return self.start + i


@dataclass(frozen=True)
class FilterBand:
    """Inclusive range [lower, upper] of Fourier mode indices (cycles per record)."""

    lower: int
    upper: int

    def __post_init__(self):
        if self.lower != int(self.lower) or self.upper != int(self.upper):
            raise ContractError("band cutoffs must be integers")
        if not 1 <= self.lower <= self.upper:
            raise ContractError(
                f"need 1 <= lower <= upper, got ({self.lower}, {self.upper})"
            )

    def validate_for(self, n: int) -> None:
        """Raise unless the band fits a length-n record."""
        if self.upper > n // 2:
            raise ContractError(
                f"band ({self.lower}, {self.upper}) invalid for length {n}: "
                f"need upper <= floor(N/2) = {n // 2}"
            )


def periods_of_band(n: int, band: FilterBand) -> tuple[float, float]:
    """Periods (in months) bounding the band: (shortest, longest) = (N/upper, N/lower)."""
    band.validate_for(n)
    return n / band.upper, n / band.lower


def band_from_periods(n: int, longest: float, shortest: float) -> FilterBand:
    """Derive mode cutoffs from period bounds.

    Inverse of :func:`periods_of_band` up to rounding: cutoffs are
    round-half-up of N/period, clamped to [1, floor(N/2)].
    """
    if not 2 <= shortest <= longest <= n:
        raise ContractError(
            f"need 2 <= shortest <= longest <= N, got "
            f"shortest={shortest}, longest={longest}, N={n}"
        )
    half = n // 2
    lower = min(max(round_half_up(n / longest), 1), half)
    upper = min(max(round_half_up(n / shortest), 1), half)
    if lower > upper:
        raise ContractError(
            f"periods ({longest}, {shortest}) collapse to an empty band for N={n}"
        )
    return FilterBand(lower, upper)


@dataclass(frozen=True)
class RecessionCalendar:
    """Ordered, non-overlapping (peak, trough) reference-date episodes.

    The contraction spans the months after the peak up to and including the
    trough: the peak month itself is the last expansion month.
    """

    episodes: tuple[tuple[Month, Month], ...]

    def __post_init__(self):
        eps = tuple((p, t) for p, t in self.episodes)
        prev_trough = None
        for p, t in eps:
            if not p < t:
                raise ContractError(f"episode peak {p} must precede trough {t}")
            if prev_trough is not None and p < prev_trough:
                raise ContractError(
                    f"episode starting {p} overlaps previous trough {prev_trough}"
                )
            prev_trough = t
        object.__setattr__(self, "episodes", eps)

    def contraction_mask(self, first: Month, count: int) -> np.ndarray:
        """Whether each of the count months from first is a contraction
        month, one with peak < month <= trough for some episode."""
        mask = np.zeros(count, dtype=bool)
        for p, t in self.episodes:
            mask[max(p + 1 - first, 0):max(t + 1 - first, 0)] = True
        return mask


# panel rows per block when a panel CSV is read or written: on a 150-member
# panel one block's strings, floats and text take well under 1 MB, never a
# copy of the whole file
_PANEL_BLOCK_ROWS = 64


def load_panel_csv(path) -> Panel:
    """Read a panel from CSV with header ``date,<id1>,<id2>,...``.

    Dates must be YYYY-MM and strictly consecutive months. Every cell must
    be a finite number. Errors name the offending row (1-based, header =
    row 1) and column. Problems with a row's shape (its cell count or its
    date) are reported before any bad cell value, whichever row holds it;
    among bad cells, the first in file order is reported.

    The file is read in one pass: each row's shape is checked as it
    arrives, and the cells are converted in blocks of _PANEL_BLOCK_ROWS
    rows, so only one block is ever held as strings. Each converted block
    is split into one piece per member and dropped; each series is then
    built from its member's pieces, which are dropped in turn, so about
    one copy of the panel's floats is held at a time.
    """
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            raise IngestionError(f"{path}: empty file")
        if not header or header[0] != "date":
            raise IngestionError(f"{path}: row 1: header must start with 'date'")
        ids = header[1:]
        if not ids:
            raise IngestionError(f"{path}: row 1: no series columns after 'date'")
        dup = first_repeated(ids)
        for sid in ids:
            if sid == dup:
                raise IngestionError(f"{path}: row 1: duplicate column id '{sid}'")
            if not sid:
                raise IngestionError(f"{path}: row 1: blank column id")

        first = prev = None
        count = 0
        pieces: list[list[np.ndarray]] = [[] for _ in ids]  # per member, each block's floats
        block: list[list[str]] = []  # cells of the rows not yet converted
        bad = None  # error for the first bad cell; raised after the shape checks
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise IngestionError(
                    f"{path}: row {rownum}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                m = Month.parse(row[0])
            except ContractError as exc:
                raise IngestionError(f"{path}: row {rownum}: {exc}") from exc
            if prev is None:
                first = m
            elif m - prev != 1:
                raise IngestionError(
                    f"{path}: row {rownum}: non-consecutive calendar months "
                    f"({prev} followed by {m})"
                )
            prev = m
            count += 1
            if bad is None:
                block.append(row[1:])
                if len(block) == _PANEL_BLOCK_ROWS:
                    bad = _convert_block(path, ids, block, rownum - len(block) + 1, pieces)
                    block = []
    if count < 2:
        raise IngestionError(f"{path}: need at least 2 data rows, got {count}")
    if bad is None and block:
        bad = _convert_block(path, ids, block, count + 2 - len(block), pieces)
    del block  # the last block's strings
    if bad is not None:
        raise bad

    try:
        series = []
        for sid, member_pieces in zip(ids, pieces):
            series.append(TimeSeries(sid, first, np.concatenate(member_pieces)))
            member_pieces.clear()  # the series holds its own copy
        return Panel(tuple(series))
    except ContractError as exc:
        raise IngestionError(f"{path}: {exc}") from exc


@contextmanager
def _csv_reader(path):
    """A csv.reader over the UTF-8 file at path. A field over csv's size limit
    and a line that is not UTF-8 raise IngestionError naming the line."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise IngestionError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            # text is decoded in chunks, so find the line by rescanning the bytes
            raise _not_utf8(path) from exc


def _not_utf8(path) -> IngestionError:
    """The error for the first line of the file that is not valid UTF-8."""
    with open(path, "rb") as fh:
        for linenum, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                byte = line[exc.start:exc.start + 1].hex()
                return IngestionError(
                    f"{path}: line {linenum}: not UTF-8 text ({exc.reason}: 0x{byte})"
                )
    raise AssertionError("the file failed to decode, yet every line is UTF-8")


def _convert_block(path, ids, cells, first_row, pieces) -> IngestionError | None:
    """Append each member's floats of `cells` to its list in `pieces`, or
    return the error for the first bad cell; `first_row` is the file row of
    its first row."""
    try:
        values = np.array(cells, dtype=float)  # float() of each cell
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        return _bad_cell(path, ids, cells, first_row)
    for member_pieces, column in zip(pieces, values.T):
        member_pieces.append(column.copy())  # a copy, so the block can be dropped
    return None


def _bad_cell(path, ids, cells, first_row) -> IngestionError:
    """The error for the first missing, non-numeric or non-finite cell in file order."""
    for rownum, row in enumerate(cells, start=first_row):
        for sid, cell in zip(ids, row):
            try:
                if math.isfinite(float(cell)):
                    continue
                problem = f"non-finite value {cell!r}"
            except ValueError:
                problem = f"non-numeric value {cell!r}" if cell.strip() else "missing value"
            return IngestionError(f"{path}: row {rownum}, column '{sid}': {problem}")
    raise AssertionError("no bad cell, yet the cells did not convert to finite floats")


def first_repeated(items):
    """The first item, in order, that occurs more than once in `items`, or None."""
    seen, repeated = set(), set()
    for item in items:
        (repeated if item in seen else seen).add(item)
    return next((item for item in items if item in repeated), None)


def csv_field(text: str) -> str:
    """`text` as one CSV field, quoted exactly where csv.writer's default
    dialect quotes it (QUOTE_MINIMAL: on a comma, quote or line break)."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_line(fields) -> str:
    """One CSV row of two or more string fields, as csv.writer.writerow writes it."""
    return ",".join(map(csv_field, fields)) + "\r\n"


class CsvRows:
    """Formats blocks of CSV rows that share their leading fields.

    Row i of a block is leads[i], then the block's own fields, then the
    floats of row i of the block's values at 12 significant digits. The
    bytes equal csv.writer's rows of ``format(v, ".12g")`` strings, but a
    block is one ``%``-template, so all of its floats are formatted in one
    C-level call instead of one writerow and one format() per row.
    """

    def __init__(self, leads):
        self._leads = [_template_fields(fields) for fields in leads]

    def text(self, fields, values: np.ndarray) -> str:
        """Rows for one block: values has one row per lead (1-d: one float each)."""
        width = 1 if values.ndim == 1 else values.shape[1]
        tail = _template_fields(fields) + ",".join(["%.12g"] * width) + "\r\n"
        return (tail.join(self._leads) + tail) % tuple(values.ravel().tolist())


def _template_fields(fields) -> str:
    """Quoted fields, each followed by a comma, with % escaped for a %-template."""
    return "".join(csv_field(f).replace("%", "%%") + "," for f in fields)


def write_panel_csv(panel: Panel, path) -> None:
    """Write a panel in the format load_panel_csv reads, 12 significant digits.

    Rows are written in blocks of _PANEL_BLOCK_ROWS: only the current
    block's floats are stacked into rows and formatted, never the panel's.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_line(["date", *panel.ids]))
        for start in range(0, panel.n, _PANEL_BLOCK_ROWS):
            stop = min(start + _PANEL_BLOCK_ROWS, panel.n)
            dates = [(str(panel.month_at(i)),) for i in range(start, stop)]
            values = np.array([s.values[start:stop] for s in panel.series])
            fh.write(CsvRows(dates).text((), values.T))


def load_recession_csv(path) -> RecessionCalendar:
    """Read reference dates from CSV with header ``peak,trough`` and YYYY-MM values."""
    with _csv_reader(path) as reader:
        rows = list(reader)
    if not rows or rows[0] != ["peak", "trough"]:
        raise IngestionError(f"{path}: header must be exactly 'peak,trough'")
    episodes = []
    for rownum, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise IngestionError(f"{path}: row {rownum}: expected 2 cells, got {len(row)}")
        try:
            episodes.append((Month.parse(row[0]), Month.parse(row[1])))
        except ContractError as exc:
            raise IngestionError(f"{path}: row {rownum}: {exc}") from exc
    try:
        return RecessionCalendar(tuple(episodes))
    except ContractError as exc:
        raise IngestionError(f"{path}: {exc}") from exc
