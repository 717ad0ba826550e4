"""Core data containers for monthly panels and frequency bands.

Everything here is immutable after construction.
"""

from __future__ import annotations

import csv
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .csvtext import FORMAT_CHUNK, csv_fields, csv_line, csv_rows, format_g12
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


def _month_labels(first: Month, count: int) -> list[str]:
    """str() of each of the count months from first, built without Month objects."""
    start = first.year * 12 + first.month - 1
    return [f"{k // 12:04d}-{k % 12 + 1:02d}" for k in range(start, start + count)]


@dataclass(frozen=True, eq=False)
class Panel:
    """Monthly series of several members on one calendar.

    values[t, k] is member ids[k] in month start + t: a (months, members)
    array, the layout of the panel CSV, of finite floats over at least 2
    months. A float64 array is kept as given, not copied, and made
    read-only; any other input is converted to one once.
    """

    ids: tuple[str, ...]
    start: Month
    values: np.ndarray

    def __post_init__(self):
        ids = tuple(self.ids)
        if not ids:
            raise ContractError("panel needs at least one series")
        dup = first_repeated(ids)
        if dup is not None:
            raise ContractError(f"duplicate series id '{dup}'")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] != len(ids):
            raise ContractError(
                f"need a (months >= 2, {len(ids)} members) array of values, "
                f"got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            k, t = np.argwhere(~np.isfinite(values.T))[0]  # member by member
            raise ContractError(f"series '{ids[k]}': non-finite value at index {t}")
        values.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __len__(self) -> int:
        return len(self.ids)

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


# panel rows per block when the csv path converts a panel CSV's cells: on a
# 150-member panel one block's strings take well under 1 MB, never a copy of
# the whole file
_PANEL_BLOCK_ROWS = 64


def load_panel_csv(path) -> Panel:
    """Read a panel from CSV with header ``date,<id1>,<id2>,...``, as
    read_panel_csv reads it."""
    return Panel(*read_panel_csv(path))


def read_panel_csv(path) -> tuple[list[str], Month, np.ndarray]:
    """(ids, first month, values) of the panel CSV at path, values a fresh
    writable (months, members) float64 array.

    Dates must be YYYY-MM and strictly consecutive months. Every cell must
    be a finite number written in ASCII, without '_'. Errors name the
    offending row (1-based, header = row 1) and column. Problems with a
    row's shape (its cell count or its date) are reported before any bad
    cell value, whichever row holds it; among bad cells, the first in file
    order is reported.

    The file is read in one pass by numpy's C text reader (_read_plain),
    which fills one array. A file it does not take whole, among them every
    faulty one and every one with a quote in a data row, is read again
    with csv.reader (_read_csv), which names the error.
    """
    return _read_plain(path) or _read_csv(path)


def _read_plain(path):
    """read_panel_csv's result with the cells converted by np.loadtxt, or
    None when the csv path must read the file.

    That is the case for a file that is not UTF-8, whose header csv.reader
    refuses or _header_fault faults, with fewer than 2 rows or a
    non-finite value, or with a data line that np.loadtxt refuses or that
    holds a quote, a NUL or a character that is not ASCII, is longer than
    csv's field limit or does not start with its month (str(Month) and a
    comma). Without quotes a data line's fields are its text split at
    commas, as csv.reader splits it, and np.loadtxt parses a cell with
    PyOS_string_to_double, as float() does, and takes no '_': so a file
    it takes holds the floats the csv path would read.
    """
    limit = csv.field_size_limit()
    rows = 0

    def cells(lines, first: Month):
        """Each line's text after its date; ValueError on a line np.loadtxt
        might read otherwise than csv.reader and float()."""
        nonlocal rows
        k = first.year * 12 + first.month - 1
        for line in lines:
            if ('"' in line or "\0" in line or not line.isascii() or len(line) > limit
                    or line[:8] != f"{k // 12:04d}-{k % 12 + 1:02d},"):
                raise ValueError("not a plain panel line")
            rows += 1
            k += 1
            yield line[8:]

    try:
        with open(path, encoding="utf-8", newline="") as fh:
            ids = next(csv.reader(fh), None)
            if ids is None or _header_fault(ids) is not None:
                return None
            ids = ids[1:]
            line = next(fh, "")
            first = Month.parse(line.split(",", 1)[0])
            # loadtxt refuses a row whose cell count differs from the first
            # row's, and skips a blank one, which the row count then shows
            values = np.loadtxt(cells(chain([line], fh), first), delimiter=",",
                                comments=None, ndmin=2)
    except (ValueError, ContractError, csv.Error):  # UnicodeDecodeError is a ValueError
        return None
    if values.shape != (rows, len(ids)) or rows < 2 or not np.isfinite(values).all():
        return None
    return ids, first, values


def _header_fault(header: list[str]) -> str | None:
    """What is wrong with a panel CSV's header row, or None."""
    if not header or header[0] != "date":
        return "header must start with 'date'"
    ids = header[1:]
    if not ids:
        return "no series columns after 'date'"
    dup = first_repeated(ids)
    for sid in ids:
        if sid == dup:
            return f"duplicate column id '{sid}'"
        if not sid:
            return "blank column id"
    return None


def _read_csv(path):
    """_read_plain's result read with csv.reader and float(); raises
    IngestionError naming the first fault, as read_panel_csv documents."""
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            raise IngestionError(f"{path}: empty file")
        fault = _header_fault(header)
        if fault is not None:
            raise IngestionError(f"{path}: row 1: {fault}")
        ids = header[1:]

        first = prev = None
        count = 0
        blocks: list[np.ndarray] = []  # each block's (rows, members) floats
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
                    bad = _convert_block(path, ids, block, rownum - len(block) + 1, blocks)
                    block = []
    if count < 2:
        raise IngestionError(f"{path}: need at least 2 data rows, got {count}")
    if bad is None and block:
        bad = _convert_block(path, ids, block, count + 2 - len(block), blocks)
    del block  # the last block's strings
    if bad is not None:
        raise bad
    return ids, first, np.concatenate(blocks)


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


def _convert_block(path, ids, cells, first_row, blocks) -> IngestionError | None:
    """Append the (rows, members) floats of `cells` to `blocks`, or return
    the error for the first bad cell; `first_row` is the file row of its
    first row."""
    values = None
    if _number_text("".join(map("".join, cells))):
        try:
            values = np.array(cells, dtype=float)  # float() of each cell
        except ValueError:
            pass
    if values is None or not np.isfinite(values).all():
        return _bad_cell(path, ids, cells, first_row)
    blocks.append(values)
    return None


def _number_text(text: str) -> bool:
    """Whether text is ASCII without '_', as np.loadtxt requires of a
    number and float() does not."""
    return text.isascii() and "_" not in text


def _bad_cell(path, ids, cells, first_row) -> IngestionError:
    """The error for the first missing, non-numeric or non-finite cell in file order."""
    for rownum, row in enumerate(cells, start=first_row):
        for sid, cell in zip(ids, row):
            try:
                if not _number_text(cell):
                    raise ValueError(cell)
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


def write_panel_csv(panel: Panel, path) -> None:
    """Write a panel in the format load_panel_csv reads, 12 significant digits.

    Rows are formatted FORMAT_CHUNK values at a time, never the whole panel.
    """
    step = max(1, FORMAT_CHUNK // len(panel))
    with open(path, "wb") as fh:
        fh.write(csv_line(["date", *panel.ids]).encode())
        for start in range(0, panel.n, step):
            values = panel.values[start:start + step]
            dates = csv_fields([(d,) for d in _month_labels(panel.month_at(start), len(values))])
            fh.write(csv_rows(dates, format_g12(values)))


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
