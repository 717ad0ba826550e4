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

from .csvtext import FORMAT_CHUNK, csv_fields, csv_rows, format_g12
from .errors import ContractError, IngestionError

_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})")
# a line's first cell and comma; csv.reader joins its quoted and plain parts
_DATE_CELL = re.compile(r'(?:"([^"]*)")?([^",]*),')


def round_half_up(x: float) -> int:
    """Round to the nearest integer, ties upward (round(28.5) = 29)."""
    return int(math.floor(x + 0.5))


def is_integer(value) -> bool:
    """Whether value equals an int; False, not an exception, for nan or inf,
    and False for a bool or np.bool_, which is a flag, not a count."""
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        return value == int(value)
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True, order=True)
class Month:
    """A calendar month (no day component) of the years 0..9999 YYYY-MM writes."""

    year: int
    month: int

    def __post_init__(self):
        for name, low, high in (("year", 0, 9999), ("month", 1, 12)):
            if not (is_integer(value := getattr(self, name)) and low <= value <= high):
                raise ContractError(f"{name} must be in {low}..{high}, got {value!r}")
            object.__setattr__(self, name, int(value))

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


def month_labels(first: Month, count: int):
    """str() of each of the count months from first, built without Month objects."""
    start = first.year * 12 + first.month - 1
    return (f"{k // 12:04d}-{k % 12 + 1:02d}" for k in range(start, start + count))


@dataclass(frozen=True, eq=False)
class Panel:
    """Monthly series of several members on one calendar.

    values[t, k] is member ids[k] in month start + t: a (months, members)
    array, the layout of the panel CSV, of finite floats over at least 2
    months that end by 9999-12. A float64 array is kept as given, not
    copied, and made read-only; any other input is converted to one once.
    """

    ids: tuple[str, ...]
    start: Month
    values: np.ndarray

    def __post_init__(self):
        ids = tuple(self.ids)
        if not ids:
            raise ContractError("panel needs at least one series")
        if (fault := _id_fault(ids)) is not None:
            raise ContractError(fault)
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] != len(ids):
            raise ContractError(
                f"need a (months >= 2, {len(ids)} members) array of values, "
                f"got shape {values.shape}"
            )
        if Month(9999, 12) - self.start < len(values) - 1:
            raise ContractError(f"a {len(values)}-month panel from {self.start} runs past 9999-12")
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
        for name in ("lower", "upper"):
            if not is_integer(value := getattr(self, name)):
                raise ContractError(f"band cutoffs must be integers, got {name} = {value!r}")
            object.__setattr__(self, name, int(value))
        if not 1 <= self.lower <= self.upper:
            raise ContractError(f"need 1 <= lower <= upper, got ({self.lower}, {self.upper})")

    def validate_for(self, n: int) -> None:
        """Raise unless the band fits a length-n record."""
        if self.upper > n // 2:
            raise ContractError(f"band ({self.lower}, {self.upper}) invalid for length {n}: "
                                f"need upper <= floor(N/2) = {n // 2}")


def periods_of_band(n: int, band: FilterBand) -> tuple[float, float]:
    """Periods (in months) bounding the band: (shortest, longest) = (N/upper, N/lower)."""
    band.validate_for(n)
    return n / band.upper, n / band.lower


def band_from_periods(n: int, longest: float, shortest: float) -> FilterBand:
    """Derive mode cutoffs from period bounds.

    Inverse of :func:`periods_of_band` up to rounding: cutoffs are
    round-half-up of N/period, clamped to [1, floor(N/2)]. Each step is
    monotone, so longest >= shortest gives lower <= upper.
    """
    if not 2 <= shortest <= longest <= n:
        raise ContractError(
            f"need 2 <= shortest <= longest <= N, got "
            f"shortest={shortest}, longest={longest}, N={n}"
        )
    half = n // 2
    lower = min(max(round_half_up(n / longest), 1), half)
    upper = min(max(round_half_up(n / shortest), 1), half)
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
            mask[max(p - first + 1, 0):max(t - first + 1, 0)] = True
        return mask


def load_panel_csv(path) -> Panel:
    """Read a panel from CSV with header ``date,<id1>,<id2>,...``, as
    read_panel_csv reads it."""
    return Panel(*read_panel_csv(path))


def read_panel_csv(path) -> tuple[list[str], Month, np.ndarray]:
    """(ids, first month, values) of the panel CSV at path, values a fresh
    writable (months, members) float64 array.

    A leading UTF-8 byte-order mark is skipped. Dates must be YYYY-MM and
    strictly consecutive months. Every cell must be a finite number
    written in ASCII, without '_' or a line break; spaces and the ASCII
    separators \\x1c-\\x1f around it are ignored. Cells and dates may be
    quoted. Errors name the offending row (1-based, header = row 1) and
    column. A line that is not UTF-8 is reported first, wherever it lies;
    then the header; then problems with a row's shape (its cell count or
    its date) in file order, before any bad cell value, whichever row holds
    it; among bad cells, the first in file order is reported.

    np.loadtxt reads the values in one pass: it splits a line at commas
    outside quotes as csv.reader does, and takes the cells _bad_cell takes.
    A file with a line cells() refuses, or that np.loadtxt refuses, is
    faulty, and _fault names its first fault.
    """
    limit = csv.field_size_limit()

    def cells(lines, first: Month):
        """Each line's text after its month and comma, plain or (partly) quoted.
        ValueError on one with only whitespace after them, which np.loadtxt skips if empty,
        or with a NUL or non-ASCII character, a quoted cell open at its line break or a
        field over csv's size limit, which np.loadtxt might read otherwise than csv.reader."""
        # labels first, so a line past the last month, 9999-12, is left in lines
        labels = month_labels(first, Month(9999, 12) - first + 1)
        for date, line in zip(labels, lines):
            # an odd count of quotes may leave a quoted cell open at the line
            # break; a field's length is counted without its quotes
            if ("\0" in line or not line.isascii()
                    or '"' in line and line.count('"') % 2 and line[-1] in "\r\n"
                    or len(line) > limit and max(map(len, line.rstrip("\r\n")
                                                     .replace('"', "").split(","))) > limit):
                raise ValueError("not a panel line np.loadtxt reads as csv.reader does")
            if not (m := _DATE_CELL.match(line)) or (m[1] or "") + m[2] != date:
                raise ValueError("a data line does not start with its month")
            if not (rest := line[m.end():]) or rest.isspace():
                raise ValueError("a data line has no cells after its month")
            yield rest
        if next(lines, None) is not None:
            raise ValueError("a data line past 9999-12")

    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            ids = next(csv.reader(fh), [])
            if _header_fault(ids) is not None:
                raise ValueError("no panel header")
            ids = ids[1:]
            # a header-only file must not reach np.loadtxt, which warns on no data
            line = next(fh, "")
            first = Month.parse((next(csv.reader([line])) or [""])[0])
            # loadtxt refuses a row whose cell count differs from the first row's
            values = np.loadtxt(cells(chain([line], fh), first), delimiter=",",
                                quotechar='"', comments=None, ndmin=2)
        if values.shape[1:] == (len(ids),) and len(values) >= 2 and np.isfinite(values).all():
            return ids, first, values
    except (ValueError, csv.Error):  # UnicodeDecodeError and ContractError are ValueErrors
        pass
    raise _fault(path)


def _header_fault(header: list[str]) -> str | None:
    """What is wrong with a panel CSV's header row, or None."""
    if not header or header[0] != "date":
        return "header must start with 'date'"
    if len(header) == 1:
        return "no series columns after 'date'"
    return _id_fault(header[1:])


def _id_fault(ids) -> str | None:
    """The fault of the first id, in order, that repeats another or is blank, or None."""
    dup = first_repeated(ids)
    for sid in ids:
        if sid == dup:
            return f"duplicate series id '{sid}'"
        if not sid:
            return "blank series id"
    return None


def _fault(path) -> IngestionError:
    """The error naming the first fault, in read_panel_csv's order, of a
    panel CSV read with csv.reader. A line that is not UTF-8 and a field
    over csv's size limit raise their IngestionError here."""
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            return IngestionError(f"{path}: empty file")
        if (fault := _header_fault(header)) is not None:
            return IngestionError(f"{path}: row 1: {fault}")
        ids = header[1:]

        prev = bad = None  # bad: the first bad cell's error, kept for after the shape checks
        count = 0
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                return IngestionError(f"{path}: row {rownum}: expected {len(header)} "
                                      f"cells, got {len(row)}")
            try:
                m = Month.parse(row[0])
            except ContractError as exc:
                return IngestionError(f"{path}: row {rownum}: {exc}")
            if prev is not None and m - prev != 1:
                return IngestionError(
                    f"{path}: row {rownum}: non-consecutive calendar months "
                    f"({prev} followed by {m})"
                )
            prev = m
            count += 1
            if bad is None:
                bad = _bad_cell(path, rownum, ids, row[1:])
    if count < 2:
        return IngestionError(f"{path}: need at least 2 data rows, got {count}")
    if bad is None:
        raise AssertionError("np.loadtxt refused the file, yet it has no fault")
    return bad


@contextmanager
def _csv_reader(path):
    """A csv.reader over the UTF-8 file at path, a leading byte-order mark
    skipped. Every line is decoded before any row is read, so the first
    line that is not UTF-8, wherever it lies, raises IngestionError naming
    it; a field over csv's size limit raises one naming its line."""
    with open(path, "rb") as fh:
        for linenum, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                byte = line[exc.start:exc.start + 1].hex()
                raise IngestionError(f"{path}: line {linenum}: not UTF-8 text "
                                     f"({exc.reason}: 0x{byte})") from exc
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise IngestionError(f"{path}: line {reader.line_num}: {exc}") from exc


def _bad_cell(path, rownum, ids, cells) -> IngestionError | None:
    """The error for the first missing, non-numeric or non-finite cell of a
    data row, or None. A number is ASCII without '_' or a line break, and
    float() takes it once str.strip() has removed its whitespace, which
    includes the separators \\x1c-\\x1f: np.loadtxt's rule."""
    for sid, cell in zip(ids, cells):
        text = cell.strip()
        try:
            if not cell.isascii() or "_" in cell or "\n" in cell or "\r" in cell:
                raise ValueError(cell)
            if math.isfinite(float(text)):
                continue
            problem = f"non-finite value {cell!r}"
        except ValueError:
            problem = f"non-numeric value {cell!r}" if text else "missing value"
        return IngestionError(f"{path}: row {rownum}, column '{sid}': {problem}")
    return None


def first_repeated(items):
    """The first item, in order, that occurs more than once in `items`, or None."""
    seen, repeated = set(), set()
    for item in items:
        (repeated if item in seen else seen).add(item)
    return next((item for item in items if item in repeated), None)


def write_panel_csv(panel: Panel, path) -> None:
    """Write a panel in the format load_panel_csv reads, 12 significant digits.

    Rows are formatted FORMAT_CHUNK values at a time, never the whole panel;
    the date fields are built once.
    """
    step = max(1, FORMAT_CHUNK // len(panel))
    # each month label is YYYY-MM: 7 bytes that csv.writer never quotes; fromiter
    # keeps no list of label objects, whose memory would stay resident
    dates = np.fromiter(month_labels(panel.start, panel.n), "S7", panel.n)
    dates = dates.view(np.uint8).reshape(panel.n, 1, 7)
    with open(path, "wb") as fh:
        fh.write(csv_rows(csv_fields([["date", *panel.ids]])))
        for start in range(0, panel.n, step):
            rows = slice(start, start + step)
            fh.write(csv_rows(dates[rows], format_g12(panel.values[rows])))


def load_recession_csv(path) -> RecessionCalendar:
    """Read reference dates from CSV with header ``peak,trough``, YYYY-MM
    values and at least one episode; a leading byte-order mark is skipped.
    Errors name their row (header = row 1) in file order: RecessionCalendar
    judges each row's episode against the rows before it."""
    with _csv_reader(path) as reader:
        rows = list(reader)
    if not rows or rows[0] != ["peak", "trough"]:
        raise IngestionError(f"{path}: row 1: header must be exactly 'peak,trough'")
    if len(rows) == 1:
        raise IngestionError(f"{path}: no episodes after the header")
    episodes = []
    for rownum, row in enumerate(rows[1:], start=2):
        try:
            if len(row) != 2:
                raise ContractError(f"expected 2 cells, got {len(row)}")
            episodes.append((Month.parse(row[0]), Month.parse(row[1])))
            calendar = RecessionCalendar(tuple(episodes))
        except ContractError as exc:
            raise IngestionError(f"{path}: row {rownum}: {exc}") from exc
    return calendar
