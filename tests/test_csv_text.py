"""The "%.12g" formatter against Python's own formatting, and the panel
reader against a csv.reader reference."""

import csv
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasesync.csvtext import G12_WIDTH, format_g12
from phasesync.errors import ContractError, IngestionError
from phasesync.panel import Month, load_panel_csv

# the same examples on every run, and no example database written
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def cells(values) -> list[bytes]:
    """format_g12's cells of values, padding removed."""
    return [bytes(cell).replace(b"\xff", b"") for cell in format_g12(values)]


def assert_printf(values):
    values = np.asarray(values, dtype=float)
    assert cells(values) == [b"%.12g" % v for v in values]


def ulps(value: float, n: int) -> float:
    """value moved n units in the last place (down for n < 0)."""
    for _ in range(abs(n)):
        value = np.nextafter(value, np.inf if n > 0 else -np.inf)
    return float(value)


@PROPERTY
@given(arrays(float, st.integers(1, 64), elements=st.floats(width=64)))
def test_any_float64(values):
    assert_printf(values)


@PROPERTY
@given(st.integers(-6, 13), st.integers(-4, 4), st.booleans())
def test_near_powers_of_ten(k, n, negative):
    # the products that round up into the next decade
    value = ulps(10.0 ** k, n)
    assert_printf([-value if negative else value])


@PROPERTY
@given(st.integers(10**11, 10**12 - 1), st.integers(-4, 11), st.integers(-1, 1))
def test_near_decimal_ties(digits, exponent, n):
    # the nearest double to the 13-digit decimal d0..d11 5 x 10**(exponent - 12),
    # and its neighbours: the product lies near a half-integer
    assert_printf([ulps(float(f"{digits}5e{exponent - 12}"), n)])


def test_products_at_the_guard_band():
    # values whose product |v| * 10**(11 - e) lies 2**-15 .. 2**-12 above or
    # below a half-integer: on both sides of format_g12's guard of 2**-13 and
    # of the product's rounding error, up to 2**-14
    values = []
    for exponent in range(-4, 12):
        for digits in (10**11, 123456789012, 5 * 10**11 + 1, 10**12 - 2):
            for k in (15, 14, 13, 12):
                for offset in (Fraction(1, 2**k), -Fraction(1, 2**k)):
                    product = digits + Fraction(1, 2) + offset
                    value = float(product * Fraction(10) ** (exponent - 11))
                    values += [value, -value]
    assert_printf(values)


@PROPERTY
@given(st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308))
def test_subnormals_and_zeros(value):
    assert_printf([value, 0.0, -0.0])


def test_every_magnitude_and_special_value():
    rng = np.random.default_rng(0)
    values = np.concatenate([
        rng.normal(size=20000) * 10.0 ** rng.integers(-320, 300, 20000),
        rng.normal(size=20000) * 10.0 ** rng.integers(-6, 14, 20000),
        [np.nan, np.inf, -np.inf, 1e-4, -1e-4, 1e12, 999999999999.5, 0.5, 1.0],
    ])
    assert_printf(values)


def test_keeps_the_shape_of_its_input():
    values = np.arange(12.0).reshape(3, 4)
    assert format_g12(values).shape == (3, 4, G12_WIDTH)
    assert format_g12(values.T)[1, 2].tobytes().replace(b"\xff", b"") == b"9"


def write_text(text: str):
    """A temporary CSV file holding text, as a path whose directory lives
    as long as the returned object."""
    tmp = tempfile.TemporaryDirectory()
    path = Path(tmp.name) / "panel.csv"
    path.write_bytes(text.encode("utf-8"))
    return tmp, path


DIGITS = "0123456789"
ARABIC_INDIC = "٠١٢٣٤٥٦٧٨٩"
SEPARATORS = "\x1c\x1d\x1e\x1f"  # whitespace to str.strip() and np.loadtxt, not to float()


@st.composite
def cell_texts(draw):
    """Mostly number text that float() takes, with signs, spaces, '.5' and
    '5.' forms and exponents; some with '_' or Arabic-Indic digits, which
    float() takes and the reader refuses; some padded with the separators
    \x1c-\x1f, which the reader takes as whitespace, or holding a NUL; some
    words; some quoted, with a line break inside the quotes, or with a
    stray quote."""
    kind = draw(st.integers(0, 31))
    if kind == 0:
        text = draw(st.sampled_from(["nan", "-inf", "", " ", "1e999", "x", "\0"]))
    else:
        text = (draw(st.sampled_from(["", " ", "+", "-", " -", *SEPARATORS]))
                + draw(st.text(st.sampled_from(DIGITS), min_size=1, max_size=5))
                + draw(st.sampled_from([""] * 8 + ["_1", *ARABIC_INDIC[:2]]))
                + draw(st.sampled_from(["", ".", ".5", "5.", ".25"]))
                + draw(st.sampled_from(["", "", "e5", "E-3", "e+2"]))
                + draw(st.sampled_from(["", "", "", " ", "\t", "\0", *SEPARATORS])))
    if kind == 1:
        return '"' + text + draw(st.sampled_from(["\n", "\r\n", "\r"])) + '"'
    if kind == 2:
        return draw(st.sampled_from([f'{text}"', f'"{text}"x', f'"{text}', f'"{text}""']))
    if kind <= 10:
        return f'"{text}"'
    return text


def number(cell: str) -> float:
    """float(cell.strip()) of ASCII text without '_' or a line break, else nan."""
    if cell.isascii() and not {"_", "\n", "\r"} & set(cell):
        try:
            return float(cell.strip())
        except ValueError:
            pass
    return math.nan


def reference(path):
    """The panel CSV at path read with csv.reader, a cell taken when its
    number() is finite: its (months, members) floats, or the text that
    follows the path in the error naming its first fault (each row's shape
    and date, then the first bad cell)."""
    values, bad, prev = [], None, None
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        try:
            for rownum, row in enumerate(reader, start=2):
                try:
                    month = Month.parse(row[0]) if len(row) == len(header) else None
                except ContractError:
                    month = None
                if month is None or prev is not None and month - prev != 1:
                    return f"row {rownum}: "
                prev = month
                values.append([number(cell) for cell in row[1:]])
                for sid, value in zip(header[1:], values[-1]):
                    if bad is None and not math.isfinite(value):
                        bad = f"row {rownum}, column '{sid}': "
        except csv.Error:  # a NUL, before Python 3.11
            return "line "
    if len(values) < 2:
        return "need at least 2 data rows"
    return bad or np.array(values)


# how a row writes its date d: form.format(d[:cut], d[cut:]); csv.reader reads
# '"2000"-01', '"2000-"01' and '""2000-01' as 2000-01, and '20"00"-01' as is
DATE_FORMS = ([("{}{}", 0)] * 6 + [('"{}{}"', 0)] * 3
              + [(" {}{}", 0), ('"{}{}" ', 0), ('"{}"{}', 4), ('"{}"{}', 5),
                 ('"{}"{}', 0), ('{}"{}"', 2)])


@st.composite
def member_cells(draw):
    """cell_texts(), or one time in four a cell with no number text: '', ' '
    or '\x1c'. A one-member row of one has only whitespace after its month."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(["", " ", "\x1c"]))
    return draw(cell_texts())


@settings(PROPERTY, max_examples=200)
@given(st.integers(1, 3),
       st.lists(st.tuples(st.sampled_from(DATE_FORMS),
                          st.lists(member_cells(), min_size=3, max_size=3)),
                max_size=4),
       st.sampled_from(["\r\n", "\n", ""]))
def test_loads_the_csv_reader_floats_or_names_the_fault(members, rows, end):
    # 1-3 members and 0-4 rows, so header-only and one-row files too; dates
    # plain, quoted, space-padded or quoted in part; the last line with or
    # without its line break
    dates = [str(Month(2000, month)) for month in range(1, len(rows) + 1)]
    text = ",".join(["date", *"abc"[:members]]) + "\r\n" + "\r\n".join(
        ",".join([form.format(d[:cut], d[cut:]), *row[:members]])
        for d, ((form, cut), row) in zip(dates, rows)) + end
    tmp, path = write_text(text)
    with tmp:
        expected = reference(path)
        if isinstance(expected, str):
            with pytest.raises(IngestionError) as error:
                load_panel_csv(path)
            assert str(error.value).startswith(f"{path}: {expected}")
        else:
            assert load_panel_csv(path).values.tobytes() == expected.tobytes()
