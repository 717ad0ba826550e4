"""The "%.12g" formatter against Python's own formatting, and the panel
reader's numpy path against its csv.reader path."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasesync.csvtext import G12_WIDTH, format_g12
from phasesync.errors import IngestionError
from phasesync.panel import _read_csv, _read_plain, load_panel_csv, write_panel_csv
from phasesync.synthetic import RegimeSpec, gen_regime_panel

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


@st.composite
def cell_texts(draw):
    """Mostly number text that float() takes, with signs, spaces, '.5' and
    '5.' forms and exponents; some with '_' or Arabic-Indic digits, which
    float() takes and both readers refuse; some words; some quoted."""
    kind = draw(st.integers(0, 15))
    if kind == 0:
        text = draw(st.sampled_from(["nan", "-inf", "", " ", "1e999", "x"]))
    else:
        digits = DIGITS * 6 + "_" + ARABIC_INDIC[:2]
        text = (draw(st.sampled_from(["", " ", "+", "-", " -"]))
                + draw(st.text(st.sampled_from(digits), min_size=1, max_size=5))
                + draw(st.sampled_from(["", ".", ".5", "5.", ".25"]))
                + draw(st.sampled_from(["", "", "e5", "E-3", "e+2"]))
                + draw(st.sampled_from(["", "", " ", "\t"])))
    return f'"{text}"' if kind == 1 else text


def loaded(read, path):
    """(ids, first month, the values' bytes) of a reader's result."""
    ids, first, values = read(path)
    return ids, first, values.tobytes()


@settings(PROPERTY, max_examples=150)
@given(st.lists(st.tuples(cell_texts(), cell_texts()), min_size=2, max_size=4))
def test_plain_reader_agrees_with_csv_reader(rows):
    text = "date,a,b\r\n" + "".join(
        f"2000-{month:02d},{a},{b}\r\n" for month, (a, b) in enumerate(rows, start=1))
    tmp, path = write_text(text)
    with tmp:
        try:
            expected = loaded(_read_csv, path)
        except IngestionError as exc:
            assert _read_plain(path) is None  # only the csv path names an error
            with pytest.raises(IngestionError) as error:
                load_panel_csv(path)
            assert str(error.value) == str(exc)
            return
        if _read_plain(path) is not None:
            assert loaded(_read_plain, path) == expected
        panel = load_panel_csv(path)
        assert panel.values.tobytes() == expected[2]


def test_plain_reader_takes_a_written_panel(tmp_path):
    path = tmp_path / "panel.csv"
    spec = RegimeSpec(segments=((150, "coupled"),), seed=1)
    write_panel_csv(gen_regime_panel(4, spec), path)
    assert _read_plain(path) is not None
    assert loaded(_read_plain, path) == loaded(_read_csv, path)
