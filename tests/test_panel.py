import csv
import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasesync import (
    ContractError,
    FilterBand,
    IngestionError,
    Month,
    Panel,
    RecessionCalendar,
    band_from_periods,
    load_panel_csv,
    load_recession_csv,
    periods_of_band,
    round_half_up,
    write_panel_csv,
)


def make_panel(n=24, members=3, start=Month(2000, 1), seed=0):
    rng = np.random.default_rng(seed)
    return Panel([f"s{i}" for i in range(members)], start, rng.normal(size=(members, n)).T)


# file rows (header = row 1) of a long_csv(path, LONG_MONTHS) panel at
# steps of BLOCK rows, so the bad rows below lie well apart and far into
# the file; the panel's length is no multiple of BLOCK
BLOCK = 64
LONG_MONTHS = 700
LAST_ROW = LONG_MONTHS + 1
FIRST_BLOCK_ROW = 2
IN_SECOND_BLOCK = BLOCK + 2 + BLOCK // 2
EARLY_IN_THIRD_BLOCK = 2 * BLOCK + 2 + BLOCK // 8
IN_THIRD_BLOCK = 2 * BLOCK + 2 + BLOCK // 2
LAST_OF_FOURTH_BLOCK = 4 * BLOCK + 1
FIRST_OF_FIFTH_BLOCK = 4 * BLOCK + 2
assert FIRST_OF_FIFTH_BLOCK < LAST_ROW and LONG_MONTHS % BLOCK, "lengthen LONG_MONTHS"


def long_csv(path, n, replace=None):
    """A CSV of members a and b over n months from 2000-01; `replace` maps a
    file row number (header = 1) to the text that follows that row's date."""
    lines = ["date,a,b"] + [f"{Month(2000, 1) + i},{i},{-i}" for i in range(n)]
    for rownum, cells in (replace or {}).items():
        lines[rownum - 1] = f"{Month(2000, 1) + (rownum - 2)},{cells}"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestMonth:
    def test_parse_format_round_trip(self):
        m = Month.parse("1980-07")
        assert (m.year, m.month) == (1980, 7)
        assert str(m) == "1980-07"
        assert str(Month(5, 3)) == "0005-03"

    # a trailing newline, and digits that are not ASCII, are not YYYY-MM either
    @pytest.mark.parametrize("text", ["1980-7", "198001", "1980/01", "1980-13", "x",
                                      "2000-01\n", "\u0661\u0669\u0669\u0660-\u0660\u0667"])
    def test_parse_rejects(self, text):
        with pytest.raises(ContractError):
            Month.parse(text)

    def test_arithmetic(self):
        assert Month(1999, 12) + 1 == Month(2000, 1)
        assert Month(2000, 1) + 25 == Month(2002, 2)
        assert Month(2000, 1) + (-1) == Month(1999, 12)
        assert Month(2002, 2) - Month(2000, 1) == 25
        assert Month(1980, 1) < Month(1980, 2) < Month(1981, 1)

    def test_invalid_month_number(self):
        with pytest.raises(ContractError):
            Month(2000, 0)

    def test_year_outside_what_yyyy_mm_writes(self):
        assert str(Month(0, 1)) == "0000-01" and str(Month(9999, 12)) == "9999-12"
        for year in (-1, 10000):
            with pytest.raises(ContractError, match=f"year must be in 0..9999, got {year}"):
                Month(year, 1)
        with pytest.raises(ContractError, match="got 10000"):
            Month(9999, 12) + 1

    @pytest.mark.parametrize("year,month,name", [
        (2000.5, 1, "year"), (True, 1, "year"), ("2000", 1, "year"),
        (2000, 1.5, "month"), (2000, np.True_, "month"),
    ])
    def test_fields_that_are_not_integers_rejected(self, year, month, name):
        # 2000.5 would fail only in str(), and True would print as 0001-01
        with pytest.raises(ContractError, match=f"{name} must be in "):
            Month(year, month)

    def test_whole_float_fields_stored_as_int(self):
        month = Month(2000.0, np.int64(3))
        assert type(month.year) is int and type(month.month) is int
        assert str(month) == "2000-03" and month == Month(2000, 3)

    def test_panel_ends_by_9999_12(self):
        assert make_panel(n=7, start=Month(9999, 6)).month_at(6) == Month(9999, 12)
        with pytest.raises(ContractError,
                           match="a 8-month panel from 9999-06 runs past 9999-12"):
            make_panel(n=8, start=Month(9999, 6))


class TestRoundHalfUp:
    @pytest.mark.parametrize("x,expected", [
        (0.5, 1), (1.4999, 1), (2.5, 3), (28.0556, 28), (126.25, 126),
        (34.857, 35), (81.333, 81), (2.0, 2),
    ])
    def test_values(self, x, expected):
        assert round_half_up(x) == expected


class TestPanel:
    def test_properties(self):
        panel = make_panel(n=10, members=4)
        assert panel.n == 10
        assert len(panel) == 4
        assert panel.ids == ("s0", "s1", "s2", "s3")
        assert panel.values.shape == (10, 4)
        assert panel.month_at(9) == Month(2000, 10)

    def test_construction(self):
        panel = Panel(["a"], Month(2000, 1), [[1], [2], [3]])
        assert panel.ids == ("a",)
        assert (panel.n, len(panel)) == (3, 1)
        assert panel.values.dtype == float

    def test_float64_values_kept_without_a_copy(self):
        values = np.arange(6.0).reshape(3, 2)
        panel = Panel(("a", "b"), Month(2000, 1), values)
        assert panel.values is values
        assert not values.flags.writeable

    def test_immutable(self):
        panel = Panel(("a",), Month(2000, 1), [[1.0], [2.0]])
        with pytest.raises(ValueError):
            panel.values[0, 0] = 9.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            panel.ids = ("b",)

    def test_too_short(self):
        with pytest.raises(ContractError, match="months >= 2"):
            Panel(("a",), Month(2000, 1), [[1.0]])

    def test_not_2d(self):
        for values in ([1.0, 2.0, 3.0], np.zeros((3, 1, 1))):
            with pytest.raises(ContractError, match=r"\(months >= 2, 1 members\) .* shape"):
                Panel(("a",), Month(2000, 1), values)

    def test_mismatched_length(self):
        # one column per id
        with pytest.raises(ContractError, match=r"3 members\) array of values, got shape \(4, 2\)"):
            Panel(("a", "b", "c"), Month(2000, 1), np.zeros((4, 2)))

    def test_non_finite(self):
        values = np.zeros((4, 3))
        values[3, 0] = values[2, 1] = values[1, 2] = np.nan
        with pytest.raises(ContractError, match="series 'a': non-finite value at index 3$"):
            Panel(("a", "b", "c"), Month(2000, 1), values)

    def test_duplicate_ids(self):
        with pytest.raises(ContractError, match="duplicate"):
            Panel(("a", "a"), Month(2000, 1), np.zeros((2, 2)))

    def test_first_duplicate_id_in_order(self):
        with pytest.raises(ContractError, match="duplicate series id 'b'"):
            Panel(("b", "a", "a", "b"), Month(2000, 1), np.zeros((2, 4)))

    def test_empty(self):
        with pytest.raises(ContractError, match="panel needs at least one series"):
            Panel((), Month(2000, 1), np.zeros((2, 0)))

    def test_blank_id(self):
        # refused as load_panel_csv refuses a blank column id, so no panel
        # is written that its reader refuses
        with pytest.raises(ContractError, match="blank series id"):
            Panel(["", "b"], Month(2000, 1), np.ones((3, 2)))


class TestFilterBand:
    def test_valid(self):
        band = FilterBand(4, 18)
        band.validate_for(505)

    @pytest.mark.parametrize("lower,upper", [(0, 5), (-1, 3), (6, 5), (float("nan"), 5),
                                             (float("inf"), 5), (1, float("inf"))])
    def test_invalid_range(self, lower, upper):
        with pytest.raises(ContractError):
            FilterBand(lower, upper)

    def test_whole_float_cutoffs_stored_as_int(self):
        band = FilterBand(4.0, np.int64(18))
        assert (band.lower, band.upper) == (4, 18)
        assert type(band.lower) is int and type(band.upper) is int

    @pytest.mark.parametrize("lower,upper,name", [(True, 5, "lower"), (1, np.True_, "upper"),
                                                  (1, "5", "upper")])
    def test_cutoff_that_is_not_an_integer_named(self, lower, upper, name):
        with pytest.raises(ContractError, match=f"got {name} = "):
            FilterBand(lower, upper)

    def test_too_high_for_length(self):
        with pytest.raises(ContractError, match="floor"):
            FilterBand(4, 51).validate_for(100)


class TestPeriodsOfBand:
    def test_us_configuration(self):
        shortest, longest = periods_of_band(505, FilterBand(4, 18))
        assert shortest == pytest.approx(505 / 18, abs=1e-12)
        assert longest == pytest.approx(505 / 4, abs=1e-12)
        assert (round_half_up(shortest), round_half_up(longest)) == (28, 126)

    def test_japan_configuration(self):
        shortest, longest = periods_of_band(488, FilterBand(6, 14))
        assert shortest == pytest.approx(488 / 14, abs=1e-12)
        assert longest == pytest.approx(488 / 6, abs=1e-12)
        assert (round_half_up(shortest), round_half_up(longest)) == (35, 81)

    def test_boundary_band(self):
        assert periods_of_band(100, FilterBand(1, 50)) == (2.0, 100.0)

    def test_invalid_band(self):
        with pytest.raises(ContractError):
            periods_of_band(100, FilterBand(1, 51))


class TestBandFromPeriods:
    @pytest.mark.parametrize("n,longest,shortest,expected", [
        (505, 126, 28, (4, 18)),
        (488, 81, 35, (6, 14)),
        (100, 100, 2, (1, 50)),
    ])
    def test_examples(self, n, longest, shortest, expected):
        band = band_from_periods(n, longest, shortest)
        assert (band.lower, band.upper) == expected

    @pytest.mark.parametrize("n,longest,shortest", [
        (100, 50, 1.5),    # shortest < 2
        (100, 120, 10),    # longest > n
        (100, 10, 50),     # inverted
    ])
    def test_preconditions(self, n, longest, shortest):
        with pytest.raises(ContractError):
            band_from_periods(n, longest, shortest)

    # each step from a period to its cutoff is monotone, so the band is never empty
    @given(st.integers(4, 5000), st.floats(0, 1), st.floats(0, 1))
    def test_valid_periods_give_a_band(self, n, a, b):
        shortest = 2 + (n - 2) * min(a, b)
        longest = 2 + (n - 2) * max(a, b)
        band = band_from_periods(n, longest, shortest)
        assert 1 <= band.lower <= band.upper <= n // 2

    @pytest.mark.parametrize("n", [100, 488, 505])
    def test_round_trip_with_periods(self, n):
        for lower in (1, 3, 7):
            for upper in (lower, lower + 5, n // 2):
                band = FilterBand(lower, upper)
                shortest, longest = periods_of_band(n, band)
                assert band_from_periods(n, longest, shortest) == band


class TestPanelCsv:
    def test_small_round_trip(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "date,a,b\n"
            "1980-01,1.5,-2\n"
            "1980-02,0.25,3e4\n"
            "1980-03,7,0.001\n"
            "1980-04,-1,2\n"
            "1980-05,9,8\n"
        )
        panel = load_panel_csv(path)
        assert len(panel) == 2
        assert panel.n == 5
        assert panel.start == Month(1980, 1)
        assert panel.values[1, 1] == 3e4

    def test_reemission_bit_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_panel_csv(make_panel(n=40, members=3, seed=5), first)
        write_panel_csv(load_panel_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_blank_cell_cites_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a,b\n2000-01,1,2\n2000-02,,4\n2000-03,5,6\n")
        with pytest.raises(IngestionError, match=r"row 3.*'a'"):
            load_panel_csv(path)

    def test_non_consecutive_months(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a\n1980-01,1\n1980-03,2\n")
        with pytest.raises(IngestionError, match="non-consecutive calendar"):
            load_panel_csv(path)

    def test_duplicate_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a,a\n2000-01,1,2\n2000-02,3,4\n")
        with pytest.raises(IngestionError, match="duplicate series id 'a'"):
            load_panel_csv(path)

    @pytest.mark.parametrize("header, message", [
        ("date,b,a,a,b", "duplicate series id 'b'"),
        ("date,a,,a", "duplicate series id 'a'"),
        ("date,,a,a", "blank series id"),
        ("date", "no series columns after 'date'"),
    ])
    def test_first_header_problem_in_header_order(self, tmp_path, header, message):
        path = tmp_path / "p.csv"
        path.write_text(f"{header}\n2000-01,1,2,3,4\n2000-02,1,2,3,4\n")
        with pytest.raises(IngestionError, match=f"row 1: {message}"):
            load_panel_csv(path)

    def test_non_numeric_names_row_and_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a,b\n2000-01,1,2\n2000-02,3,oops\n")
        with pytest.raises(IngestionError, match=r"row 3.*'b'.*oops"):
            load_panel_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "p.csv"
        path.write_text(f"date,a,b\n2000-01,1,2\n2000-02,{cell},3\n")
        with pytest.raises(IngestionError, match=rf"row 3, column 'a': non-finite value '{cell}'"):
            load_panel_csv(path)

    def test_first_non_finite_cell_in_file_order(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a,b\n2000-01,1,2\n2000-02,3,inf\n2000-03,nan,4\n")
        with pytest.raises(IngestionError, match=r"row 3, column 'b'"):
            load_panel_csv(path)

    def test_first_bad_cell_of_any_kind_in_file_order(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a,b\n2000-01,1,nan\n2000-02,oops,2\n2000-03,,4\n")
        with pytest.raises(IngestionError, match=r"row 2, column 'b': non-finite value 'nan'"):
            load_panel_csv(path)

    @pytest.mark.parametrize("bad_row, message", [
        ("2000-03,5", r"row 4: expected 3 cells, got 2"),
        ("2000-04,5,6", r"row 4: non-consecutive calendar months"),
        ("2000/03,5,6", r"row 4: expected YYYY-MM date"),
    ])
    def test_row_shape_reported_before_earlier_bad_cell(self, tmp_path, bad_row, message):
        # row 2 holds a non-numeric cell, yet the later row's shape is reported
        path = tmp_path / "p.csv"
        path.write_text(f"date,a,b\n2000-01,oops,2\n2000-02,3,4\n{bad_row}\n")
        with pytest.raises(IngestionError, match=message):
            load_panel_csv(path)

    # 2000-02 with a newline inside the quoted cell, in Arabic-Indic digits, and
    # with a quote or space that csv.reader keeps in the cell
    @pytest.mark.parametrize("cell", ['"2000-02\n"', "\u0662\u0660\u0660\u0660-\u0660\u0662",
                                      '20"00"-02', '"2000"-02 ', '"""2000"-02'])
    def test_date_that_is_not_yyyy_mm_names_row(self, tmp_path, cell):
        path = tmp_path / "p.csv"
        path.write_text(f"date,a,b\n2000-01,1,2\n{cell},3,4\n2000-03,5,6\n",
                        encoding="utf-8")
        with pytest.raises(IngestionError, match="row 3: expected YYYY-MM date"):
            load_panel_csv(path)

    def test_month_past_9999_12_names_its_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a\n9999-11,1\n9999-12,2\n10000-01,3\n")
        with pytest.raises(IngestionError,
                           match="row 4: expected YYYY-MM date, got '10000-01'"):
            load_panel_csv(path)

    def test_one_member_of_blank_cells_is_a_missing_value(self, tmp_path):
        # np.loadtxt finds no data in the file; that warning (an error under
        # this suite's filterwarnings) is not what the reader reports
        path = tmp_path / "p.csv"
        path.write_text("date,a\n2000-01,\n2000-02,\n")
        with pytest.raises(IngestionError, match="row 2, column 'a': missing value$"):
            load_panel_csv(path)

    def test_shape_error_in_third_block_before_bad_cell_in_first(self, tmp_path):
        # the bad cell is in the first data row, the short row over 150
        # rows later
        path = long_csv(tmp_path / "p.csv", LONG_MONTHS,
                        {FIRST_BLOCK_ROW: "oops,1", IN_THIRD_BLOCK: "1"})
        with pytest.raises(IngestionError,
                           match=rf"row {IN_THIRD_BLOCK}: expected 3 cells, got 2"):
            load_panel_csv(path)

    @pytest.mark.parametrize("rownum, cell, problem", [
        (300, "oops", "non-numeric value 'oops'"),
        (300, "inf", "non-finite value 'inf'"),
        (300, " ", "missing value"),
        (300, "1_0", "non-numeric value '1_0'"),  # float() takes both
        (300, "\u0665", "non-numeric value '\u0665'"),
        (LAST_OF_FOURTH_BLOCK, "nan", "non-finite value 'nan'"),
        (FIRST_OF_FIFTH_BLOCK, "nan", "non-finite value 'nan'"),
        (LAST_ROW, "1e400", "non-finite value '1e400'"),
    ])
    def test_bad_cell_in_later_block_names_its_row(self, tmp_path, rownum, cell, problem):
        path = long_csv(tmp_path / "p.csv", LONG_MONTHS, {rownum: f"{cell},1"})
        with pytest.raises(IngestionError, match=rf"row {rownum}, column 'a': {problem}$"):
            load_panel_csv(path)

    def test_first_bad_cell_across_blocks(self, tmp_path):
        path = long_csv(tmp_path / "p.csv", LONG_MONTHS, {
            IN_THIRD_BLOCK: "oops,1", IN_SECOND_BLOCK: "1,nan", EARLY_IN_THIRD_BLOCK: ",1",
        })
        with pytest.raises(IngestionError,
                           match=rf"row {IN_SECOND_BLOCK}, column 'b': non-finite value 'nan'"):
            load_panel_csv(path)

    # panels whose lengths lie one row short of, on, and one row past
    # multiples of BLOCK
    @pytest.mark.parametrize("n", [4 * BLOCK - 1, 4 * BLOCK, 4 * BLOCK + 1, 8 * BLOCK + 1])
    def test_round_trip_across_block_boundaries(self, tmp_path, n):
        panel = make_panel(n=n, members=3, seed=n)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_panel_csv(panel, first)
        loaded = load_panel_csv(first)
        assert (loaded.ids, loaded.start, loaded.n) == (panel.ids, panel.start, n)
        assert loaded.values.tolist() == [[float(format(v, ".12g")) for v in row]
                                          for row in panel.values]
        write_panel_csv(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_peak_memory_a_few_times_the_values(self, tmp_path):
        # 150 members x 3,000 months: holding the whole file as strings peaks
        # at about 11 times the 3.6 MB of floats; a concatenation of the
        # blocks beside the series' copies near 2; one block of strings and
        # each member's pieces near 1.4
        path = tmp_path / "p.csv"
        write_panel_csv(make_panel(n=3000, members=150), path)
        tracemalloc.start()
        try:
            panel = load_panel_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * len(panel) * panel.n * 8

    def test_quoted_panel_peak_memory_a_few_times_the_values(self, tmp_path):
        # every date and cell quoted: np.loadtxt reads it as it reads an
        # unquoted file; converting csv.reader's cells in blocks instead
        # peaks near 2 times the floats
        path = tmp_path / "p.csv"
        write_panel_csv(make_panel(n=3000, members=150), path)
        header, *lines = path.read_text().splitlines()
        path.write_text("\n".join([header] + [",".join(f'"{cell}"' for cell in line.split(","))
                                              for line in lines]) + "\n")
        tracemalloc.start()
        try:
            panel = load_panel_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * len(panel) * panel.n * 8

    def test_write_peak_memory_one_block(self, tmp_path):
        # column-stacking the whole panel before writing peaks at about 1.7
        # times its floats; one block of rows at a time near 0.2
        panel = make_panel(n=3000, members=150)
        tracemalloc.start()
        try:
            write_panel_csv(panel, tmp_path / "p.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * len(panel) * panel.n * 8

    def test_loaded_values_are_read_only_and_own_their_data(self, tmp_path):
        path = long_csv(tmp_path / "p.csv", LONG_MONTHS)
        values = load_panel_csv(path).values
        assert not values.flags.writeable
        assert values.base is None
        assert values.flags.c_contiguous

    def test_short_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a,b\n2000-01,1,2\n2000-02,3\n")
        with pytest.raises(IngestionError, match="row 3"):
            load_panel_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("month,a\n2000-01,1\n")
        with pytest.raises(IngestionError, match="header"):
            load_panel_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"")
        with pytest.raises(IngestionError, match=r"p\.csv: empty file$"):
            load_panel_csv(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with the UTF-8 byte-order mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_panel_csv(make_panel(n=30, members=3, seed=2), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected, panel = load_panel_csv(plain), load_panel_csv(marked)
        assert (panel.ids, panel.start) == (expected.ids, expected.start)
        np.testing.assert_array_equal(panel.values, expected.values)

    def test_byte_order_mark_before_a_fault(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("date,a,b\n2000-01,1,2\n2000-02,3,oops\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for path in (plain, marked):
            with pytest.raises(IngestionError, match=r"row 3, column 'b': non-numeric"):
                load_panel_csv(path)

    def test_one_row_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a\n2000-01,1\n")
        with pytest.raises(IngestionError, match="2 data rows"):
            load_panel_csv(path)

    # the non-UTF-8 line is named before a row 2 with a cell too many, wherever it lies
    @pytest.mark.parametrize("rownum, row2", [
        pytest.param(3, "0,0", id="3"), pytest.param(2000, "0,0", id="2000"),
        pytest.param(3, "0,0,0", id="3-row2-4-cells"),
        pytest.param(2000, "0,0,0", id="2000-row2-4-cells"),
    ])
    def test_not_utf8_names_line(self, tmp_path, rownum, row2):
        path = long_csv(tmp_path / "p.csv", 2500, {2: row2, rownum: "1,2"})
        lines = path.read_bytes().split(b"\n")
        lines[rownum - 1] = lines[rownum - 1].replace(b",1,", b",1\xff,")
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(IngestionError,
                           match=f"line {rownum}: not UTF-8 text .*0xff"):
            load_panel_csv(path)

    def test_oversized_field_names_line(self, tmp_path):
        path = long_csv(tmp_path / "p.csv", 5, {3: "1" * 140_000 + ",2"})
        with pytest.raises(IngestionError, match="line 3: field larger than field limit"):
            load_panel_csv(path)

    # csv's limit bounds each field, unquoted, not the line: a long row of
    # short cells loads, and so does a quoted number of exactly the limit
    @pytest.mark.parametrize("cell, loads", [
        ("1", True), ('"' + "1" * 100 + '"', True), ("1" * 100, True), ("1" * 101, False),
        ('"' + "1" * 101 + '"', False),
    ])
    def test_field_limit_bounds_each_field(self, tmp_path, cell, loads):
        path = tmp_path / "p.csv"
        ids = [f"s{k}" for k in range(60)]
        row = ",".join(["2.5"] * 59)
        path.write_text(f"date,{','.join(ids)}\n2000-01,{cell},{row}\n2000-02,1,{row}\n")
        limit = csv.field_size_limit(100)
        try:
            if loads:
                assert load_panel_csv(path).values[0, 0] == float(cell.strip('"'))
            else:
                with pytest.raises(IngestionError,
                                   match="line 2: field larger than field limit"):
                    load_panel_csv(path)
        finally:
            csv.field_size_limit(limit)

    # \x1c-\x1f are whitespace to str.strip() and np.loadtxt, not to
    # float(); a quoted cell in another row must not change the answer
    @pytest.mark.parametrize("cell", ["1\x1c", "\x1f1", '"\x1e1\x1d"'])
    @pytest.mark.parametrize("other", ["2", '"2"'])
    def test_separators_beside_a_number_are_whitespace(self, tmp_path, cell, other):
        path = tmp_path / "p.csv"
        path.write_text(f"date,a,b\n2000-01,{cell},3\n2000-02,{other},4\n")
        assert load_panel_csv(path).values.tolist() == [[1.0, 3.0], [2.0, 4.0]]

    @pytest.mark.parametrize("other", ["2", '"2"'])
    def test_separator_before_the_real_fault_is_not_named(self, tmp_path, other):
        path = tmp_path / "p.csv"
        path.write_text(f"date,a,b\n2000-01,1\x1c,{other}\n2000-02,3,oops\n")
        with pytest.raises(IngestionError, match=r"row 3, column 'b': non-numeric value 'oops'$"):
            load_panel_csv(path)

    @pytest.mark.parametrize("cell", ['"1\n"', '"\r\n1"', '"1\r"'])
    def test_quoted_line_break_is_non_numeric(self, tmp_path, cell):
        # float() takes "1\n" as 1; np.loadtxt reads a file line by line
        path = tmp_path / "p.csv"
        path.write_bytes(f"date,a,b\n2000-01,2,3\n2000-02,{cell},4\n".encode())
        problem = re.escape(f"non-numeric value {cell[1:-1]!r}")
        with pytest.raises(IngestionError, match=rf"row 3, column 'a': {problem}$"):
            load_panel_csv(path)

    @pytest.mark.parametrize("form", ['"{}"-{:02}', '"{}-"{:02}', '""{}-{:02}', '"{}-0"{}'])
    def test_partly_quoted_date_loads(self, tmp_path, form):
        # csv.reader joins a cell's quoted part, quotes dropped, and the text after it
        path = tmp_path / "p.csv"
        path.write_text(f"date,a\n{form.format(2000, 1)},1\n{form.format(2000, 2)},2\n")
        panel = load_panel_csv(path)
        assert (panel.start, panel.values.tolist()) == (Month(2000, 1), [[1.0], [2.0]])


class TestRecessionCalendar:
    def test_contraction_labeling(self):
        cal = RecessionCalendar(((Month(1990, 7), Month(1991, 3)),))
        mask = cal.contraction_mask(Month(1990, 7), 10)  # 1990-07 .. 1991-04
        assert not mask[0]                              # peak: last expansion month
        assert mask[1]                                  # 1990-08
        assert mask[8]                                  # trough: last contraction month
        assert not mask[9]                              # 1991-04
        assert mask.tolist() == [False] + [True] * 8 + [False]
        assert not cal.contraction_mask(Month(1985, 1), 1)[0]

    def test_trough_in_the_last_month(self):
        # no month after the trough, 9999-12, is built
        cal = RecessionCalendar(((Month(9999, 9), Month(9999, 12)),))
        assert cal.contraction_mask(Month(9999, 8), 5).tolist() == [False, False] + [True] * 3

    def test_ordering_enforced(self):
        with pytest.raises(ContractError):
            RecessionCalendar(((Month(1990, 7), Month(1990, 7)),))
        with pytest.raises(ContractError, match="overlap"):
            RecessionCalendar((
                (Month(1990, 1), Month(1991, 1)),
                (Month(1990, 6), Month(1992, 1)),
            ))

    def test_overlaps(self):
        cal = RecessionCalendar(((Month(1990, 7), Month(1991, 3)),))

        def overlaps(first, last):  # some contraction month within first..last
            return cal.contraction_mask(first, last - first + 1).any()

        assert overlaps(Month(1991, 3), Month(1995, 1))
        assert overlaps(Month(1980, 1), Month(1990, 8))
        assert not overlaps(Month(1980, 1), Month(1990, 7))
        assert not overlaps(Month(1991, 4), Month(1999, 1))

    def test_loader_skips_byte_order_mark(self, tmp_path):
        path = tmp_path / "cal.csv"
        with open("data/us_recessions.csv", "rb") as fh:
            path.write_bytes(b"\xef\xbb\xbf" + fh.read())
        assert load_recession_csv(path) == load_recession_csv("data/us_recessions.csv")

    def test_load_shipped_calendars(self):
        us = load_recession_csv("data/us_recessions.csv")
        assert len(us.episodes) == 6
        assert us.episodes[2] == (Month(1990, 7), Month(1991, 3))
        japan = load_recession_csv("data/japan_recessions.csv")
        assert len(japan.episodes) == 8
        assert japan.episodes[-1] == (Month(2018, 10), Month(2020, 5))

    def test_loader_errors(self, tmp_path):
        bad_header = tmp_path / "a.csv"
        bad_header.write_text("start,end\n1990-07,1991-03\n")
        with pytest.raises(IngestionError, match="peak,trough"):
            load_recession_csv(bad_header)
        bad_date = tmp_path / "b.csv"
        bad_date.write_text("peak,trough\n1990-7,1991-03\n")
        with pytest.raises(IngestionError, match="row 2"):
            load_recession_csv(bad_date)
        no_episodes = tmp_path / "c.csv"
        no_episodes.write_text("peak,trough\n")
        with pytest.raises(IngestionError, match=r"c\.csv: no episodes after the header$"):
            load_recession_csv(no_episodes)

    @pytest.mark.parametrize("text, message", [
        ("start,end\n1990-07,1991-03\n", "row 1: header must be exactly 'peak,trough'"),
        ("", "row 1: header must be exactly 'peak,trough'"),
        ("peak,trough\n1990-07,1991-03\n2001-03\n", "row 3: expected 2 cells, got 1"),
        ("peak,trough\n1990-07,1991-13\n", "row 2: month must be in 1..12, got 13"),
        ("peak,trough\n1990-07,1991-03\n2001-03,2001-03\n",
         "row 3: episode peak 2001-03 must precede trough 2001-03"),
        ("peak,trough\n1990-07,1991-03\n1991-01,1992-01\n",
         "row 3: episode starting 1991-01 overlaps previous trough 1991-03"),
    ], ids=["header", "empty", "cells", "month", "peak-not-before-trough", "overlap"])
    def test_loader_error_names_its_row(self, tmp_path, text, message):
        path = tmp_path / "cal.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(IngestionError) as info:
            load_recession_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_loader_reports_faults_in_file_order(self, tmp_path):
        # the overlap in row 3 is met before the bad month in row 4
        path = tmp_path / "cal.csv"
        rows = ["peak,trough", "1990-07,1991-03", "1991-01,1992-01", "1993-13,1994-01"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(IngestionError, match=r"cal\.csv: row 3: episode starting 1991-01"):
            load_recession_csv(path)
        rows[2] = "1991-04,1992-01"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(IngestionError, match=r"cal\.csv: row 4: month must be in 1\.\.12"):
            load_recession_csv(path)

    @pytest.mark.parametrize("cell", ['"1990-07\n"', "\u0661\u0669\u0669\u0660-\u0660\u0667"])
    def test_loader_rejects_date_that_is_not_yyyy_mm(self, tmp_path, cell):
        path = tmp_path / "cal.csv"
        path.write_text(f"peak,trough\n2001-03,2001-11\n{cell},1991-03\n", encoding="utf-8")
        with pytest.raises(IngestionError, match="row 3: expected YYYY-MM date"):
            load_recession_csv(path)

    def test_loader_not_utf8_names_line(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_bytes(b"peak,trough\n1990-07,1991-03\n\xff2001-03,2001-11\n")
        with pytest.raises(IngestionError, match="line 3: not UTF-8 text"):
            load_recession_csv(path)


@st.composite
def calendars(draw):
    """A valid calendar of up to 5 episodes from 1990-01, each peak at or
    after the previous trough."""
    episodes, trough = [], Month(1990, 1)
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 30)),
                                     max_size=5)):
        peak = trough + gap
        trough = peak + length
        episodes.append((peak, trough))
    return RecessionCalendar(tuple(episodes))


ONE_EPISODE = RecessionCalendar(((Month(1990, 7), Month(1991, 3)),))


# the examples start inside, end inside, lie wholly before and wholly after
# the episode; generated ranges run from 40 months before the first possible
# peak to 50 months after the last possible trough
@example(ONE_EPISODE, Month(1990, 10), 12)
@example(ONE_EPISODE, Month(1990, 1), 10)
@example(ONE_EPISODE, Month(1985, 1), 66)
@example(ONE_EPISODE, Month(1991, 4), 24)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(calendars(), st.integers(-40, 350).map(lambda k: Month(1990, 1) + k),
       st.integers(0, 120))
def test_contraction_mask_is_the_per_month_rule(calendar, first, count):
    mask = calendar.contraction_mask(first, count)
    assert mask.dtype == bool and mask.shape == (count,)
    for k in range(count):
        assert mask[k] == any(p < first + k <= t for p, t in calendar.episodes)
