"""Differential tests of the event CSV reader.

``read_events_csv`` parses the body in one bulk pass, the array decoder
of ``_decode.event_cells``, when every row is as ``write_events_stream``
writes it, and hands any other file to the line-by-line parser,
``_read_events_lines``.  On every input it must therefore agree with a
read that declines the bulk pass: the same catalog, or the same
exception type with the same message.  The decoder rounds decimals
itself, so its doubles are also checked bit for bit against ``float``
on written catalogs, random decimals, halfway cases and a fixed list of
edge cases; each of those in another form must leave the bulk pass.
"""

from __future__ import annotations

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stormrisk as sr
from stormrisk._decode import _CHUNK_ROWS, _Q_MAX, _Q_MIN, event_cells
from stormrisk.io import _load_events_body, _read_events_lines, write_events_stream

from helpers import event_csvs, stationary_config


def read_by_lines(path):
    """``read_events_csv`` with the bulk pass declined, so that the line
    parser reads every line."""
    with mock.patch("stormrisk.io._load_events_body", return_value=None):
        return sr.read_events_csv(path)

def outcome(read, path):
    try:
        c = read(path)
    except Exception as exc:  # the exception itself is what is compared
        return ("raised", type(exc), str(exc))
    return (
        "catalog",
        c.start_year,
        c.counts.tobytes(),
        c.sums.tobytes(),
        c.event_years.tobytes(),
        c.intensities.tobytes(),
    )


def written_form(year: str, intensity: str) -> bool:
    """Whether the bulk pass reads the row ``year,intensity``: a year of
    at most 19 digits after an optional "-", and an intensity of at most
    19 significant and 23 digits, an exponent of at most 8 digits and a
    decimal exponent in the decoder's power table."""
    m = re.fullmatch(r"(\d*)(?:\.(\d*))?(?:[eE]([+-]?\d{1,8}))?", intensity)
    if re.fullmatch(r"-?\d{1,19}", year) is None or m is None:
        return False
    whole, frac, exp = m.group(1), m.group(2) or "", m.group(3) or "0"
    digits = whole + frac
    return 1 <= len(digits) <= 23 and int(digits) < 10**19 and _Q_MIN <= int(exp) - len(frac) <= _Q_MAX


def assert_line_parser_reads(path):
    """``path`` leaves the bulk pass and reads as the line parser reads it."""
    assert _load_events_body(path) is None
    assert outcome(sr.read_events_csv, path) == outcome(read_by_lines, path)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=event_csvs())
def test_reader_matches_line_parser(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("events") / "e.csv"
    path.write_bytes(data)
    assert outcome(sr.read_events_csv, path) == outcome(read_by_lines, path)


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_bulk_pass_reads_plain_csvs(tmp_path, eol):
    text = f"\ufeffyear,intensity{eol}2041,1.5{eol}2040,2.5e-3{eol}{eol}2041,.5"
    path = tmp_path / "e.csv"
    path.write_text(text, encoding="utf-8", newline="")
    body = _load_events_body(path)
    assert body is not None
    years, intensities = body
    assert years.tolist() == [2041, 2040, 2041]
    assert intensities.tolist() == [1.5, 2.5e-3, 0.5]
    # padded fields are left to the line parser, which reads the same catalog
    padded = tmp_path / "padded.csv"
    padded.write_text(text.replace("2040,2.5e-3", " 2040 , 2.5e-3 "), encoding="utf-8", newline="")
    assert_line_parser_reads(padded)
    assert outcome(sr.read_events_csv, padded) == outcome(sr.read_events_csv, path)


def test_bulk_pass_reads_written_catalogs(tmp_path):
    catalog = sr.simulate_catalog(
        stationary_config("lognormal", lam=400.0, mu=1.0, shape=1.0, years=(1, 60))
    )
    path = tmp_path / "e.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        write_events_stream(catalog, fh)
    body = _load_events_body(path)
    assert body is not None
    years, intensities = body
    assert np.array_equal(years, catalog.event_years)
    assert np.array_equal(intensities, catalog.intensities)


@pytest.mark.parametrize(
    "body",
    ["2040,nan", "2040,0", "2040,-1.5", "2040,1e400", "2040,1_0", '"2040",1', "2040,1\n \n"],
)
def test_bulk_pass_defers_to_line_parser(tmp_path, body):
    path = tmp_path / "e.csv"
    path.write_text(f"year,intensity\n{body}\n", encoding="utf-8")
    assert _load_events_body(path) is None


def test_years_must_fit_in_int64(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("year,intensity\n9223372036854775807,1.5\n", encoding="utf-8")
    assert sr.read_events_csv(path).event_years.tolist() == [2**63 - 1]
    for year in ("9223372036854775808", "-9223372036854775809"):
        path.write_text(f"year,intensity\n2040,1\n{year},1.5\n", encoding="utf-8")
        with pytest.raises(sr.CatalogFormatError, match="line 3: year must fit"):
            sr.read_events_csv(path)


# --- exactness of the array decoder -------------------------------------------


def bits(values) -> list[int]:
    return np.asarray(values, np.float64).view(np.uint64).tolist()


POSITIVE_DOUBLES = st.one_of(
    st.integers(1, 0x7FEFFFFFFFFFFFFF),  # any positive finite double
    st.integers(1, 2**52 - 1),  # a subnormal
    st.floats(1e-4, 1e16).map(lambda x: np.float64(x).view(np.uint64).item()),  # fixed layout
)


# Three years each: ordinary ones, around 0, and at the top and the
# bottom of int64, the first of each at its edge.
WRITTEN_YEARS = [
    (2040, 2041, 2042), (-1, 0, -2), (2**63 - 1, 2**63 - 2, 2**63 - 3), (-(2**63), 1 - 2**63, 2 - 2**63)
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(POSITIVE_DOUBLES, min_size=1, max_size=48), st.sampled_from(WRITTEN_YEARS))
def test_every_written_double_reads_back_bit_for_bit(tmp_path_factory, patterns, years):
    x = np.array(patterns, np.uint64).view(np.float64)
    catalog = sr.EventCatalog.from_events(np.array(years)[np.arange(len(x)) % 3], x)
    path = tmp_path_factory.mktemp("events") / "e.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        write_events_stream(catalog, fh)
    body = _load_events_body(path)
    assert body is not None  # exponent forms, subnormals and int64 edges stay in the array pass
    assert body[0].tolist() == catalog.event_years.tolist()
    assert bits(body[1]) == bits(catalog.intensities)


@st.composite
def decimal_texts(draw) -> str:
    """A decimal of 1 to 26 digits, maybe with a point and an exponent."""
    digits = draw(st.text("0123456789", min_size=1, max_size=26))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(digits)))
        digits = f"{digits[:at]}.{digits[at:]}"
    if draw(st.booleans()):
        sign = draw(st.sampled_from(["", "+", "-"]))
        digits += f"{draw(st.sampled_from('eE'))}{sign}{draw(st.integers(0, 400))}"
    return digits


@st.composite
def halfway_texts(draw) -> str:
    """The midpoint of two adjacent doubles from 2^50 to 2^64, whose
    digits end at most three places after the point, or a decimal one
    unit away in its last place; written with its point anywhere, maybe
    with trailing zeros and an exponent."""
    d = float(draw(st.integers(2**50, 2**64 - 2**12)))
    value = int(d) * 1000 + int(math.ulp(d) * 500) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    exp = -3
    while value % 10 == 0:
        value, exp = value // 10, exp + 1
    digits = str(value) + "0" * draw(st.integers(0, 3))
    exp -= len(digits) - len(str(value))
    at = draw(st.integers(0, len(digits)))
    exp += len(digits) - at
    return f"{digits[:at]}.{digits[at:]}e{exp}"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(decimal_texts(), halfway_texts()), min_size=1, max_size=40))
def test_the_decoder_rounds_every_decimal_as_float_does(texts):
    texts = [t for t in texts if float(t) != 0]  # a zero sends the block to the line parser
    written = [t for t in texts if written_form("7", t)]
    cells = event_cells("".join(f"7,{t}\n" for t in written).encode())
    assert cells is not None
    assert bits(cells[1]) == bits([float(t) for t in written])
    for t in set(texts) - set(written):  # wider than the writer writes
        assert event_cells(f"7,{t}\n".encode()) is None, t


def test_every_power_of_ten_of_the_table_rounds_as_float_does():
    # 32 random significands of 16 to 19 digits at every decimal exponent
    # of the power-of-five table, the subnormal and infinite ends included;
    # more rows than the decoder takes at once
    rng = np.random.default_rng(20230601)
    w = rng.integers(10**15, 10**19, size=(651, 32), dtype=np.uint64)
    texts = [f"{m}e{q}" for q, row in zip(range(-342, 309), w.tolist()) for m in row]
    texts = [t for t in texts if float(t) != 0]
    cells = event_cells("".join(f"1,{t}\r\n" for t in texts).encode())
    assert len(texts) > _CHUNK_ROWS and cells is not None
    assert bits(cells[1]) == bits([float(t) for t in texts])


# Cells at the edges of the decoder's cases: ties to even at 16 to 19
# significant digits (2^53 + 1 and its neighbours, .5, .25 and .125 steps
# at 2^52, 2^51 and 2^50), more than 19 or 23 digits, the subnormal and
# normal boundary, the largest double, leading zeros, signs and exponents
# of 8 and 9 digits.
EDGE_INTENSITIES = [
    "9007199254740993", "9007199254740993.0", "9007199254740995", "9007199254740994.9999",
    "900719925474099.3e1", "4503599627370497.5", "4503599627370498.5", "2251799813685249.25",
    "2251799813685249.75", "1125899906842625.125", "1125899906842625.375", "18014398509481989",
    "9223372036854775807", "18446744073709551615", "18446744073709551616", "1.00000000000000000001",
    "123456789012345678901234567890", "0.000000000000000000000000000000000000000001234",
    "5e-324", "4.9406564584124654e-324", "2.2250738585072009e-308", "2.225073858507201e-308",
    "2.2250738585072011e-308", "2.2250738585072014e-308", "1.7976931348623157e308",
    "1.7976931348623158e+308", "0001.5", "0000000000000000000000000001.25", "7.0e-0005",
    "+2.5", ".5", "5.", "1E3", "6.535338187396711e-05", "2.5e00000003", "1.5e000000001",
]
EDGE_YEARS = [
    "0002040", "-0000007", "+17", "9223372036854775807", "-9223372036854775807",
    "-9223372036854775808", "000000000000000000000002040",
]


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r", "mixed"])
def test_edge_cells_read_as_the_line_parser_reads_them(tmp_path, eol):
    rows = [("2040", x) for x in EDGE_INTENSITIES] + [(y, "1.5") for y in EDGE_YEARS]
    ends = ["\n", "\r\n", "\r"] * len(rows) if eol == "mixed" else [eol] * len(rows)
    written = [(",".join(row), end) for row, end in zip(rows, ends) if written_form(*row)]
    text = "year,intensity\r\n" + "".join(row + end for row, end in written)
    path = tmp_path / "e.csv"
    path.write_bytes(text.rstrip("\r\n").encode())  # the last line has no line end
    body = _load_events_body(path)
    assert body is not None
    years, intensities = _read_events_lines(path)
    assert body[0].tolist() == years
    assert bits(body[1]) == bits(intensities)
    # a "+" sign, a year of 20 or more digits, an intensity of more than
    # 19 significant or 23 digits or with a 9-digit exponent: each in a
    # file of its own
    others = [(",".join(row), end) for row, end in zip(rows, ends) if not written_form(*row)]
    assert len(others) == 11
    for row, end in others:
        path.write_bytes(f"year,intensity\r\n2041,2.5{end}{row}".encode())
        assert_line_parser_reads(path)
        assert outcome(sr.read_events_csv, path)[0] == "catalog", row


@pytest.mark.parametrize("cell", ["1e-400", "1e309", "0.0", "00e5"])
def test_a_cell_that_rounds_to_zero_or_infinity_is_left_to_the_line_parser(tmp_path, cell):
    path = tmp_path / "e.csv"
    path.write_text(f"year,intensity\n2040,1.5\n2041,{cell}\n", encoding="utf-8")
    assert event_cells(f"2041,{cell}\n".encode()) is None  # a zero, or an exponent past the table
    assert _load_events_body(path) is None
    with pytest.raises(sr.CatalogFormatError, match="line 3: intensity must be positive"):
        sr.read_events_csv(path)


@pytest.mark.parametrize(
    "row",
    ["2040,.", "2040,+", "2040,1e5.5", "2040,1e", "2040,1e+", "+,1.5", "-,1.5", "2040," + "0" * 300_000 + "1.5"],
    ids=["point", "plus", "point-after-e", "e", "e-plus", "plus-year", "minus-year", "longer-than-a-block"],
)
def test_rows_the_decoder_does_not_read_go_to_the_line_parser(tmp_path, row):
    path = tmp_path / "e.csv"
    path.write_text(f"year,intensity\n2041,2.5\n{row}\n", encoding="utf-8")
    assert_line_parser_reads(path)
