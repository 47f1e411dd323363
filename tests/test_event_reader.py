"""Differential tests of the event CSV reader.

``read_events_csv`` parses the body in one bulk pass and hands anything
that pass does not accept to the line-by-line parser.  On every input it
must therefore agree with ``_read_events_lines``: the same catalog, or
the same exception type with the same message.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stormrisk as sr
from stormrisk.io import _load_events_body, _read_events_lines, write_events_stream

from helpers import stationary_config

# Years stay small or sit at the int64 limits: a file mixing the two asks
# for a per-year array far beyond any machine, which fails at once, while
# a span of 10^8 to 10^9 years would really be allocated.
CLEAN_YEARS = st.integers(-3, 2100).map(str)
ODD_YEARS = st.sampled_from(
    [
        "+2040",
        "-7",
        "0005",
        "1_0",
        "2040.0",
        "2e3",
        "9223372036854775807",
        "-9223372036854775808",
        "9223372036854775808",
        "99999999999999999999",
        "#2040",
        "",
        "year",
        "\u0663",
    ]
)
CLEAN_INTENSITIES = st.one_of(
    st.floats(min_value=5e-324, max_value=1e308).map(repr),
    st.floats(min_value=0.01, max_value=1e4).map(repr),
    st.integers(1, 500).map(str),
    st.sampled_from([".5", "5.", "+2.5", "1e3", "2.5E-3", "5e-324", "1.7976931348623157e308"]),
)
ODD_INTENSITIES = st.sampled_from(
    [
        "0",
        "-3",
        "-2.5",
        "1e400",
        "1e-400",
        "-0.0",
        "nan",
        "inf",
        "-inf",
        "Infinity",
        "1_0.5",
        "0x10",
        "3#",
        "2.5#note",
        "1e3 # x",
        "#3",
        "",
        "abc",
    ]
)
YEARS = st.one_of(CLEAN_YEARS, ODD_YEARS)
INTENSITIES = st.one_of(CLEAN_INTENSITIES, ODD_INTENSITIES)
PADDING = st.sampled_from(["", "", "", " ", "  ", "\t", "\xa0"])
CLEAN_KINDS = ("row",) * 12 + ("blank",)
ODD_KINDS = ("space", "one", "three")


@st.composite
def fields(draw, token, quoted):
    text = draw(token)
    if quoted and draw(st.booleans()):
        text = f'"{text}"'
    return draw(PADDING) + text + draw(PADDING)


@st.composite
def lines(draw, years, intensities, kinds, quoted=False):
    """One body line of a kind drawn from ``kinds``; fields are padded and,
    if ``quoted``, sometimes quoted."""
    kind = draw(st.sampled_from(kinds))
    if kind == "blank":
        return ""
    if kind == "space":
        return draw(st.sampled_from([" ", "\t", "  \t ", "\xa0"]))
    row = [draw(fields(years, quoted))]
    if kind != "one":
        row.append(draw(fields(intensities, quoted)))
    if kind == "three":
        row.append(draw(fields(intensities, quoted)))
    return ",".join(row)


CLEAN_LINES = lines(CLEAN_YEARS, CLEAN_INTENSITIES, CLEAN_KINDS)
ANY_LINES = lines(YEARS, INTENSITIES, CLEAN_KINDS + ODD_KINDS, quoted=True)
ODD_LINES = st.one_of(
    lines(ODD_YEARS, INTENSITIES, ("row",)),
    lines(YEARS, ODD_INTENSITIES, ("row",)),
    lines(CLEAN_YEARS, CLEAN_INTENSITIES, ("row",), quoted=True),
    lines(YEARS, INTENSITIES, ODD_KINDS, quoted=True),
)


@st.composite
def event_csvs(draw) -> bytes:
    """The bytes of an event CSV, with any line ends and an optional BOM:
    clean throughout, clean but for one odd line, or arbitrary."""
    mode = draw(st.sampled_from(["clean", "one odd line", "one odd line", "arbitrary"]))
    headers = ["year,intensity", " Year , INTENSITY "]
    if mode == "arbitrary":
        headers += ['"year","intensity"', "yr,intensity", "year", ""]
    header = draw(st.sampled_from(headers))
    body = draw(st.lists(ANY_LINES if mode == "arbitrary" else CLEAN_LINES, max_size=12))
    if mode == "one odd line":
        body.insert(draw(st.integers(0, len(body))), draw(ODD_LINES))
    rows = [header] + body
    eol = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    if eol == "mixed":
        ends = draw(
            st.lists(
                st.sampled_from(["\n", "\r\n", "\r"]),
                min_size=len(rows),
                max_size=len(rows),
            )
        )
    else:
        ends = [eol] * len(rows)
    if not draw(st.booleans()):
        ends[-1] = ""
    text = "".join(row + end for row, end in zip(rows, ends))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + text).encode("utf-8")


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


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=event_csvs())
def test_reader_matches_line_parser(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("events") / "e.csv"
    path.write_bytes(data)
    assert outcome(sr.read_events_csv, path) == outcome(_read_events_lines, path)


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_bulk_pass_reads_plain_csvs(tmp_path, eol):
    text = f"\ufeffyear,intensity{eol}2041,1.5{eol} 2040 , 2.5e-3 {eol}{eol}2041,.5"
    path = tmp_path / "e.csv"
    path.write_text(text, encoding="utf-8", newline="")
    body = _load_events_body(path)
    assert body is not None
    assert body["year"].tolist() == [2041, 2040, 2041]
    assert body["intensity"].tolist() == [1.5, 2.5e-3, 0.5]


def test_bulk_pass_reads_written_catalogs(tmp_path):
    catalog = sr.simulate_catalog(
        stationary_config("lognormal", lam=400.0, mu=1.0, shape=1.0, years=(1, 60))
    )
    path = tmp_path / "e.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        write_events_stream(catalog, fh)
    body = _load_events_body(path)
    assert body is not None
    assert np.array_equal(body["year"], catalog.event_years)
    assert np.array_equal(body["intensity"], catalog.intensities)


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
