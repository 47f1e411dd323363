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

import stormrisk as sr
from stormrisk.io import _load_events_body, _read_events_lines, write_events_stream

from helpers import event_csvs, stationary_config

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
