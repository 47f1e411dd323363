import csv
import io
import itertools
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stormrisk as sr
from stormrisk.catalog import _INT64_MAX, _INT64_MIN, _MAX_ROWS
from stormrisk.cli import run
from stormrisk.estimate import long_run_series
from stormrisk.frequency import rate
from stormrisk.io import (
    CatalogFormatError,
    ConfigError,
    _EventYears,
    _load_events_body,
    config_dict,
    write_csv_rows,
    write_events_stream,
    write_series_stream,
)

from helpers import read_series, stationary_config


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def write_series(series, path):
    with path.open("w", encoding="utf-8", newline="") as fh:
        write_series_stream(series, fh)


# --- event CSV -----------------------------------------------------------------


def test_read_events_basic(tmp_path):
    path = write(tmp_path, "e.csv", "year,intensity\n2040,26.7\n2040,30.1\n2041,22.0\n")
    catalog = sr.read_events_csv(path)
    assert catalog.start_year == 2040
    assert catalog.counts.tolist() == [2, 1]
    assert catalog.sums[0] == pytest.approx(56.8, rel=1e-12)


def test_read_events_fills_year_gaps(tmp_path):
    path = write(tmp_path, "e.csv", "year,intensity\n2040,5\n2042,7\n")
    catalog = sr.read_events_csv(path)
    assert catalog.years.tolist() == [2040, 2041, 2042]
    assert catalog.counts.tolist() == [1, 0, 1]
    assert catalog.sums[1] == 0.0


def test_read_events_accepts_any_row_order_and_crlf(tmp_path):
    path = write(tmp_path, "e.csv", "year,intensity\r\n2041,1.5\r\n2040,2.5\r\n")
    catalog = sr.read_events_csv(path)
    assert catalog.counts.tolist() == [1, 1]
    assert catalog.event_years.tolist() == [2040, 2041]
    assert catalog.intensities.tolist() == [2.5, 1.5]
    # a whitespace-only line is skipped like a blank one
    path = write(tmp_path, "ws.csv", "year,intensity\r\n2041,1.5\r\n \t\r\n2040,2.5\r\n")
    assert sr.read_events_csv(path).intensities.tolist() == [2.5, 1.5]


def test_read_events_keeps_file_order_within_a_year(tmp_path):
    path = write(
        tmp_path,
        "e.csv",
        "year,intensity\n2045,1.5\n2040,2.5\n2045,3.5\n2042,4.5\n",
    )
    catalog = sr.read_events_csv(path)
    assert catalog.years.tolist() == list(range(2040, 2046))
    assert catalog.counts.tolist() == [1, 0, 1, 0, 0, 2]
    assert catalog.intensities.tolist() == [2.5, 4.5, 1.5, 3.5]


def test_read_events_errors_are_located(tmp_path):
    with pytest.raises(CatalogFormatError, match="line 2"):
        sr.read_events_csv(write(tmp_path, "neg.csv", "year,intensity\n2040,-3\n"))
    with pytest.raises(CatalogFormatError, match="line 3"):
        sr.read_events_csv(
            write(tmp_path, "nan.csv", "year,intensity\n2040,3\n2041,abc\n")
        )
    with pytest.raises(CatalogFormatError, match="line 2"):
        sr.read_events_csv(
            write(tmp_path, "year.csv", "year,intensity\n2040.5,3\n")
        )
    with pytest.raises(CatalogFormatError, match="header"):
        sr.read_events_csv(write(tmp_path, "hdr.csv", "yr,intensity\n2040,3\n"))
    with pytest.raises(CatalogFormatError, match="empty"):
        sr.read_events_csv(write(tmp_path, "empty.csv", ""))
    with pytest.raises(CatalogFormatError, match="no event rows"):
        sr.read_events_csv(write(tmp_path, "only.csv", "year,intensity\n"))
    with pytest.raises(CatalogFormatError, match="2 fields"):
        sr.read_events_csv(write(tmp_path, "wide.csv", "year,intensity\n2040,3,9\n"))
    with pytest.raises(CatalogFormatError, match="finite"):
        sr.read_events_csv(write(tmp_path, "inf.csv", "year,intensity\n2040,inf\n"))
    # the first undecodable byte, past the text stream's first decode chunk
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"year,intensity\r\n" + b"2040,1.5\r\n" * 2000 + b"2041,\xff\r\n")
    with pytest.raises(CatalogFormatError, match=r"latin1\.csv: line 2002: not UTF-8, byte 0xff$"):
        sr.read_events_csv(latin1)


def test_a_file_that_decodes_when_read_again_names_no_line(tmp_path, monkeypatch):
    # the line parser fails to decode, then the whole file decodes: it
    # changed between the two reads
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"year,intensity\r\n2041,\xff\r\n")
    monkeypatch.setattr(Path, "read_bytes", lambda self: b"year,intensity\r\n2041,1.5\r\n")
    with pytest.raises(CatalogFormatError, match=f"^{re.escape(str(latin1))}: not UTF-8$"):
        sr.read_events_csv(latin1)


@pytest.mark.parametrize(
    "first_row, bulk",
    [("-9223372036854775808,1.5", True), ('"-9223372036854775808",1.5', False)],
    ids=["bulk pass", "line parser"],
)
def test_read_events_span_error_names_the_file(tmp_path, first_row, bulk):
    # a quoted field is left to the line parser; either parser's events
    # make the catalog in the one call whose error is located
    path = write(tmp_path, "span.csv", f"year,intensity\n{first_row}\n9223372036854775807,2\n")
    assert (_load_events_body(path) is not None) == bulk
    message = (
        f"{path}: event years -9223372036854775808 to 9223372036854775807 span "
        f"18446744073709551616 years, more than the {_MAX_ROWS} a catalog may hold"
    )
    with pytest.raises(CatalogFormatError) as info:
        sr.read_events_csv(path)
    assert str(info.value) == message
    report = run(["analyze", "--input", str(path)])
    assert report.payload == {"error": message}


def test_catalog_at_the_edges_of_its_value_ranges():
    # a NaN intensity is named as a non-positive or infinite one is
    with pytest.raises(ValueError, match=r"^intensities must be positive and finite, found nan$"):
        sr.EventCatalog.from_events([1, 2], [1.0, math.nan])
    # the last year may be the largest int64
    catalog = sr.EventCatalog(2**63 - 3, np.array([0, 0, 1]), np.array([1.0]))
    assert catalog.years.tolist() == [2**63 - 3, 2**63 - 2, 2**63 - 1]


def _catalog(start_year=1, counts=(1, 0), intensities=(2.0,)):
    return sr.EventCatalog(start_year, np.array(counts), np.array(intensities))


CATALOG_ERROR_CASES = {
    "no-years": (lambda: _catalog(counts=()), "catalog must cover at least one year"),
    "start-year-float": (
        lambda: _catalog(start_year=1.5), "start_year: must be an integer, got 1.5"
    ),
    "start-year-bool": (
        lambda: _catalog(start_year=True), "start_year: must be an integer, got True"
    ),
    "start-year-past-int64": (
        lambda: _catalog(start_year=2**63),
        f"start_year: years {2**63} to {2**63 + 1} must be signed 64-bit integers",
    ),
    "last-year-past-int64": (
        lambda: _catalog(start_year=2**63 - 1),
        f"start_year: years {2**63 - 1} to {2**63} must be signed 64-bit integers",
    ),
    "counts-float": (
        lambda: _catalog(counts=(1.0, 0.0)), "counts: must be integers, got float64 values"
    ),
    "counts-2d": (
        lambda: _catalog(counts=((1, 0),)), "counts: must be 1-d, got shape (1, 2)"
    ),
    "negative-count": (
        lambda: _catalog(counts=(2, -1)), "per-year counts must be non-negative"
    ),
    "count-total": (
        lambda: _catalog(counts=(1, 1)), "per-year counts do not add up to the event total"
    ),
    "count-total-wraps": (
        lambda: _catalog(counts=(2**63 - 1, 2**63 - 1, 2), intensities=()),
        "per-year counts do not add up to the event total",
    ),
    "intensities-str": (
        lambda: _catalog(intensities=("2.0",)),
        "intensities: must be real numbers, got <U3 values",
    ),
    "intensities-bool": (
        lambda: _catalog(intensities=(True,)),
        "intensities: must be real numbers, got bool values",
    ),
    "intensities-complex": (
        lambda: _catalog(intensities=(2 + 0j,)),
        "intensities: must be real numbers, got complex128 values",
    ),
    "intensities-2d": (
        lambda: _catalog(intensities=((2.0,),)), "intensities: must be 1-d, got shape (1, 1)"
    ),
    "intensities-text-from-events": (
        lambda: sr.EventCatalog.from_events([1, 2], ["1.5", "2"]),
        "intensities: must be real numbers, got <U3 values",
    ),
    "events-misaligned": (
        lambda: sr.EventCatalog.from_events([1, 2], [1.0]),
        "years and intensities must be 1-d and aligned",
    ),
    "events-2d": (
        lambda: sr.EventCatalog.from_events([[1]], [[1.0]]),
        "years and intensities must be 1-d and aligned",
    ),
    "empty-no-range": (
        lambda: sr.EventCatalog.from_events([], []),
        "empty event list: a catalog's years come from its events",
    ),
    "years-float": (
        lambda: sr.EventCatalog.from_events([1.5, 2.7], [1.0, 1.0]),
        "years: must be signed 64-bit integers, got float64 values",
    ),
    "years-str": (
        lambda: sr.EventCatalog.from_events(["1"], [1.0]),
        "years: must be signed 64-bit integers, got <U1 values",
    ),
    "years-bool": (
        lambda: sr.EventCatalog.from_events([True], [1.0]),
        "years: must be signed 64-bit integers, got bool values",
    ),
    "years-uint64-past-int64": (
        lambda: sr.EventCatalog.from_events(np.array([1, 2**63], dtype=np.uint64), [1.0, 1.0]),
        "years: must be signed 64-bit integers, got uint64 values",
    ),
    "years-list-past-int64": (
        lambda: sr.EventCatalog.from_events([2**63], [1.0]),
        "years: must be signed 64-bit integers, got uint64 values",
    ),
    "intensity-inf": (
        lambda: sr.EventCatalog.from_events([1, 2], [1.0, math.inf]),
        "intensities must be positive and finite, found inf",
    ),
}


@pytest.mark.parametrize(
    "make, message", CATALOG_ERROR_CASES.values(), ids=CATALOG_ERROR_CASES.keys()
)
def test_catalog_errors_name_the_broken_rule(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


def test_catalog_round_trip_preserves_events(tmp_path):
    cfg = dump(
        tmp_path,
        {
            **minimal_simulate_config(),
            "severity": {"family": "gamma", "beta0": 2.0, "beta1": 0.0, "shape": 1.5},
            "years": [2040, 2099],
            "seed": 5,
        },
    )
    path = tmp_path / "cat.csv"
    assert run(["simulate", "--config", str(cfg), "--out", str(path)]).payload["n_events"]
    catalog = sr.simulate_catalog(sr.parse_config(cfg, "simulate"))
    back = sr.read_events_csv(path)
    assert np.array_equal(back.event_years, catalog.event_years)
    assert np.array_equal(back.intensities, catalog.intensities)
    assert np.array_equal(back.counts, catalog.counts)


NUMPY_INTEGERS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def any_integer(value: int):
    """``value`` as a Python int or any numpy integer type that holds it, or as a bool."""
    types = [t for t in NUMPY_INTEGERS if np.iinfo(t).min <= value <= np.iinfo(t).max]
    return st.sampled_from([int, int, *types, bool]).map(lambda t: t(value))


@st.composite
def event_inputs(draw):
    """Years and intensities in the forms `from_events` may be handed:
    lists, integer, float and string arrays, bools, years past int64, and
    intensities that are zero, negative, infinite or NaN."""
    start = draw(st.integers(-1000, 3000) | st.integers(_INT64_MIN, 2**64 - 51))
    years = [start + o for o in draw(st.lists(st.integers(0, 50), min_size=1, max_size=20))]
    forms = [list, list, lambda v: [str(y) for y in v], lambda v: np.array(v, dtype=np.float64)]
    forms += [lambda v, t=t: np.array(v, dtype=t) for t in NUMPY_INTEGERS
              if np.iinfo(t).min <= min(years) and max(years) <= np.iinfo(t).max]
    years = draw(st.sampled_from(forms))(years) if draw(st.integers(0, 9)) else [True] * len(years)
    n = len(years)
    intensities = draw(st.lists(st.floats(5e-324, 1.7976931348623157e308), min_size=n, max_size=n))
    if draw(st.integers(0, 9)) == 0:
        odd = st.sampled_from([0.0, -1.0, math.inf, math.nan])
        intensities[draw(st.integers(0, n - 1))] = draw(odd)
    return years, intensities


@settings(max_examples=300, deadline=None, derandomize=True)
@given(events=event_inputs())
@example(events=([1, 2], [1.0, math.inf]))
@example(events=(np.array([2**63], dtype=np.uint64), [1.0]))
@example(events=([1.5, 2.7], [1.0, 2.0]))
@example(events=(["1"], [1.0]))
@example(events=([1, 2], ["1.5", "2"]))
@example(events=([1, 2], [True, True]))
@example(events=([1, 2], [b"1.5", b"2"]))
@example(events=([1, 2], [1.5, 2 + 0j]))
def test_every_catalog_from_events_accepts_writes_and_reads_back(tmp_path_factory, events):
    # the CSV holds the events, not a year_range, so none is given
    years, intensities = events
    try:
        catalog = sr.EventCatalog.from_events(years, intensities)
    except ValueError:
        return
    # the catalog holds the years it was given, not a truncation or a wrap,
    # and intensities given as real numbers, not parsed from text or bools
    assert catalog.event_years.tolist() == sorted(np.asarray(years).tolist())
    assert np.asarray(intensities).dtype.kind in "iuf"
    path = tmp_path_factory.mktemp("events") / "events.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        write_events_stream(catalog, fh)
    back = sr.read_events_csv(path)
    assert back.start_year == catalog.start_year
    for name in ("event_years", "intensities", "counts", "sums"):
        a, b = getattr(back, name), getattr(catalog, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@st.composite
def catalog_inputs(draw):
    """Constructor arguments: a start year near 0 or at either int64 limit,
    counts as a list or any numpy integer array, and intensities as a list
    of doubles or integers, or a float32 array."""
    start = draw(
        st.integers(-1000, 3000)
        | st.integers(_INT64_MIN - 2, _INT64_MIN + 40)
        | st.integers(_INT64_MAX - 40, _INT64_MAX + 2)
    )
    counts = draw(st.lists(st.integers(0, 5), min_size=1, max_size=30))
    forms = [list, *(lambda v, t=t: np.array(v, dtype=t) for t in NUMPY_INTEGERS)]
    counts = draw(st.sampled_from(forms))(counts)
    n = int(sum(counts))
    doubles = st.floats(5e-324, 1.7976931348623157e308)
    singles = st.floats(1.401298464324817e-45, 3.4028234663852886e38, width=32)
    x = draw(
        st.lists(doubles, min_size=n, max_size=n)
        | st.lists(st.integers(1, 2**62), min_size=n, max_size=n)
        | st.lists(singles, min_size=n, max_size=n).map(lambda v: np.array(v, np.float32))
    )
    return start, counts, x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(args=catalog_inputs())
@example(args=(0, [1, 0], [2.0]))
def test_every_catalog_the_constructor_accepts_writes_and_reads_back(tmp_path_factory, args):
    try:
        catalog = sr.EventCatalog(*args)
    except ValueError:
        return
    if catalog.n_events == 0:
        return  # an event CSV without rows is refused
    # the CSV holds events, so years without one at either end do not come
    # back: the catalog read back runs from the first to the last year with one
    held = np.flatnonzero(catalog.counts)
    a, b = int(held[0]), int(held[-1]) + 1
    path = tmp_path_factory.mktemp("events") / "events.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        write_events_stream(catalog, fh)
    back = sr.read_events_csv(path)
    assert back.start_year == catalog.start_year + a
    expected = {
        "counts": catalog.counts[a:b],
        "sums": catalog.sums[a:b],
        "event_years": catalog.event_years,
        "intensities": catalog.intensities,
    }
    for name, want in expected.items():
        got = getattr(back, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_a_catalog_keeps_one_double_per_event_plus_its_per_year_arrays():
    # a stored per-event copy (years or year offsets) would double this
    rng = np.random.default_rng(0)
    years, intensities = rng.integers(0, 1000, 200_000), rng.random(200_000) + 0.5
    config = stationary_config("gamma", lam=200.0, mu=1.0, shape=2.0, years=(1, 1000))
    builds = [lambda: sr.EventCatalog.from_events(years, intensities),
              lambda: sr.simulate_catalog(config)]
    tracemalloc.start()
    try:
        for build in builds:
            build()  # a first call may import modules, which stay
            before = tracemalloc.get_traced_memory()[0]
            catalog = build()
            kept = tracemalloc.get_traced_memory()[0] - before
            per_year = catalog.counts.nbytes + catalog.sums.nbytes
            assert catalog.n_events > 190_000
            assert kept <= 8 * catalog.n_events + per_year + 16384
            del catalog
    finally:
        tracemalloc.stop()


def test_a_catalog_freezes_its_own_arrays_not_its_callers():
    counts, intensities = np.array([1, 1]), np.array([1.0, 2.0])
    catalog = sr.EventCatalog(1, counts, intensities)
    assert counts.flags.writeable and intensities.flags.writeable
    for a in (catalog.counts, catalog.intensities, catalog.sums):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 5


def test_csv_rows_match_csv_writer_across_chunks():
    # a chunk has _CHUNK_CELLS // m rows with m float arrays: tables of 1,
    # 2 and 8 float columns end a row short of, on and a row past a chunk
    for m in (1, 2, 8):
        rows = sr.io._CHUNK_CELLS // m
        for n in (rows - 1, rows, rows + 1, 40_000):
            fh = io.StringIO(newline="")
            header, columns, expected = mixed_columns(n, m)
            write_csv_rows(fh, header, columns)
            assert_same_lines(fh.getvalue(), expected, (m, n))


def assert_same_lines(got: str, want: str, where=()):
    """``got == want``, or a failure that names the first line that
    differs: pytest's own diff of two multi-megabyte strings can run for
    most of an hour."""
    if got != want:
        pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
        i, (a, b) = next((i, p) for i, p in enumerate(pairs, start=1) if p[0] != p[1])
        pytest.fail(f"{where}: line {i} is {a!r}, expected {b!r}", pytrace=False)


def mixed_columns(n, m=2):
    """Header, columns and the csv.writer bytes of ``n`` rows of every
    kind of column: int64, float (with NaN, signed zeros, infinities and
    extremes, on both sides of the first chunk edge), range, strings, a
    column object passed twice, a constant float and table1's strings.
    These hold two float arrays; with ``m`` 1 the constant is broadcast
    and with ``m`` above 2 there are ``m - 2`` more float columns, of
    other widths and with NaN."""
    rng = np.random.default_rng(3)
    ints = rng.integers(-(2**62), 2**62, size=n)
    floats = rng.lognormal(0.0, 30.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    odd = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]
    floats[rng.integers(0, n, size=500)] = rng.choice(odd, size=500)
    edge = min(sr.io._CHUNK_CELLS // m, n - 1)
    floats[edge - 3 : edge + 1] = [math.nan, -0.0, math.inf, math.nan]
    labels = [f"r{i % 7}" for i in range(n)]
    constant = np.full(n, 0.1 + 0.2) if m > 1 else np.broadcast_to(0.1 + 0.2, n)
    families = [("uniform", "gamma", "exponential", "lognormal", "gpd")[i % 5] for i in range(n)]
    shapes = ["" if i % 5 in (0, 2) else repr(0.25 * (i % 5)) for i in range(n)]
    header = ("i", "x", "y", "label", "x2", "c", "family", "shape")
    columns = [ints, floats, range(n), labels, floats, constant, families, shapes]
    more = [np.round(rng.normal(0.0, 10.0**j, size=n), 3 - j) for j in range(m - 2)]
    for x in more[1::2]:
        x[rng.integers(0, n, size=50)] = math.nan
    header += tuple(f"z{j}" for j in range(len(more)))
    columns += more

    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    for i, x, y, label, c, family, shape, *zs in zip(
        ints.tolist(), floats.tolist(), range(n), labels, constant.tolist(), families, shapes,
        *(z.tolist() for z in more),
    ):
        cell = "" if math.isnan(x) else repr(x)
        zcells = ["" if math.isnan(z) else repr(z) for z in zs]
        writer.writerow([i, cell, y, label, cell, repr(c), family, shape, *zcells])
    return header, columns, expected.getvalue()


def csv_writer_bytes(header, columns, na_rep):
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    for row in zip(*(c.tolist() for c in columns)):
        writer.writerow([na_rep if math.isnan(v) else repr(v) for v in row])
    return expected.getvalue()


def test_csv_rows_format_constant_and_repeated_columns(monkeypatch):
    # 2 rows a chunk with two float arrays, 4 with one
    monkeypatch.setattr(sr.io, "_CHUNK_CELLS", 4)
    n = 9
    constant = np.full(n, 0.1 + 0.2)
    signed_zeros = np.array([0.0, -0.0] * 4 + [0.0])
    all_nan = np.full(n, math.nan)
    # a constant run over rows 1-6 crosses the chunk boundaries after rows 1, 3, 5
    run = np.array([1.5, 7.25, 7.25, 7.25, 7.25, 7.25, 7.25, -2.0, 3.0])
    mixed = np.linspace(-1.0, 1.0, n)
    cases = [
        ([constant, mixed], ""),
        ([signed_zeros, mixed], ""),
        ([all_nan, mixed], "nan"),
        ([all_nan, mixed], ""),
        ([mixed, mixed], ""),
        ([run, constant], "nan"),
    ]
    for columns, na_rep in cases:
        fh = io.StringIO(newline="")
        write_csv_rows(fh, ("a", "b"), columns, na_rep=na_rep)
        assert fh.getvalue() == csv_writer_bytes(("a", "b"), columns, na_rep)
    fh = io.StringIO(newline="")
    write_csv_rows(fh, ("z",), [signed_zeros])
    assert fh.getvalue().split("\r\n")[1:3] == ["0.0", "-0.0"]


def test_csv_rows_encode_a_broadcast_column_once(monkeypatch):
    # 4 rows a chunk beside one other float array: chunks of 4, 4 and 1 rows
    monkeypatch.setattr(sr.io, "_CHUNK_CELLS", 4)
    from stormrisk import _cells

    encoded = []
    float_words = _cells.float_words
    monkeypatch.setattr(_cells, "float_words", lambda x, na: encoded.append(len(x)) or float_words(x, na))
    n = 9
    mixed = np.linspace(-1.0, 1.0, n)
    cells = np.broadcast_to(0.1 + 0.2, n)
    nan = np.broadcast_to(math.nan, n)
    year = np.broadcast_to(np.int64(-7), n)
    one, zero = np.broadcast_to(2.5, 1), np.broadcast_to(-0.0, 1)
    assert all(c.strides == (0,) for c in (cells, nan, year, one, zero))
    cases = [
        ([cells, mixed], "", n + 1),
        ([mixed, nan], "nan", n + 1),
        ([nan, mixed], "", n + 1),
        ([year, mixed], "", n),
        ([cells, mixed, cells], "", n + 1),
        ([cells, year, mixed, nan], "nan", n + 2),
        ([one, mixed[:1]], "", 2),
        ([zero], "", 1),
    ]
    for columns, na_rep, count in cases:
        encoded.clear()
        header = tuple("abcd"[: len(columns)])
        fh = io.StringIO(newline="")
        write_csv_rows(fh, header, columns, na_rep=na_rep)
        assert fh.getvalue() == csv_writer_bytes(header, columns, na_rep)
        assert sum(encoded) == count  # each broadcast float cell once


def test_event_years_column_slices_as_event_years():
    # empty years on either side of the ends, and the last year 2^63 - 1
    counts = np.array([0, 3, 0, 0, 1, 5, 0, 2, 0])
    catalog = sr.EventCatalog(_INT64_MAX - 8, counts, np.ones(11))
    years = _EventYears(catalog)
    assert len(years) == 11
    for lo in range(11):
        for hi in range(lo + 1, 12):
            assert years[lo:hi].tolist() == catalog.event_years[lo:hi].tolist(), (lo, hi)


def test_event_write_memory_does_not_grow_with_its_rows(tmp_path):
    rng = np.random.default_rng(5)
    catalogs = [
        sr.EventCatalog(1, np.full(1000, n // 1000), rng.lognormal(0.0, 1.0, size=n))
        for n in (50_000, 400_000)
    ]
    path = tmp_path / "events.csv"
    peaks = []
    with path.open("w", newline="") as fh:
        write_events_stream(catalogs[0], fh)  # imports the encoder, builds its tables
    tracemalloc.start()
    try:
        for catalog in catalogs:
            with path.open("w", newline="") as fh:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                write_events_stream(catalog, fh)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert catalogs[1].n_events == 400_000
    assert abs(peaks[1] - peaks[0]) < 2**20, peaks


# --- series CSV -----------------------------------------------------------------


def test_series_round_trip(tmp_path):
    config = stationary_config("exponential", lam=20.0, mu=2.0, years=(1, 60), seed=1)
    series = long_run_series(sr.simulate_catalog(config))
    path = tmp_path / "series.csv"
    write_series(series, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,e_n,e_s,e_x,phi,rho,rho_lo,rho_hi,j2phi"
    back = read_series(path)
    assert np.array_equal(back["t"], series.years)
    for name in type(series).column_names()[1:]:
        assert np.array_equal(back[name], getattr(series, name), equal_nan=True)


def test_series_single_cutoff_two_lines(tmp_path):
    catalog = sr.EventCatalog.from_events([1], [4.5])
    series = long_run_series(catalog)
    path = tmp_path / "one.csv"
    write_series(series, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2


def test_series_undefined_rho_serialized_empty(tmp_path):
    catalog = sr.EventCatalog.from_events([1, 2, 2], [1.0, 2.0, 3.0])
    series = long_run_series(catalog)
    path = tmp_path / "nan.csv"
    write_series(series, path)
    first_row = path.read_text().splitlines()[1].split(",")
    assert first_row[5] == ""  # rho at t = 1
    back = read_series(path)
    assert math.isnan(back["rho"][0])


# --- run configuration -------------------------------------------------------


def minimal_simulate_config():
    return {
        "mode": "simulate",
        "frequency": {"link": "log", "alpha0": math.log(29.5), "alpha1": 0.0},
        "severity": {"family": "exponential", "beta0": 26.7, "beta1": 0.0},
        "years": [1, 60],
        "seed": 1,
    }


def dump(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def test_parse_config_minimal(tmp_path):
    config = sr.parse_config(dump(tmp_path, minimal_simulate_config()), "simulate")
    assert isinstance(config, sr.SimulationConfig)
    assert config.years == (1, 60)
    assert config.seed == 1
    assert config.freq.link is sr.RateLink.LOG
    assert rate(config.freq, 1) == pytest.approx(29.5, rel=1e-12)
    assert config.sev.family is sr.Family.EXPONENTIAL


def test_parse_config_rejects_infinite_variance_gpd(tmp_path):
    cfg = minimal_simulate_config()
    cfg["severity"] = {"family": "gpd", "beta0": 1.0, "beta1": 0.0, "shape": 0.6}
    with pytest.raises(ConfigError, match="< 0.5 for finite variance"):
        sr.parse_config(dump(tmp_path, cfg), "simulate")


def test_parse_config_rejects_nonpositive_identity_rate(tmp_path):
    cfg = minimal_simulate_config()
    cfg["frequency"] = {"link": "identity", "alpha0": 1.0, "alpha1": -0.1}
    with pytest.raises(ConfigError, match="non-positive at t=10"):
        sr.parse_config(dump(tmp_path, cfg), "simulate")


def test_parse_config_rejects_unknown_fields(tmp_path):
    cfg = minimal_simulate_config()
    cfg["extra"] = 1
    with pytest.raises(ConfigError, match="unknown field.*extra"):
        sr.parse_config(dump(tmp_path, cfg), "simulate")
    cfg = minimal_simulate_config()
    cfg["severity"]["scale"] = 2.0
    with pytest.raises(ConfigError, match="severity.*unknown"):
        sr.parse_config(dump(tmp_path, cfg), "simulate")


def test_parse_config_locates_field_errors(tmp_path):
    cfg = minimal_simulate_config()
    del cfg["frequency"]["alpha0"]
    with pytest.raises(ConfigError, match="frequency.alpha0"):
        sr.parse_config(dump(tmp_path, cfg), "simulate")
    cfg = minimal_simulate_config()
    del cfg["severity"]
    with pytest.raises(ConfigError, match="^config.severity: missing required field$"):
        sr.parse_config(dump(tmp_path, cfg), "simulate")
    cfg = minimal_simulate_config()
    cfg["mode"] = "other"
    with pytest.raises(ConfigError, match="mode"):
        sr.parse_config(dump(tmp_path, cfg), "simulate")
    with pytest.raises(ConfigError, match="config.mode: expected 'verify', got 'simulate'"):
        sr.parse_config(dump(tmp_path, minimal_simulate_config()), "verify")
    cfg = minimal_simulate_config()
    cfg["years"] = [60, 1]
    with pytest.raises(ConfigError, match="years"):
        sr.parse_config(dump(tmp_path, cfg), "simulate")
    with pytest.raises(ConfigError, match="JSON"):
        sr.parse_config(write(tmp_path, "broken.json", "{not json"), "simulate")


def test_parse_config_rejects_fields_no_command_reads(tmp_path):
    for key, value in (
        ("window", 10), ("ci_level", 0.9), ("input", "e.csv"), ("output", "o.csv"),
        ("replicates", 1000),
    ):
        for mode in ("theory", "simulate", "verify"):
            cfg = {**minimal_simulate_config(), "mode": mode, key: value}
            with pytest.raises(ConfigError, match=f"unknown field.*{key}"):
                sr.parse_config(dump(tmp_path, cfg), mode)
    # analyze reads no config, so no config may name it
    cfg = {**minimal_simulate_config(), "mode": "analyze"}
    with pytest.raises(ConfigError, match="expected 'simulate', got 'analyze'"):
        sr.parse_config(dump(tmp_path, cfg), "simulate")


def test_parse_config_theory_runs_unseeded_and_ignores_the_seed_variable(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("RANDSUM_SEED", "abc")
    cfg = {**minimal_simulate_config(), "mode": "theory"}
    assert sr.parse_config(dump(tmp_path, cfg), "theory").seed is None
    del cfg["seed"]
    assert sr.parse_config(dump(tmp_path, cfg), "theory").seed is None


@pytest.mark.parametrize(
    "seed, message",
    [
        ("abc", "config.seed: must be an integer, got 'abc'"),
        (2**64, f"config.seed: must fit in unsigned 64 bits, got {2**64}"),
    ],
)
def test_parse_config_theory_still_checks_a_present_seed(tmp_path, seed, message):
    cfg = {**minimal_simulate_config(), "mode": "theory", "seed": seed}
    with pytest.raises(ConfigError) as excinfo:
        sr.parse_config(dump(tmp_path, cfg), "theory")
    assert str(excinfo.value) == message


@pytest.mark.parametrize("mode", ["simulate", "verify"])
def test_parse_config_requires_the_seed_of_a_run(tmp_path, monkeypatch, mode):
    cfg = {**minimal_simulate_config(), "mode": mode}
    assert sr.parse_config(dump(tmp_path, cfg), mode).seed == 1
    del cfg["seed"]
    monkeypatch.setenv("RANDSUM_SEED", "11")  # the environment supplies no seed
    with pytest.raises(ConfigError) as excinfo:
        sr.parse_config(dump(tmp_path, cfg, name="unseeded.json"), mode)
    assert str(excinfo.value) == "config.seed: required for this mode"


@st.composite
def model_pairs(draw, n: int):
    """A frequency and a severity model of the kind a config file over
    ``n`` years gives, or None where the drawn shape is invalid."""
    link = draw(st.sampled_from(["log", "identity"]))
    family = draw(st.sampled_from(["uniform", "gamma", "exponential", "lognormal", "gpd"]))
    shapes = {"gamma": st.floats(0.3, 5.0), "lognormal": st.floats(0.2, 1.5),
              "gpd": st.floats(-1.0, 0.45)}
    # slopes that move a driver by at most 0.1 over the span
    try:
        freq = sr.FrequencyModel(
            alpha0=draw(st.floats(0.2, 40.0)), alpha1=draw(st.floats(-0.1, 0.1)) / n,
            link=link,
        )
        sev = sr.SeverityModel(
            family=family, beta0=draw(st.floats(0.5, 20.0)), beta1=draw(st.floats(-0.1, 0.1)) / n,
            shape=draw(shapes[family]) if family in shapes else None,
        )
    except ValueError:
        return None
    return freq, sev


@st.composite
def config_inputs(draw):
    """Constructor arguments of a `SimulationConfig`: years and a seed as
    Python or numpy integers, bools or None, with models on the span."""
    n = draw(st.integers(1, _MAX_ROWS))
    start = draw(st.integers(_INT64_MIN, _INT64_MAX - n + 1))
    years = (draw(any_integer(start)), draw(any_integer(start + n - 1)))
    seed = draw(st.none() | st.integers(0, 2**64 - 1).flatmap(any_integer))
    return draw(model_pairs(n)), years, seed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(args=config_inputs())
def test_every_config_the_constructor_accepts_writes_and_reads_back(tmp_path_factory, args):
    models, years, seed = args
    if models is None:
        return
    try:
        config = sr.SimulationConfig(freq=models[0], sev=models[1], years=years, seed=seed)
    except ValueError:
        return
    mode = "theory" if config.seed is None else "simulate"
    path = tmp_path_factory.mktemp("config") / "cfg.json"
    path.write_text(json.dumps({"mode": mode, **config_dict(config)}), encoding="utf-8")
    assert sr.parse_config(path, mode) == config


PARSE_ERROR_CASES = {
    "frequency-not-object": (3, "config.frequency: expected an object"),
    "alpha0-string": (
        {"link": "log", "alpha0": "x", "alpha1": 0.0},
        "config.frequency.alpha0: expected a number, got 'x'",
    ),
    "alpha0-infinity": (  # json writes and reads it as Infinity
        {"link": "log", "alpha0": math.inf, "alpha1": 0.0},
        "config.frequency.alpha0: must be finite, got inf",
    ),
}


@pytest.mark.parametrize(
    "frequency, message", PARSE_ERROR_CASES.values(), ids=PARSE_ERROR_CASES.keys()
)
def test_parse_config_errors_name_the_field(tmp_path, frequency, message):
    cfg = {**minimal_simulate_config(), "frequency": frequency}
    with pytest.raises(ConfigError) as excinfo:
        sr.parse_config(dump(tmp_path, cfg), "simulate")
    assert str(excinfo.value) == message


def test_parse_config_never_panics_on_adversarial_inputs(tmp_path):
    cases = [
        "[]",
        "null",
        '{"mode": 3}',
        '{"mode": "simulate"}',
        '{"mode": "simulate", "years": [1]}',
        '{"mode": "simulate", "years": "x"}',
        '{"mode": "verify", "years": [1, 2], "frequency": 5, "severity": {}}',
        '{"mode": "simulate", "years": [1, 2], "frequency": {"link": "log", '
        '"alpha0": true, "alpha1": 0}, "severity": {"family": "uniform", '
        '"beta0": 1, "beta1": 0}}',
    ]
    for i, text in enumerate(cases):
        with pytest.raises(ConfigError):
            mode = "verify" if '"verify"' in text else "simulate"
            sr.parse_config(write(tmp_path, f"bad{i}.json", text), mode)
    # errors the JSON decoder reports without a location name the file
    located = [
        (b"[" * 10**5, "invalid JSON: maximum recursion depth exceeded"),
        (b'{"mode": "simulate",\n "years": [\xff]}', "line 2: not UTF-8, byte 0xff"),
    ]
    if hasattr(sys, "get_int_max_str_digits"):  # the interpreter limits int literals
        located.append((b'{"seed": 1' + b"0" * 5000 + b"}", "invalid JSON: Exceeds the limit"))
    for data, message in located:
        path = tmp_path / "located.json"
        path.write_bytes(data)
        with pytest.raises(ConfigError) as excinfo:
            sr.parse_config(path, "simulate")
        assert str(excinfo.value).startswith(f"{path}: {message}")
