import csv
import io
import json
import math

import numpy as np
import pytest

import stormrisk as sr
from stormrisk.io import CatalogFormatError, ConfigError, write_csv_rows

from helpers import stationary_config


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


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


def test_catalog_round_trip_preserves_events(tmp_path):
    config = stationary_config("gamma", lam=10.0, mu=2.0, shape=1.5, years=(2040, 2099), seed=5)
    catalog = sr.simulate_catalog(config)
    path = tmp_path / "cat.csv"
    sr.write_events_csv(catalog, path)
    back = sr.read_events_csv(path)
    assert np.array_equal(back.event_years, catalog.event_years)
    assert np.array_equal(back.intensities, catalog.intensities)
    assert np.array_equal(back.counts, catalog.counts)


def test_csv_rows_match_csv_writer_across_chunks():
    rng = np.random.default_rng(3)
    n = 40_000
    ints = rng.integers(-(2**62), 2**62, size=n)
    floats = rng.lognormal(0.0, 30.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    odd = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]
    floats[rng.integers(0, n, size=500)] = rng.choice(odd, size=500)
    labels = [f"r{i % 7}" for i in range(n)]
    fh = io.StringIO(newline="")
    write_csv_rows(fh, ("i", "x", "y", "label"), [ints, floats, range(n), labels])

    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(("i", "x", "y", "label"))
    for row in zip(ints.tolist(), floats.tolist(), range(n), labels):
        writer.writerow([row[0], "" if math.isnan(row[1]) else repr(row[1]), *row[2:]])
    assert fh.getvalue() == expected.getvalue()


# --- series CSV -----------------------------------------------------------------


def test_series_round_trip(tmp_path):
    config = stationary_config("exponential", lam=20.0, mu=2.0, years=(1, 60), seed=1)
    series = sr.long_run_series(sr.simulate_catalog(config))
    path = tmp_path / "series.csv"
    sr.write_series_csv(series, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,e_n,e_s,e_x,phi,rho,rho_lo,rho_hi,j2phi"
    back = sr.read_series_csv(path)
    assert np.array_equal(back.years, series.years)
    for name in type(series).column_names()[1:]:
        a, b = getattr(series, name), getattr(back, name)
        assert np.array_equal(np.isnan(a), np.isnan(b))
        mask = ~np.isnan(a)
        assert np.allclose(a[mask], b[mask], rtol=1e-9, atol=0)


def test_series_single_cutoff_two_lines(tmp_path):
    catalog = sr.EventCatalog.from_events([1], [4.5])
    series = sr.long_run_series(catalog)
    path = tmp_path / "one.csv"
    sr.write_series_csv(series, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2


def test_series_undefined_rho_serialized_empty(tmp_path):
    catalog = sr.EventCatalog.from_events([1, 2, 2], [1.0, 2.0, 3.0])
    series = sr.long_run_series(catalog)
    path = tmp_path / "nan.csv"
    sr.write_series_csv(series, path)
    first_row = path.read_text().splitlines()[1].split(",")
    assert first_row[5] == ""  # rho at t = 1
    back = sr.read_series_csv(path)
    assert math.isnan(back.rho[0])


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
    config = sr.parse_config(dump(tmp_path, minimal_simulate_config()))
    assert config.mode is sr.RunMode.SIMULATE
    assert config.years == (1, 60)
    assert config.seed == 1
    assert config.replicates == 1
    assert config.window is None
    assert config.ci_level == 0.95
    assert config.freq.link is sr.RateLink.LOG
    assert sr.rate(config.freq, 1) == pytest.approx(29.5, rel=1e-12)
    assert config.sev.family is sr.Family.EXPONENTIAL


def test_parse_config_rejects_infinite_variance_gpd(tmp_path):
    cfg = minimal_simulate_config()
    cfg["severity"] = {"family": "gpd", "beta0": 1.0, "beta1": 0.0, "shape": 0.6}
    with pytest.raises(ConfigError, match="< 0.5 for finite variance"):
        sr.parse_config(dump(tmp_path, cfg))


def test_parse_config_rejects_nonpositive_identity_rate(tmp_path):
    cfg = minimal_simulate_config()
    cfg["frequency"] = {"link": "identity", "alpha0": 1.0, "alpha1": -0.1}
    with pytest.raises(ConfigError, match="non-positive at t=10"):
        sr.parse_config(dump(tmp_path, cfg))


def test_parse_config_rejects_unknown_fields(tmp_path):
    cfg = minimal_simulate_config()
    cfg["extra"] = 1
    with pytest.raises(ConfigError, match="unknown field.*extra"):
        sr.parse_config(dump(tmp_path, cfg))
    cfg = minimal_simulate_config()
    cfg["severity"]["scale"] = 2.0
    with pytest.raises(ConfigError, match="severity.*unknown"):
        sr.parse_config(dump(tmp_path, cfg))


def test_parse_config_locates_field_errors(tmp_path):
    cfg = minimal_simulate_config()
    del cfg["frequency"]["alpha0"]
    with pytest.raises(ConfigError, match="frequency.alpha0"):
        sr.parse_config(dump(tmp_path, cfg))
    cfg = minimal_simulate_config()
    cfg["mode"] = "other"
    with pytest.raises(ConfigError, match="mode"):
        sr.parse_config(dump(tmp_path, cfg))
    cfg = minimal_simulate_config()
    cfg["years"] = [60, 1]
    with pytest.raises(ConfigError, match="years"):
        sr.parse_config(dump(tmp_path, cfg))
    cfg = minimal_simulate_config()
    cfg["ci_level"] = 1.5
    with pytest.raises(ConfigError, match="ci_level"):
        sr.parse_config(dump(tmp_path, cfg))
    with pytest.raises(ConfigError, match="JSON"):
        sr.parse_config(write(tmp_path, "broken.json", "{not json"))


def test_parse_config_analyze_requires_input(tmp_path):
    with pytest.raises(ConfigError, match="input"):
        sr.parse_config(dump(tmp_path, {"mode": "analyze"}))
    config = sr.parse_config(
        dump(tmp_path, {"mode": "analyze", "input": "events.csv", "window": 10})
    )
    assert config.input == "events.csv"
    assert config.window == 10


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
            sr.parse_config(write(tmp_path, f"bad{i}.json", text))
