import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stormrisk as sr
from stormrisk import catalog, simulate
from stormrisk.cli import ExitStatus, main, run
from stormrisk.estimate import long_run_series
from stormrisk.verify import _checks

from helpers import (
    EXTREME_FLOATS,
    FAMILIES,
    event_csvs,
    read_series,
    stationary_config,
    strict_json,
)


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def simulate_config(**overrides):
    cfg = {
        "mode": "simulate",
        "frequency": {"link": "identity", "alpha0": 20.0, "alpha1": 0.5},
        "severity": {"family": "gpd", "beta0": 1.0, "beta1": 0.0, "shape": 0.2},
        "years": [2040, 2099],
        "seed": 11,
    }
    cfg.update(overrides)
    return cfg


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# --- theory -------------------------------------------------------------------


def test_theory_table1_reference_columns(tmp_path):
    out = tmp_path / "table1.csv"
    report = run(["theory", "--table1", "--out", str(out)])
    assert report.status is ExitStatus.OK
    header, rows = read_csv(out)
    by_family = {r[0]: dict(zip(header, r)) for r in rows}
    assert set(by_family) == {"uniform", "gamma", "exponential", "lognormal", "gpd"}

    theta, sigma, xi = 2.0, 1.0, 0.25
    expected_cor = {
        "uniform": math.sqrt(3) / 2,
        "gamma": theta / math.sqrt(theta + theta**2),
        "exponential": math.sqrt(2) / 2,
        "lognormal": math.exp(-(sigma**2) / 2),
        "gpd": math.sqrt((1 - 2 * xi) / (2 - 2 * xi)),
    }
    expected_j2 = {
        "uniform": 3.0,
        "gamma": theta,
        "exponential": 1.0,
        "lognormal": 1 / (math.exp(sigma**2) - 1),
        "gpd": 1 - 2 * xi,
    }
    for family, row in by_family.items():
        assert float(row["cor_ns"]) == pytest.approx(expected_cor[family], rel=1e-12)
        assert float(row["j_squared"]) == pytest.approx(expected_j2[family], rel=1e-12)


def test_theory_table1_shape_overrides(tmp_path):
    out = tmp_path / "t.csv"
    run(["theory", "--table1", "--gpd-shape", "0.1", "--out", str(out)])
    header, rows = read_csv(out)
    gpd = {r[0]: dict(zip(header, r)) for r in rows}["gpd"]
    assert float(gpd["j_squared"]) == pytest.approx(0.8, rel=1e-12)


def test_theory_yearly_summaries(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "mode": "theory",
            "frequency": {"link": "log", "alpha0": 1.0, "alpha1": 0.01},
            "severity": {"family": "lognormal", "beta0": 1.0, "beta1": 0.0, "shape": 0.5},
            "years": [2040, 2049],
        },
    )
    out = tmp_path / "summaries.csv"
    report = run(["theory", "--config", cfg, "--out", str(out)])
    assert report.status is ExitStatus.OK
    header, rows = read_csv(out)
    assert len(rows) == 10
    assert header[:4] == ["year", "t", "e_n", "e_x"]
    first = dict(zip(header, rows[0]))
    assert float(first["e_n"]) == pytest.approx(math.exp(1.01), rel=1e-12)
    assert float(first["cor_ns"]) == pytest.approx(math.exp(-0.125), rel=1e-12)
    # wald holds in the printed table
    assert float(first["e_s"]) == pytest.approx(
        float(first["e_n"]) * float(first["e_x"]), rel=1e-12
    )


def test_help_and_version_are_ok_reports_on_stdout(capsys):
    report = run(["--help"])
    assert report.status is ExitStatus.OK
    assert report.summary.startswith("usage: stormrisk")
    assert report.payload == {"message": report.summary}
    assert main(["--version"]) == 0
    assert capsys.readouterr() == (f"{sr.__version__}\n", "")


def test_theory_requires_config_or_table1():
    report = run(["theory"])
    assert report.status is ExitStatus.INPUT_ERROR


def test_theory_takes_config_or_table1_not_both(tmp_path):
    # the table ignores any config, so one given with it is an input error
    out = tmp_path / "table1.csv"
    report = run(["theory", "--table1", "--config", "/nonexistent.json", "--out", str(out)])
    assert report.status is ExitStatus.INPUT_ERROR
    assert "not allowed with argument" in report.payload["error"]
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--gamma-shape", "--lognormal-sigma", "--gpd-shape"])
def test_theory_shape_flags_need_table1(tmp_path, flag):
    # a config's severity carries its own shape; the flag would be ignored
    cfg = write_config(tmp_path, simulate_config(mode="theory"))
    out = tmp_path / "theory.csv"
    report = run(["theory", "--config", cfg, flag, "0.3", "--out", str(out)])
    assert report.status is ExitStatus.INPUT_ERROR
    assert report.payload["error"] == f"{flag}: applies only with --table1"
    assert not out.exists()


# --- simulate / analyze --------------------------------------------------------


def test_simulate_then_analyze_pipeline(tmp_path):
    cfg = write_config(tmp_path, simulate_config())
    events = tmp_path / "events.csv"
    report = run(["simulate", "--config", cfg, "--out", str(events)])
    assert report.status is ExitStatus.OK
    assert report.payload["config"]["seed"] == 11

    # byte-identical on rerun
    first = events.read_bytes()
    run(["simulate", "--config", cfg, "--out", str(events)])
    assert events.read_bytes() == first

    series_path = tmp_path / "series.csv"
    report = run(["analyze", "--input", str(events), "--out", str(series_path)])
    assert report.status is ExitStatus.OK
    series = read_series(series_path)
    expected = long_run_series(sr.read_events_csv(events))
    for name in expected.column_names()[1:]:
        assert np.array_equal(series[name], getattr(expected, name), equal_nan=True)
    defined = ~np.isnan(series["e_x"])
    assert np.allclose(
        series["e_n"][defined] * series["e_x"][defined],
        series["e_s"][defined],
        rtol=1e-12,
        atol=0,
    )
    diag = report.payload["diagnostics"]
    assert "nx_independence" in diag
    counts = sr.read_events_csv(events).counts
    activity = diag["season_activity"]
    assert activity["threshold"] == counts.mean() + counts.std(ddof=1)
    assert activity["active_years"] == (counts > activity["threshold"]).sum()


def _simulated_marks(tmp_path, cfg):
    """Exit code and event intensities of ``simulate`` on ``cfg``."""
    events = tmp_path / "events.csv"
    code = main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(events)])
    if code != 0:
        return code, None
    return code, np.loadtxt(events, delimiter=",", skiprows=1, ndmin=2)[:, 1]


# the shapes at which the GPD inverse CDF cancelled to 0.0 and to NaN;
# rate 2 draws catalog years as lanes, rate 20 per year
@pytest.mark.parametrize("shape", [1e-17, 5e-324, -5e-324])
@pytest.mark.parametrize("alpha0", [2.0, 20.0])
def test_simulate_at_a_gpd_shape_near_zero_writes_positive_marks(tmp_path, capsys, shape, alpha0):
    severity = {"family": "gpd", "beta0": 1.0, "beta1": 0.0, "shape": shape}
    frequency = {"link": "identity", "alpha0": alpha0, "alpha1": 0.0}
    cfg = simulate_config(severity=severity, frequency=frequency)
    code, marks = _simulated_marks(tmp_path, cfg)
    assert code == 0, capsys.readouterr().out
    assert len(marks) > 0 and np.all((marks > 0) & (marks < np.inf))


GPD_SHAPES = st.one_of(
    st.floats(-1.0, 0.5, exclude_max=True),
    st.floats(-1e-6, 1e-6),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, 0.05, -0.05]),
    st.floats(max_value=0.5, exclude_max=True, allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(shape=GPD_SHAPES, alpha0=st.sampled_from([2.0, 20.0]))
def test_simulate_at_any_accepted_gpd_shape_writes_positive_marks(tmp_path_factory, shape, alpha0):
    try:
        sr.SimulationConfig(
            freq=sr.FrequencyModel(alpha0=alpha0, alpha1=0.0, link="identity"),
            sev=sr.SeverityModel(family="gpd", beta0=1.0, beta1=0.0, shape=shape),
            years=(1, 20),
        )
    except ValueError:
        return  # a shape the model rejects is an input error, tested elsewhere
    cfg = simulate_config(
        frequency={"link": "identity", "alpha0": alpha0, "alpha1": 0.0},
        severity={"family": "gpd", "beta0": 1.0, "beta1": 0.0, "shape": shape},
        years=[1, 20],
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code, marks = _simulated_marks(tmp_path_factory.mktemp("gpd"), cfg)
    assert code == 0, out.getvalue()
    assert np.all((marks > 0) & (marks < np.inf))


@pytest.mark.parametrize(
    "years, intensities",
    [
        (None, None),
        ([2040, 2040, 2040], [1.0, 2.0, 3.0]),
        ([1, 1, 2, 2, 3, 3, 4, 4], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0]),
    ],
    ids=["simulated", "one year", "constant counts"],
)
def test_analyze_reports_the_diagnostics_of_the_library_entry(tmp_path, years, intensities):
    if years is None:
        config = stationary_config("gpd", lam=4.0, mu=1.0, shape=0.2, years=(1, 80), seed=5)
        catalog = sr.simulate_catalog(config)
    else:
        catalog = sr.EventCatalog.from_events(years, intensities)
    events = tmp_path / "events.csv"
    with events.open("w", encoding="utf-8", newline="") as fh:
        sr.io.write_events_stream(catalog, fh)
    report = run(["analyze", "--input", str(events), "--out", str(tmp_path / "series.csv")])
    assert report.status is ExitStatus.OK
    read_back = sr.read_events_csv(events)
    _, diagnostics = sr.analyze_catalog(read_back)
    expected = {k: sr.cli._json_safe(v) for k, v in diagnostics.items()}
    assert report.payload["diagnostics"] == expected
    if years is None:
        assert None not in expected.values()
        counts, activity = read_back.counts, expected["season_activity"]
        assert activity["threshold"] == counts.mean() + counts.std(ddof=1)
        assert activity["active_years"] == (counts > activity["threshold"]).sum()
    elif len(set(years)) == 1:  # every diagnostic needs two years or more
        assert [k for k, v in expected.items() if v is None] == [
            "nx_independence", "season_activity"
        ]
    else:  # counts without variance: no count-intensity correlation
        assert expected["nx_independence"] is None
        assert "nx_independence_note" not in expected
        # every count ties the threshold, and a tie is not active
        assert expected["season_activity"] == {"threshold": 2.0, "active_years": 0}


def test_analyze_report_does_not_grow_with_the_catalog(tmp_path):
    years = 10_000
    counts = np.random.default_rng(1).poisson(3.0, size=years)
    catalog = sr.EventCatalog(1, counts, np.ones(counts.sum()))
    events = tmp_path / "events.csv"
    with events.open("w", encoding="utf-8", newline="") as fh:
        sr.io.write_events_stream(catalog, fh)
    report = run(["analyze", "--input", str(events), "--out", str(tmp_path / "series.csv")])
    assert report.status is ExitStatus.OK
    assert report.payload["n_years"] == years
    # one summary per diagnostic, not one entry per year
    assert len(json.dumps(report.payload, sort_keys=True)) < 1024


def test_analyze_with_window(tmp_path):
    cfg = write_config(tmp_path, simulate_config())
    events = tmp_path / "events.csv"
    run(["simulate", "--config", cfg, "--out", str(events)])
    out = tmp_path / "windowed.csv"
    report = run(["analyze", "--input", str(events), "--window", "10", "--out", str(out)])
    assert report.status is ExitStatus.OK
    series = read_series(out)
    assert np.isnan(series["rho"][:9]).all()
    assert np.isfinite(series["rho"][9:]).all()
    # other columns still expanding
    assert series["e_n"][0] == pytest.approx(float(sr.read_events_csv(events).counts[0]))


def test_analyze_missing_file(tmp_path):
    report = run(["analyze", "--input", str(tmp_path / "absent.csv")])
    assert report.status is ExitStatus.INPUT_ERROR


def test_analyze_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("year,intensity\n2040,-1\n", encoding="utf-8")
    report = run(["analyze", "--input", str(bad)])
    assert report.status is ExitStatus.INPUT_ERROR
    assert "line 2" in report.summary


def test_analyze_year_outside_int64_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "big.csv"
    bad.write_text("year,intensity\n2040,1.5\n99999999999999999999,2.0\n", encoding="utf-8")
    assert main(["analyze", "--input", str(bad)]) == 2
    captured = capsys.readouterr()
    payload = strict_json(captured.out.strip().splitlines()[-1])
    assert "line 3" in payload["error"]
    assert "Traceback" not in captured.err


def test_analyze_field_over_csv_limit_is_an_input_error(tmp_path):
    bad = tmp_path / "long.csv"
    bad.write_text("year,intensity\n2040,1.5\n2041," + "1" * 200_000 + "\n", encoding="utf-8")
    report = run(["analyze", "--input", str(bad)])
    assert report.status is ExitStatus.INPUT_ERROR
    assert "line 3" in report.payload["error"]


def test_analyze_year_span_beyond_int64_is_an_input_error(tmp_path):
    bad = tmp_path / "span.csv"
    bad.write_text("year,intensity\n-9223372036854775808,1.5\n2040,2.0\n", encoding="utf-8")
    report = run(["analyze", "--input", str(bad)])
    assert report.status is ExitStatus.INPUT_ERROR
    assert "-9223372036854775808 to 2040" in report.payload["error"]


@pytest.mark.parametrize(
    "mode, severity, flags",
    [
        ("theory", {"family": "lognormal", "beta0": 710.0, "beta1": 0.0, "shape": 1.0}, []),
        (
            "verify",
            {"family": "gpd", "beta0": 1e-300, "beta1": 0.0, "shape": 0.2},
            ["--replicates", "1000"],
        ),
    ],
    ids=["theory-lognormal-overflow", "verify-gpd-zero-division"],
)
def test_severity_moments_out_of_range_are_input_errors(tmp_path, capsys, mode, severity, flags):
    cfg = write_config(tmp_path, simulate_config(mode=mode, severity=severity))
    assert main([mode, "--config", cfg, *flags, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    payload = strict_json(captured.out.strip().splitlines()[-1])
    assert payload["error"].startswith("config.severity: ")
    assert "not finite with positive variance" in payload["error"]
    assert "Traceback" not in captured.err


def test_theory_aggregate_variance_overflow_is_an_input_error(tmp_path, capsys):
    # finite intensity moments (E[X^2] is about 7.5e304), but E[N] E[X^2]
    # overflows: from the first year, or first at the interior year 14,
    # where the rate 1000 + 100 t reaches 2400
    severity = {"family": "lognormal", "beta0": 350.0, "beta1": 0.0, "shape": 1.0}
    for alpha0, alpha1, message in [
        (1e10, 0.0, "t=1: rate 10000000000.0"),
        (1000.0, 100.0, "t=14: rate 2400.0"),
    ]:
        frequency = {"link": "identity", "alpha0": alpha0, "alpha1": alpha1}
        cfg = write_config(
            tmp_path, simulate_config(mode="theory", frequency=frequency, severity=severity)
        )
        out = tmp_path / "theory.csv"
        assert _input_error(capsys, ["theory", "--config", cfg, "--out", str(out)]) == (
            f"aggregate variance overflows at {message} times E[X^2] 7.494217549770649e+304"
        )
        assert not out.exists()


@pytest.mark.parametrize("big", ["1e308", "1e200"])
def test_analyze_running_sum_overflow_is_an_input_error(tmp_path, capsys, big):
    csv_path = tmp_path / "big.csv"
    csv_path.write_text(
        f"year,intensity\n2040,1.5\n2041,2.0\n2042,{big}\n2043,1.0\n", encoding="utf-8"
    )
    out = tmp_path / "series.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--input", str(csv_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    payload = strict_json(captured.out.strip().splitlines()[-1])
    assert "overflow at year 2042" in payload["error"]
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_analyze_correlation_with_overflowing_variance_product(tmp_path, capsys):
    # every running sum is finite, but var_n * var_s is not
    rows = "".join(
        f"{2040 + i},1e150\n" * (1 if i % 2 == 0 else 2000) for i in range(10)
    )
    csv_path = tmp_path / "heavy.csv"
    csv_path.write_text("year,intensity\n" + rows, encoding="utf-8")
    out = tmp_path / "series.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--input", str(csv_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err.count("\n") == 1  # the summary line only
    rho = read_series(out)["rho"]
    assert np.all(rho[2:] > 0.99)


def _input_error(capsys, argv) -> str:
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return strict_json(captured.out.strip().splitlines()[-1])["error"]


def test_theory_years_past_row_budget_is_an_input_error(tmp_path, capsys):
    cfg = write_config(tmp_path, simulate_config(mode="theory", years=[1, 10**12]))
    out = tmp_path / "theory.csv"
    error = _input_error(capsys, ["theory", "--config", cfg, "--out", str(out)])
    assert error.startswith("config.years: ")
    assert not out.exists()


FIELD_ERROR_CASES = {
    # exp(-800) underflows to a zero rate
    "log-rate-underflow": (
        {"mode": "theory", "frequency": {"link": "log", "alpha0": -800.0, "alpha1": 0.0}},
        [],
        "config.frequency: log-link rate at t=1 is 0.0",
    ),
    "identity-rate-overflow": (
        {
            "frequency": {"link": "identity", "alpha0": 1e308, "alpha1": 1e308},
            "years": [1, 2],
        },
        [],
        "config.frequency: identity-link rate at t=1 is inf",
    ),
    # past numpy's Poisson limit: numpy's bare "lam value too large"
    "event-budget": (
        {"frequency": {"link": "identity", "alpha0": 1e19, "alpha1": 0.0}, "years": [1, 2]},
        [],
        "config.frequency: expects 2e+19 events over 2 years, more than the "
        "10000000 a catalog may hold",
    ),
    # every rate is finite, their sum is not
    "event-budget-overflow": (
        {"frequency": {"link": "identity", "alpha0": 1e308, "alpha1": 0.0}, "years": [1, 2]},
        [],
        "config.frequency: expects inf events over 2 years",
    ),
    # the severity model's span check, mapped as the frequency model's
    "severity-moments-overflow": (
        {"severity": {"family": "lognormal", "beta0": 710.0, "beta1": 0.0, "shape": 1.0}},
        [],
        "config.severity: intensity moments at t=1 (driver 710.0) are not finite",
    ),
    "replicates-floor": (
        {"mode": "verify"}, ["--replicates", "500"], "--replicates: need at least 1000"
    ),
    "replicates-budget": (
        {"mode": "verify"}, ["--replicates", str(10**12)], "--replicates: at most"
    ),
    # one 1000-replicate block would need 1e12 marks (7.3 TiB)
    "marks-budget": (
        {"mode": "verify", "frequency": {"link": "identity", "alpha0": 1e9, "alpha1": 0.0}},
        ["--replicates", "1000"],
        "config.frequency: expects 1e+12 marks in a block of 1000 replicates at year "
        "index 30, more than the 10000000 a block may hold",
    ),
    # each block's 8.2e5 marks fit, the ensemble's 2.5e8 do not
    "ensemble-marks-budget": (
        {"mode": "verify", "frequency": {"link": "identity", "alpha0": 25.0, "alpha1": 0.0}},
        ["--replicates", str(10**7)],
        "config.frequency: expects 2.5e+08 marks in 10000000 replicates at year "
        "index 30, more than the 200000000 an ensemble may draw",
    ),
    "year-past-the-run": (
        {"mode": "verify"},
        ["--replicates", "1000", "--year", "61"],
        "--year: must lie in [1, 60], got 61",
    ),
    "year-zero": (
        {"mode": "verify"},
        ["--replicates", "1000", "--year", "0"],
        "--year: must lie in [1, 60], got 0",
    ),
    # past int64, numpy holds the year as a Python int in an object array
    "year-past-int64": (
        {"mode": "verify"},
        ["--replicates", "1000", "--year", str(10**23)],
        f"--year: must lie in [1, 60], got {10**23}",
    ),
    "years-reversed": ({"years": [60, 1]}, [], "config.years: start 60 exceeds end 1"),
    # one integer rule for the config file and the library
    "years-float": ({"years": [1.5, 60]}, [], "config.years: must be an integer, got 1.5"),
    "years-bool": ({"years": [True, 60]}, [], "config.years: must be an integer, got True"),
    "seed-bool": ({"seed": True}, [], "config.seed: must be an integer, got True"),
    # the event CSV's year range holds for every mode
    "years-past-int64": (
        {"years": [2**63 - 1, 2**63 + 3]},
        [],
        f"config.years: must be signed 64-bit integers, got {2**63 + 3}",
    ),
    # a JSON integer past the double range is refused as the infinity it rounds to
    "alpha0-past-double": (
        {"frequency": {"link": "log", "alpha0": 10**400, "alpha1": 0.0}},
        [],
        "config.frequency.alpha0: must be finite, got inf",
    ),
    "beta0-past-double": (
        {"severity": {"family": "exponential", "beta0": -(10**400), "beta1": 0.0}},
        [],
        "config.severity.beta0: must be finite, got -inf",
    ),
    "table1-gpd-shape": (None, ["--gpd-shape", "0.5"], "--gpd-shape: gpd shape must be"),
    "table1-gamma-shape": (
        None, ["--gamma-shape", "nan"], "--gamma-shape: must be finite, got nan"
    ),
    "table1-lognormal-sigma": (
        None, ["--lognormal-sigma", "40"], "--lognormal-sigma: intensity moments"
    ),
    # argparse alone reads -1e-3 and -1e300 as options, not as values
    "sigma-negative": (
        {"mode": "verify"},
        ["--replicates", "1000", "--sigma", "-1e-3"],
        "--sigma: must be positive and finite, got -0.001",
    ),
    "sigma-inf": (
        {"mode": "verify"},
        ["--replicates", "1000", "--sigma", "inf"],
        "--sigma: must be positive and finite, got inf",
    ),
    "table1-gpd-shape-negative": (
        None,
        ["--gpd-shape", "-1e300"],
        "--gpd-shape: intensity moments at t=1 (driver 1.0) are not finite with "
        "positive variance",
    ),
}


@pytest.mark.parametrize(
    "overrides, flags, prefix", FIELD_ERROR_CASES.values(), ids=FIELD_ERROR_CASES.keys()
)
def test_input_errors_name_the_field_or_flag(tmp_path, capsys, overrides, flags, prefix):
    out = tmp_path / "out"
    if overrides is None:
        argv = ["theory", "--table1", *flags, "--out", str(out)]
    else:
        cfg = simulate_config(**overrides)
        argv = [cfg["mode"], "--config", write_config(tmp_path, cfg), *flags, "--out", str(out)]
    assert _input_error(capsys, argv).startswith(prefix)
    assert not out.exists()


def test_verify_requires_replicates(tmp_path, capsys):
    error = _input_error(capsys, ["verify", "--config", verify_config(tmp_path)])
    assert error.startswith("usage: stormrisk verify")
    assert "the following arguments are required: --replicates" in error


ANALYZE_FLAG_CASES = {
    "below-3": (["--window", "2"], "--window: must be at least 3 years, got 2"),
    "past-the-catalog": (["--window", "6"], "--window: exceeds the 5-year catalog, got 6"),
    "level-one": (["--level", "1.0"], "--level: must lie in (0, 1), got 1.0"),
    "level-nan": (["--level", "nan"], "--level: must lie in (0, 1), got nan"),
    "level-negative-inf": (["--level", "-inf"], "--level: must lie in (0, 1), got -inf"),
}


@pytest.mark.parametrize(
    "flags, message", ANALYZE_FLAG_CASES.values(), ids=ANALYZE_FLAG_CASES.keys()
)
def test_analyze_window_errors_name_the_flag(tmp_path, capsys, flags, message):
    csv_path = tmp_path / "events.csv"
    csv_path.write_text("year,intensity\n2040,1.5\n2044,2.0\n", encoding="utf-8")
    out = tmp_path / "series.csv"
    argv = ["analyze", "--input", str(csv_path), *flags, "--out", str(out)]
    assert _input_error(capsys, argv) == message
    assert not out.exists()


# A path keeps its name in a message, also where the name is that of a
# library argument which the CLI reports under its flag.
_NOT_JSON = "invalid JSON: Expecting value: line 1 column 1 (char 0)"
_NOT_AN_EVENT = "line 2: intensity must be positive and finite, got -1"
PATHS_NAMED_LIKE_ARGUMENTS = {
    "window": (["analyze", "--input", "window"], f"window: {_NOT_AN_EVENT}"),
    "ci_level": (["analyze", "--input", "ci_level"], f"ci_level: {_NOT_AN_EVENT}"),
    "freq": (["simulate", "--config", "freq"], f"freq: {_NOT_JSON}"),
    "sev": (["simulate", "--config", "sev"], f"sev: {_NOT_JSON}"),
    "t": (["verify", "--config", "t", "--replicates", "1000"], f"t: {_NOT_JSON}"),
    "replicates": (
        ["verify", "--config", "replicates", "--replicates", "1000"],
        f"replicates: {_NOT_JSON}",
    ),
    "sigma": (["verify", "--config", "sigma", "--replicates", "1000"], f"sigma: {_NOT_JSON}"),
}


@pytest.mark.parametrize("name", PATHS_NAMED_LIKE_ARGUMENTS)
def test_a_path_named_like_an_argument_keeps_its_name(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    # neither a JSON config nor a valid event CSV
    Path(name).write_text("year,intensity\n2040,-1\n", encoding="utf-8")
    argv, message = PATHS_NAMED_LIKE_ARGUMENTS[name]
    assert _input_error(capsys, argv) == message


def test_every_translated_argument_has_its_cases():
    # each argument the CLI reports under a flag or field has a case that
    # pins the translation and one where a path of that name stays as is
    messages = [case[-1] for case in (*FIELD_ERROR_CASES.values(), *ANALYZE_FLAG_CASES.values())]
    for name, flag in sr.cli._ARG_FLAGS.items():
        assert any(m.startswith(f"{flag}: ") for m in messages), flag
        assert name in PATHS_NAMED_LIKE_ARGUMENTS, name


def test_analyze_year_span_past_row_budget_is_an_input_error(tmp_path, capsys):
    csv_path = tmp_path / "span.csv"
    csv_path.write_text(f"year,intensity\n1,1.5\n{10**15},2.0\n", encoding="utf-8")
    error = _input_error(capsys, ["analyze", "--input", str(csv_path)])
    assert f"1 to {10**15}" in error


# --- verify ---------------------------------------------------------------------


def verify_config(tmp_path):
    return write_config(
        tmp_path,
        {
            "mode": "verify",
            "frequency": {"link": "identity", "alpha0": 20.0, "alpha1": 0.0},
            "severity": {
                "family": "lognormal",
                "beta0": 1.0,
                "beta1": 0.0,
                "shape": 0.5,
            },
            "years": [1, 60],
            "seed": 1,
        },
    )


def test_verify_passes_at_default_tolerance(tmp_path):
    cfg = verify_config(tmp_path)
    out = tmp_path / "report.json"
    report = run(["verify", "--config", cfg, "--replicates", "50000", "--out", str(out)])
    assert report.status is ExitStatus.OK
    checks = report.payload["checks"]
    assert len(checks) == 8
    assert all(c["passed"] for c in checks)
    for c in checks:
        assert {"name", "estimate", "target", "se", "passed"} <= set(c)
    assert "PASS mean aggregate (Wald)" in report.summary
    saved = strict_json(out.read_text())
    assert saved["config"]["seed"] == 1
    assert saved["replicates"] == 50000


def test_verify_fails_when_tolerance_is_unreasonably_tight(tmp_path):
    cfg = verify_config(tmp_path)
    report = run(["verify", "--config", cfg, "--replicates", "20000", "--sigma", "0.001"])
    assert report.status is ExitStatus.VERIFICATION_FAILURE
    assert "FAIL" in report.summary


def test_verification_fails_checks_whose_statistics_overflow():
    # sums near 1e131 have a finite variance near 1e262, but the squares
    # in its batch-means standard error overflow
    counts = np.random.default_rng(0).poisson(10.0, 1000)
    sums = counts * 1e131
    first = np.where(counts > 0, 1e131, np.nan)
    sample = simulate.FixedYearSample(counts=counts, sums=sums, first_marks=first)
    config = stationary_config("lognormal", lam=10.0, mu=1.0, shape=1.0)
    summary = sr.risk_summary(config.freq, config.sev, 1)
    # no floating-point warning escapes: pytest makes warnings errors
    checks = {c["name"]: c for c in _checks(sample, summary, 4.0)}
    variance = checks["aggregate variance (Blackwell-Girshick)"]
    assert math.isfinite(variance["estimate"]) and variance["se"] == math.inf
    assert not variance["passed"]
    for c in checks.values():
        if not all(map(math.isfinite, (c["estimate"], c["target"], c["se"]))):
            assert not c["passed"], c["name"]


def test_verify_writes_non_finite_values_as_null(tmp_path, capsys):
    # at rate 1e-7 no replicate has an event, so the correlation, the
    # intensity covariance and the round trip have no estimate and no SE
    cfg = write_config(
        tmp_path,
        {
            "mode": "verify",
            "frequency": {"link": "identity", "alpha0": 1e-7, "alpha1": 0.0},
            "severity": {"family": "uniform", "beta0": 1.0, "beta1": 0.0},
            "years": [1, 3],
            "seed": 0,
        },
    )
    out = tmp_path / "report.json"
    argv = ["verify", "--config", cfg, "--replicates", "1000", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    stdout = captured.out.strip().splitlines()[-1]
    for payload in (strict_json(stdout), strict_json(out.read_text())):
        undefined = [c["name"] for c in payload["checks"] if c["estimate"] is None]
        assert undefined == [
            "count-aggregate correlation",
            "intensity-aggregate covariance",
            "correlation-dispersion round trip",
        ]
        assert all(c["se"] is None and c["target"] is not None for c in payload["checks"][5:])
    assert "FAIL count-aggregate correlation: estimate nan, target 0.866025, se nan" in captured.err


def test_verify_correlation_whose_variance_product_underflows_is_null(tmp_path, capsys):
    # var(N) * var(S) of a batch underflows to 0.0, so the batch estimate
    # is NaN; the aggregate variance is subnormal, yet the closed-form
    # correlation stays the lognormal exp(-shape^2 / 2)
    cfg = write_config(
        tmp_path,
        {
            "mode": "verify",
            "frequency": {"link": "identity", "alpha0": 0.05, "alpha1": 0.0},
            "severity": {"family": "lognormal", "beta0": -370.0, "beta1": 0.0, "shape": 3.0},
            "years": [1, 3],
            "seed": 0,
        },
    )
    assert main(["verify", "--config", cfg, "--replicates", "1000"]) == 1
    payload = strict_json(capsys.readouterr().out.strip().splitlines()[-1])
    checks = {c["name"]: c for c in payload["checks"]}
    correlation = checks["count-aggregate correlation"]
    assert correlation["target"] == pytest.approx(math.exp(-(3.0**2) / 2), rel=1e-6)
    assert not correlation["passed"]


@pytest.mark.parametrize("sigma", ["inf", "nan"])
def test_verify_rejects_non_finite_sigma(tmp_path, capsys, sigma):
    cfg = verify_config(tmp_path)
    argv = ["verify", "--config", cfg, "--replicates", "1000", "--sigma", sigma]
    assert main(argv) == 2
    captured = capsys.readouterr()
    payload = strict_json(captured.out.strip().splitlines()[-1])
    assert payload["error"].startswith("--sigma: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command, flags", [("theory", []), ("simulate", []), ("verify", ["--replicates", "1000"])]
)
def test_a_reports_config_reads_back_to_the_config_it_ran(tmp_path, command, flags):
    # the embedded config has no mode; parse_config reads it as the command's
    path = write_config(tmp_path, simulate_config(mode=command))
    report = run([command, "--config", path, *flags, "--out", str(tmp_path / "out")])
    assert report.status is ExitStatus.OK
    back = write_config(tmp_path, report.payload["config"], name="back.json")
    assert sr.parse_config(back, command) == sr.parse_config(path, command)


# --- dispatch and exit codes ------------------------------------------------------


def test_unknown_subcommand_and_flags():
    report = run(["frobnicate"])
    assert report.status is ExitStatus.INPUT_ERROR
    assert "usage" in report.summary.lower()
    report = run(["theory", "--bogus"])
    assert report.status is ExitStatus.INPUT_ERROR


def test_main_exit_codes(tmp_path, capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    cfg = write_config(tmp_path, simulate_config())
    out = tmp_path / "e.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    payload = strict_json(captured.out.strip().splitlines()[-1])
    assert payload["mode"] == "simulate"
    assert payload["config"]["seed"] == 11
    cfg_bad = write_config(tmp_path, simulate_config(seed="nope"), name="bad.json")
    assert main(["simulate", "--config", cfg_bad, "--out", str(out)]) == 2


def test_exception_of_a_command_is_an_internal_error(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("injected")

    monkeypatch.setattr(sr.cli, "_cmd_theory", boom)
    assert main(["theory", "--table1"]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    payload = strict_json(captured.out.strip().splitlines()[-1])
    assert payload == {"error": "internal error: RuntimeError: injected"}
    assert run(["theory", "--table1"]).status is ExitStatus.INTERNAL_ERROR


def test_csv_on_stdout_when_out_omitted(tmp_path, capsys):
    assert main(["theory", "--table1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("family,")
    # machine report suppressed when CSV occupies stdout
    assert "{" not in captured.out


def modules_loaded_by(code: str) -> set[str]:
    """The modules loaded after ``import stormrisk.cli`` and then ``code``
    run in a fresh interpreter."""
    src = str(Path(sr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, stormrisk.cli\n{code}\nprint('\\nmodules:', *sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    label, *modules = proc.stdout.splitlines()[-1].split()
    assert label == "modules:"
    return set(modules)


def scipy_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


def test_cli_import_leaves_scipy_unloaded():
    # setup_s of the benchmark times a bare start of the CLI
    assert not scipy_modules(modules_loaded_by(""))


@pytest.mark.parametrize("command", ["theory", "simulate", "analyze", "verify"])
def test_no_command_loads_scipy(tmp_path, command):
    # the Fisher bounds' normal quantile is computed in the package, so
    # SciPy is needed by the tests alone
    events = tmp_path / "events.csv"
    events.write_text("year,intensity\n1,1.0\n2,2.0\n3,1.5\n4,3.0\n5,2.5\n")
    cfg = write_config(tmp_path, simulate_config(mode=command, years=[1, 10]))
    out = tmp_path / "out.csv"
    argv = {
        "theory": ["theory", "--config", cfg, "--out", str(out)],
        "simulate": ["simulate", "--config", cfg, "--out", str(out)],
        "analyze": ["analyze", "--input", str(events), "--window", "3", "--out", str(out)],
        "verify": ["verify", "--config", cfg, "--replicates", "1000"],
    }[command]
    loaded = modules_loaded_by(f"assert stormrisk.cli.main({argv!r}) == 0")
    assert not scipy_modules(loaded)


def test_cli_import_leaves_the_csv_encoder_unloaded():
    assert "stormrisk._cells" not in modules_loaded_by("")


def test_cli_import_leaves_the_csv_decoder_unloaded():
    # `read_events_csv` imports it on first use, as the writer the encoder
    assert "stormrisk._decode" not in modules_loaded_by("")


def test_cli_import_leaves_concurrent_futures_unloaded():
    # ensembles start their threads with `threading`, which the import
    # loads anyway; concurrent.futures would add about 10 ms to every call
    assert "concurrent.futures" not in modules_loaded_by("")


def test_simulate_without_a_seed_is_an_input_error(tmp_path):
    cfg = simulate_config()
    del cfg["seed"]
    out = tmp_path / "events.csv"
    report = run(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert report.status is ExitStatus.INPUT_ERROR
    assert report.payload["error"] == "config.seed: required for this mode"
    assert not out.exists()


def test_simulate_of_a_catalog_without_events_writes_the_header_alone(tmp_path):
    # a rate of exp(-50) per year: no event in 60 years
    cfg = simulate_config(frequency={"link": "log", "alpha0": -50.0, "alpha1": 0.0})
    out = tmp_path / "events.csv"
    report = run(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert report.status is ExitStatus.OK
    assert (report.payload["n_events"], report.payload["n_years"]) == (0, 60)
    assert out.read_bytes() == b"year,intensity\r\n"


# --- the contract under any input ---------------------------------------------


def _mostly(ordinary, rare):
    """``ordinary`` seven times in eight, so that most runs get past
    validation, and ``rare`` otherwise."""
    return st.sampled_from([ordinary] * 7 + [rare]).flatmap(lambda s: s)


_EDGE_YEARS = [-(2**63) - 1, -(2**63), 2**63 - 5, 2**63 - 1, 2**63, 2**64]
FUZZ_YEARS = _mostly(
    st.tuples(st.integers(-3, 2100), st.integers(0, 8)),
    st.tuples(
        st.one_of(st.integers(-3, 2100), st.sampled_from(_EDGE_YEARS)),
        st.sampled_from([-1, 0, 4, 10**4, 10**7, 2**64]),
    ),
).map(lambda y: [y[0], y[0] + y[1]])
# The rare values of a model's number field: extreme floats, and one
# time in three an integer past the double range, which JSON holds and
# Python reads
FUZZ_NUMBERS = st.sampled_from(
    [EXTREME_FLOATS, EXTREME_FLOATS, st.sampled_from([10**400, -(10**400)])]
).flatmap(lambda s: s)
# GPD shapes near zero, where the inverse CDF cancels
FUZZ_SHAPES = _mostly(
    st.one_of(
        st.floats(0.05, 0.49),
        st.floats(-1.0, 0.0),
        st.sampled_from([5e-324, -5e-324, 1e-17, -1e-12, 1e-8]),
    ),
    FUZZ_NUMBERS,
)


@st.composite
def fuzz_severities(draw):
    family = draw(_mostly(st.sampled_from(FAMILIES), st.sampled_from(["GPD", "pareto"])))
    severity = {
        "family": family,
        "beta0": draw(_mostly(st.floats(0.1, 10.0), FUZZ_NUMBERS)),
        "beta1": draw(_mostly(st.floats(-0.1, 0.1), FUZZ_NUMBERS)),
    }
    shaped = family in ("gamma", "lognormal", "gpd")
    if draw(_mostly(st.just(shaped), st.booleans())):
        severity["shape"] = draw(FUZZ_SHAPES)
    return severity


FUZZ_CONFIGS = st.fixed_dictionaries(
    {
        "frequency": st.fixed_dictionaries(
            {
                "link": _mostly(st.sampled_from(["log", "identity"]), st.just("logit")),
                "alpha0": _mostly(st.floats(-1.0, 4.0), FUZZ_NUMBERS),
                "alpha1": _mostly(st.floats(-0.1, 0.1), FUZZ_NUMBERS),
            }
        ),
        "severity": fuzz_severities(),
        "years": FUZZ_YEARS,
        "seed": _mostly(st.integers(0, 2**64 - 1), st.sampled_from([-1, 2**64, "1", None])),
    },
)
FLAG_FLOATS = _mostly(st.floats(0.01, 10.0), EXTREME_FLOATS).map(repr)


@st.composite
def invocations(draw):
    """An argv without ``--out``, and the bytes of the files it names."""
    command = draw(st.sampled_from(["theory", "table1", "simulate", "verify", "verify", "analyze"]))
    if command == "table1":
        flags = ["--gamma-shape", "--lognormal-sigma", "--gpd-shape"]
        chosen = draw(st.lists(st.sampled_from(flags), unique=True))
        return ["theory", "--table1", *(a for f in chosen for a in (f, draw(FLAG_FLOATS)))], {}
    if command == "analyze":
        data = draw(event_csvs())
        if draw(_mostly(st.just(False), st.just(True))):  # a byte no UTF-8 text holds
            at = draw(st.integers(0, len(data)))
            data = data[:at] + b"\xff" + data[at:]
        argv = ["analyze", "--input", "events.csv"]
        if draw(st.booleans()):
            argv += ["--window", str(draw(st.integers(-1, 8)))]
        if draw(st.booleans()):
            argv += ["--level", draw(FLAG_FLOATS)]
        return argv, {"events.csv": data}
    argv = [command, "--config", "cfg.json"]
    if command == "verify":
        replicates = _mostly(st.integers(1000, 3000), st.sampled_from([999, 10**4 + 1, 10**12]))
        argv += ["--replicates", str(draw(replicates))]
        if draw(st.booleans()):
            argv += ["--year", str(draw(_mostly(st.integers(1, 9), st.integers(-1, 10**20))))]
        if draw(st.booleans()):
            argv += ["--sigma", draw(FLAG_FLOATS)]
    config = {"mode": command, **draw(FUZZ_CONFIGS)}
    return argv, {"cfg.json": json.dumps(config).encode()}


def _finite(value) -> bool:
    return abs(value) <= sys.float_info.max  # False for NaN


# Each model field of a config in the order the models check them, with
# whether a model takes a fuzzed value
MODEL_RULES = [
    ("frequency", "link", lambda v: v in ("log", "identity")),
    ("frequency", "alpha0", _finite),
    ("frequency", "alpha1", _finite),
    ("severity", "family", lambda v: v.lower() in FAMILIES),
    ("severity", "beta0", _finite),
    ("severity", "beta1", _finite),
    ("severity", "shape", _finite),
]


def _first_refused_field(config: dict) -> str | None:
    """The config path of the first model field, in check order, whose
    fuzzed value no model takes."""
    for model, name, takes in MODEL_RULES:
        if name in config[model] and not takes(config[model][name]):
            return f"config.{model}.{name}"
    return None


# verify checks whose target is a correlation or a variance
TARGET_RANGES = {
    "count-aggregate correlation": (0.0, 1.0),
    "count variance": (0.0, math.inf),
    "aggregate variance (Blackwell-Girshick)": (0.0, math.inf),
    "intensity-aggregate covariance": (0.0, math.inf),  # Var(X)
}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=invocations())
def test_every_input_exits_0_1_or_2_with_a_json_payload(tmp_path_factory, case):
    argv, files = case
    where = tmp_path_factory.mktemp("run")
    for name, data in files.items():
        (where / name).write_bytes(data)
    argv = [str(where / a) if a in files else a for a in argv] + ["--out", str(where / "out")]
    out, err = io.StringIO(), io.StringIO()
    # a 10^4 row budget rejects the catalogs and ensembles too large to
    # draw in a unit test the way 10^7 rejects larger ones
    with (
        mock.patch.object(simulate, "_MAX_ROWS", 10**4),
        mock.patch.object(catalog, "_MAX_ROWS", 10**4),
        warnings.catch_warnings(record=True),  # kept, as the default filters print them
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        warnings.simplefilter("default")
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    payload = strict_json(out.getvalue().splitlines()[-1])
    assert "Traceback" not in err.getvalue()
    # a model number past the double range is an input error, under the
    # seed a run requires or the first refused model field
    config = json.loads(files.get("cfg.json", b"{}"))
    numbers = [v for key in ("frequency", "severity") for v in config.get(key, {}).values()]
    if any(isinstance(v, int) and not _finite(v) for v in numbers):
        seedless = config["seed"] is None and config["mode"] != "theory"
        path = "config.seed" if seedless else _first_refused_field(config)
        assert code == 2 and payload["error"].startswith(f"{path}: "), payload
    # a closed-form target is null or in its range
    for check in payload.get("checks", ()):
        target = check["target"]
        if check["name"] in TARGET_RANGES and target is not None:
            low, high = TARGET_RANGES[check["name"]]
            assert low <= target <= high, check
