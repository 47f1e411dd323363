import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stormrisk as sr
from stormrisk.cli import ExitStatus, main, run

from helpers import read_series


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


def test_theory_requires_config_or_table1():
    report = run(["theory"])
    assert report.status is ExitStatus.INPUT_ERROR


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
    expected = sr.long_run_series(sr.read_events_csv(events))
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
    assert diag["mailier_index"] is not None
    assert len(diag["season_activity"]) == 60


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
    payload = json.loads(captured.out.strip().splitlines()[-1])
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
    payload = json.loads(captured.out.strip().splitlines()[-1])
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
    payload = json.loads(captured.out.strip().splitlines()[-1])
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
    return json.loads(captured.out.strip().splitlines()[-1])["error"]


def test_theory_years_past_row_budget_is_an_input_error(tmp_path, capsys):
    cfg = write_config(tmp_path, simulate_config(mode="theory", years=[1, 10**12]))
    out = tmp_path / "theory.csv"
    error = _input_error(capsys, ["theory", "--config", cfg, "--out", str(out)])
    assert error.startswith("config.years: ")
    assert not out.exists()


def test_verify_replicates_past_row_budget_is_an_input_error(tmp_path, capsys):
    argv = ["verify", "--config", verify_config(tmp_path), "--replicates", str(10**12)]
    assert _input_error(capsys, argv).startswith("--replicates: ")


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
    "table1-gpd-shape": (None, ["--gpd-shape", "0.5"], "--gpd-shape: gpd shape must be"),
    "table1-gamma-shape": (None, ["--gamma-shape", "nan"], "--gamma-shape: shape must be"),
    "table1-lognormal-sigma": (
        None, ["--lognormal-sigma", "40"], "--lognormal-sigma: intensity moments"
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


@pytest.mark.parametrize(
    "window, message",
    [("2", "--window: must be at least 3 years, got 2"),
     ("6", "--window: exceeds the 5-year catalog, got 6")],
    ids=["below-3", "past-the-catalog"],
)
def test_analyze_window_errors_name_the_flag(tmp_path, capsys, window, message):
    csv_path = tmp_path / "events.csv"
    csv_path.write_text("year,intensity\n2040,1.5\n2044,2.0\n", encoding="utf-8")
    out = tmp_path / "series.csv"
    argv = ["analyze", "--input", str(csv_path), "--window", window, "--out", str(out)]
    assert _input_error(capsys, argv) == message
    assert not out.exists()


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
    saved = json.loads(out.read_text())
    assert saved["config"]["seed"] == 1
    assert saved["replicates"] == 50000


def test_verify_fails_when_tolerance_is_unreasonably_tight(tmp_path):
    cfg = verify_config(tmp_path)
    report = run(["verify", "--config", cfg, "--replicates", "20000", "--sigma", "0.001"])
    assert report.status is ExitStatus.VERIFICATION_FAILURE
    assert "FAIL" in report.summary


def test_verify_rejects_tiny_replicate_counts(tmp_path):
    cfg = verify_config(tmp_path)
    report = run(["verify", "--config", cfg, "--replicates", "10"])
    assert report.status is ExitStatus.INPUT_ERROR


@pytest.mark.parametrize("sigma", ["inf", "nan"])
def test_verify_rejects_non_finite_sigma(tmp_path, capsys, sigma):
    cfg = verify_config(tmp_path)
    argv = ["verify", "--config", cfg, "--replicates", "1000", "--sigma", sigma]
    assert main(argv) == 2
    captured = capsys.readouterr()
    payload = json.loads(captured.out.strip().splitlines()[-1])
    assert payload["error"].startswith("--sigma: ")
    assert "Traceback" not in captured.err


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
    payload = json.loads(captured.out.strip().splitlines()[-1])
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
    payload = json.loads(captured.out.strip().splitlines()[-1])
    assert payload == {"error": "internal error: RuntimeError: injected"}
    assert run(["theory", "--table1"]).status is ExitStatus.INTERNAL_ERROR


def test_csv_on_stdout_when_out_omitted(tmp_path, capsys):
    assert main(["theory", "--table1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("family,")
    # machine report suppressed when CSV occupies stdout
    assert "{" not in captured.out


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(sr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, stormrisk.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    cfg = simulate_config()
    del cfg["seed"]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "events.csv"

    monkeypatch.delenv("RANDSUM_SEED", raising=False)
    report = run(["simulate", "--config", path, "--out", str(out)])
    assert report.status is ExitStatus.INPUT_ERROR
    assert "RANDSUM_SEED" in report.summary

    monkeypatch.setenv("RANDSUM_SEED", "11")
    report = run(["simulate", "--config", path, "--out", str(out)])
    assert report.status is ExitStatus.OK
    assert report.payload["config"]["seed"] == 11

    # identical to an explicit seed of 11
    explicit = tmp_path / "explicit.csv"
    run(["simulate", "--config", write_config(tmp_path, simulate_config(), name="e.json"), "--out", str(explicit)])
    assert explicit.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("raw", ["-1", str(2**64)])
def test_seed_env_out_of_range(tmp_path, monkeypatch, raw):
    cfg = simulate_config()
    del cfg["seed"]
    monkeypatch.setenv("RANDSUM_SEED", raw)
    report = run(["simulate", "--config", write_config(tmp_path, cfg)])
    assert report.status is ExitStatus.INPUT_ERROR
    assert report.payload["error"] == f"RANDSUM_SEED: must fit in unsigned 64 bits, got {raw}"
