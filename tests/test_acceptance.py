"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete).  Closed-form targets are checked exactly (1e-12 relative);
Monte Carlo targets use their stated tolerance, usually four standard
errors from seeded ensembles.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

import stormrisk as sr
from stormrisk.cli import ExitStatus, run
from stormrisk.estimate import fisher_interval, long_run_series, nx_independence
from stormrisk.frequency import rate
from stormrisk.io import CatalogFormatError
from stormrisk.riskmodel import j_squared_from_correlation
from stormrisk.severity import j_squared, severity_moments
from stormrisk.simulate import replicate_fixed_year

from helpers import (
    FAMILIES,
    random_model_pair,
    read_series,
    rel_err,
    stationary_config,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _batch_se(values: np.ndarray, stat, n_batches: int = 100) -> float:
    parts = [stat(chunk) for chunk in np.array_split(values, n_batches, axis=-1)]
    return float(np.std(parts, ddof=1) / math.sqrt(len(parts)))


# -----------------------------------------------------------------------------
# 1. Algebraic identity suite (exact, 1e-12 relative)
# -----------------------------------------------------------------------------


def test_criterion_1_algebraic_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for i in range(1000):
        freq, sev, t = random_model_pair(rng, FAMILIES[i % 5])
        lam = rate(freq, t)
        m = severity_moments(sev, t)

        s = sr.risk_summary(freq, sev, t)
        phi = 1.0
        rho = s.cor_ns

        errs = [
            rel_err(s.e_s, lam * m.mean),                                  # Wald
            rel_err(s.var_s, lam * m.second_moment),                       # Poisson shortcut
            rel_err(s.var_s, lam * (m.variance + phi * m.mean**2)),        # phi form
            rel_err(s.cov_ns, m.mean * lam),                               # E[X] Var(N)
            rel_err(s.cov_ns, phi * s.e_s),                                # phi E[S]
        ]
        worst = max(worst, *errs)
        assert all(e <= 1e-12 for e in errs)
        assert rel_err(
            j_squared_from_correlation(rho, 1.0), j_squared(sev)
        ) <= 1e-10

    # long-run Wald identity at every cutoff, one catalog per family
    for k, family in enumerate(FAMILIES):
        shape = {"gamma": 1.5, "lognormal": 0.5, "gpd": 0.2}.get(family)
        config = stationary_config(family, lam=9.0, mu=2.0, shape=shape, seed=2000 + k)
        series = long_run_series(sr.simulate_catalog(config))
        defined = ~np.isnan(series.e_x)
        lhs = series.e_n[defined] * series.e_x[defined]
        assert np.all(np.abs(lhs - series.e_s[defined]) <= 1e-12 * np.abs(series.e_s[defined]))

    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (algebraic identities)",
        True,
        f"1000 random models x 5 identities, worst relative error {worst:.2e}, "
        f"long-run product identity exact at every cutoff; {elapsed:.2f}s",
    )


# -----------------------------------------------------------------------------
# 2. Reference-table reproduction (exact symbolic targets, 1e-12)
# -----------------------------------------------------------------------------


def test_criterion_2_reference_table(tmp_path):
    start = time.perf_counter()
    theta, sigma, xi = 2.0, 1.0, 0.25
    symbolic = {
        "uniform": (math.sqrt(3) / 2, 3.0),
        "gamma": (theta / math.sqrt(theta + theta**2), theta),
        "exponential": (math.sqrt(2) / 2, 1.0),
        "lognormal": (math.exp(-(sigma**2) / 2), 1 / (math.exp(sigma**2) - 1)),
        "gpd": (math.sqrt((1 - 2 * xi) / (2 - 2 * xi)), 1 - 2 * xi),
    }
    shapes = {"gamma": theta, "lognormal": sigma, "gpd": xi}

    for family, (cor, j2) in symbolic.items():
        row = sr.table1_row(family, mu=1.7, lam=4.2, shape=shapes.get(family))
        assert rel_err(row.cor_ns, cor) <= 1e-12
        assert rel_err(row.j_squared, j2) <= 1e-12

    # exponential row at unit parameters: E[S] = 1, Var(S) = 2
    row = sr.table1_row("exponential", mu=1.0, lam=1.0)
    assert rel_err(row.e_s, 1.0) <= 1e-12 and rel_err(row.var_s, 2.0) <= 1e-12

    # and through the CLI
    out = tmp_path / "table1.csv"
    report = run(["theory", "--table1", "--out", str(out)])
    assert report.status is ExitStatus.OK
    with open(out, newline="") as fh:
        rows = {r["family"]: r for r in csv.DictReader(fh)}
    for family, (cor, j2) in symbolic.items():
        assert rel_err(float(rows[family]["cor_ns"]), cor) <= 1e-12
        assert rel_err(float(rows[family]["j_squared"]), j2) <= 1e-12

    elapsed = time.perf_counter() - start
    _report(
        "criterion 2 (reference table)",
        True,
        f"correlation and shape-ratio columns match the symbolic forms for all "
        f"five families, direct and via the CLI; {elapsed:.2f}s",
    )


# -----------------------------------------------------------------------------
# 3. Monte Carlo oracle suite (seeded, 1e6 replicates per family, 4 SE)
# -----------------------------------------------------------------------------

MC_CASES = [
    ("uniform", 10.0, None),
    ("gamma", 1.5, 2.0),
    ("exponential", 2.0, None),
    ("lognormal", 1.0, 0.5),
    ("gpd", 0.5, 0.25),
]


def test_criterion_3_monte_carlo_oracle():
    start = time.perf_counter()
    sigma = 4.0
    replicates = 1_000_000
    lines = []
    for k, (family, mu, shape) in enumerate(MC_CASES):
        config = stationary_config(family, lam=20.0, mu=mu, shape=shape, seed=3000 + k)
        summary = sr.risk_summary(config.freq, config.sev, 1)
        ens = replicate_fixed_year(config, 1, replicates)
        n = ens.counts.astype(np.float64)
        s = ens.sums

        def cov_of(a, b):
            return float(np.mean(a * b) - np.mean(a) * np.mean(b))

        def cor_of(chunk):
            cn, cs = chunk
            return cov_of(cn, cs) / math.sqrt(np.var(cn) * np.var(cs))

        pairs = np.vstack([n, s])
        mask = ~np.isnan(ens.first_marks)
        xs_pairs = np.vstack([ens.first_marks[mask], s[mask]])

        checks = [
            ("mean N", n.mean(), summary.e_n, math.sqrt(n.var() / len(n))),
            ("var N", np.var(n), summary.var_n, _batch_se(n[None, :], lambda c: np.var(c[0]))),
            ("mean S", s.mean(), summary.e_s, math.sqrt(s.var() / len(s))),
            ("var S", np.var(s), summary.var_s, _batch_se(s[None, :], lambda c: np.var(c[0]))),
            (
                "cov(N,S)",
                cov_of(n, s),
                summary.cov_ns,
                _batch_se(pairs, lambda c: cov_of(c[0], c[1])),
            ),
            ("cor(N,S)", cor_of(pairs), summary.cor_ns, _batch_se(pairs, cor_of)),
            (
                "cov(X,S)",
                cov_of(*xs_pairs),
                summary.var_x,
                _batch_se(xs_pairs, lambda c: cov_of(c[0], c[1])),
            ),
        ]
        for name, est, target, se in checks:
            ok = abs(est - target) <= sigma * se
            if not ok:
                _report(
                    "criterion 3 (Monte Carlo oracle)",
                    False,
                    f"{family} {name}: estimate {est:.6g} vs target {target:.6g} "
                    f"exceeds {sigma} x se {se:.3g}",
                )
        lines.append(f"{family} ok")

    elapsed = time.perf_counter() - start
    _report(
        "criterion 3 (Monte Carlo oracle)",
        True,
        f"mean/variance/covariance/correlation of (N, S) and cov(X, S) "
        f"within {sigma} standard errors at 1e6 replicates for all five "
        f"families; {elapsed:.1f}s",
    )


def test_criterion_3_cli_verify_at_full_strength(tmp_path):
    """The verify subcommand at 1e6 replicates on the Poisson/lognormal
    model: every check passes at the default 4-standard-error tolerance."""
    start = time.perf_counter()
    config = {
        "mode": "verify",
        "frequency": {"link": "identity", "alpha0": 20.0, "alpha1": 0.0},
        "severity": {"family": "lognormal", "beta0": 1.0, "beta1": 0.0, "shape": 0.5},
        "years": [1, 60],
        "seed": 1,
    }
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    report = run(["verify", "--config", str(path), "--replicates", "1000000"])
    ok = report.status is ExitStatus.OK and all(
        c["passed"] for c in report.payload["checks"]
    )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3 (CLI verify)",
        ok,
        f"{sum(c['passed'] for c in report.payload['checks'])}/"
        f"{len(report.payload['checks'])} verify checks passed at 1e6 "
        f"replicates, seed 1; {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------------
# 4. Simulated heavy-tail model: long-run diagnostic and correlation band
# -----------------------------------------------------------------------------


def test_criterion_4_simulated_gpd_model():
    start = time.perf_counter()
    xi = 0.2
    target_j2phi = (1 - 2 * xi) ** 2  # 0.36
    rho_target = math.sqrt((1 - 2 * xi) / (2 - 2 * xi))
    terminal_j2phi = []
    band_hits = 0
    n_reps = 500
    for seed in range(n_reps):
        config = stationary_config("gpd", lam=20.0, mu=1.0, shape=xi, seed=seed)
        series = long_run_series(sr.simulate_catalog(config))
        terminal_j2phi.append(series.j2phi[-1])
        if series.rho_lo[-1] <= rho_target <= series.rho_hi[-1]:
            band_hits += 1

    mean_j2phi = float(np.mean(terminal_j2phi))
    hit_rate = band_hits / n_reps
    ok = abs(mean_j2phi - target_j2phi) <= 0.05 and hit_rate >= 0.90
    elapsed = time.perf_counter() - start
    _report(
        "criterion 4 (simulated GPD model)",
        ok,
        f"replicate-mean terminal j2phi {mean_j2phi:.4f} (target "
        f"{target_j2phi} +/- 0.05); terminal correlation inside its 95% "
        f"Fisher band in {hit_rate:.1%} of {n_reps} replicates (need >= 90%); "
        f"{elapsed:.1f}s",
    )


# -----------------------------------------------------------------------------
# 5. Fisher interval coverage
# -----------------------------------------------------------------------------


def test_criterion_5_fisher_coverage():
    start = time.perf_counter()
    rho, n, trials, level = 0.6, 50, 2000, 0.95
    rng = np.random.default_rng(5001)
    x = rng.standard_normal((trials, n))
    y = rho * x + math.sqrt(1 - rho**2) * rng.standard_normal((trials, n))
    xm = x - x.mean(axis=1, keepdims=True)
    ym = y - y.mean(axis=1, keepdims=True)
    r = (xm * ym).sum(axis=1) / np.sqrt((xm**2).sum(axis=1) * (ym**2).sum(axis=1))

    lo, hi = fisher_interval(r, n, level)
    coverage = float(np.mean((lo <= rho) & (rho <= hi)))
    ok = 0.93 <= coverage <= 0.97
    elapsed = time.perf_counter() - start
    _report(
        "criterion 5 (Fisher coverage)",
        ok,
        f"empirical 95% coverage {coverage:.1%} over {trials} bivariate-normal "
        f"trials (rho=0.6, n=50), required [93%, 97%]; {elapsed:.2f}s",
    )


# -----------------------------------------------------------------------------
# 6. Long-run dispersion convergence
# -----------------------------------------------------------------------------


def test_criterion_6_dispersion_convergence():
    start = time.perf_counter()
    config = stationary_config(
        "exponential", lam=30.0, mu=26.7, years=(1, 10_000), seed=6001
    )
    catalog = sr.simulate_catalog(config)
    series = long_run_series(catalog)
    phi_terminal = float(series.phi[-1])
    ok = abs(phi_terminal - 1.0) <= 0.05
    elapsed = time.perf_counter() - start
    _report(
        "criterion 6 (dispersion convergence)",
        ok,
        f"10^4-year Poisson catalog: terminal dispersion {phi_terminal:.4f} "
        f"(target 1 +/- 0.05; minus one, Mailier's index); {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------------
# 7. Count/intensity independence diagnostic
# -----------------------------------------------------------------------------


def test_criterion_7_independence_diagnostic():
    # Under within-year independence the diagnostic concentrates near
    # zero; real storm catalogs have shown values around 0.16, which
    # this tolerance would still flag as only weak dependence.
    start = time.perf_counter()
    n_reps, years = 200, 500
    small = 0
    for seed in range(n_reps):
        config = stationary_config(
            "exponential", lam=29.5, mu=26.7, years=(1, years), seed=seed
        )
        value = nx_independence(sr.simulate_catalog(config))
        small += abs(value) < 0.1
    rate = small / n_reps
    ok = rate >= 0.95
    elapsed = time.perf_counter() - start
    _report(
        "criterion 7 (independence diagnostic)",
        ok,
        f"|count vs mean-intensity correlation| < 0.1 at {years} years in "
        f"{rate:.1%} of {n_reps} conditionally independent replicates "
        f"(need >= 95%); {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------------
# 8. I/O round trips and located errors
# -----------------------------------------------------------------------------


def test_criterion_8_io_round_trip(tmp_path):
    start = time.perf_counter()
    config = {
        "mode": "simulate",
        "frequency": {"link": "identity", "alpha0": 15.0, "alpha1": 0.0},
        "severity": {"family": "lognormal", "beta0": 1.0, "beta1": 0.0, "shape": 0.5},
        "years": [2040, 2099],
        "seed": 8001,
    }
    config_path = tmp_path / "simulate.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    catalog = sr.simulate_catalog(sr.parse_config(config_path, "simulate"))

    events_path = tmp_path / "events.csv"
    report = run(["simulate", "--config", str(config_path), "--out", str(events_path)])
    assert report.status is ExitStatus.OK
    back = sr.read_events_csv(events_path)
    assert np.array_equal(back.event_years, catalog.event_years)
    assert np.array_equal(back.intensities, catalog.intensities)

    series = long_run_series(catalog)
    series_path = tmp_path / "series.csv"
    report = run(["analyze", "--input", str(events_path), "--out", str(series_path)])
    assert report.status is ExitStatus.OK
    again = read_series(series_path)
    assert np.array_equal(again["t"], series.years)
    for name in type(series).column_names()[1:]:
        assert np.array_equal(again[name], getattr(series, name), equal_nan=True)

    # malformed inputs produce located errors, never crashes
    cases = {
        "neg.csv": ("year,intensity\n2040,-3\n", "line 2"),
        "text.csv": ("year,intensity\n2040,ok\n", "line 2"),
        "hdr.csv": ("time,speed\n1,2\n", "header"),
        "empty.csv": ("", "empty"),
    }
    for name, (text, needle) in cases.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CatalogFormatError, match=needle):
            sr.read_events_csv(path)

    elapsed = time.perf_counter() - start
    _report(
        "criterion 8 (I/O round trip)",
        True,
        f"event and series CSVs round-trip exactly; malformed inputs "
        f"raise located format errors; {elapsed:.2f}s",
    )
