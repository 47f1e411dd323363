import math
import re

import numpy as np
import pytest

import stormrisk as sr
from stormrisk.estimate import fisher_interval

from helpers import stationary_config


def catalog_from_yearly(counts, mean_intensities):
    """Catalog with the given per-year counts, every event in a year
    carrying that year's mean intensity."""
    years, xs = [], []
    for i, (n, x) in enumerate(zip(counts, mean_intensities)):
        years.extend([i + 1] * n)
        xs.extend([x] * n)
    return sr.EventCatalog.from_events(years, xs, year_range=(1, len(counts)))


# --- long-run series ---------------------------------------------------------


def test_constant_catalog_long_run_values():
    catalog = catalog_from_yearly([2, 2, 2], [3.0, 3.0, 3.0])
    series = sr.long_run_series(catalog)
    assert np.allclose(series.e_n, [2, 2, 2])
    assert np.allclose(series.e_s, [6, 6, 6])
    assert np.allclose(series.e_x, 3.0)
    assert np.allclose(series.phi, 0.0)


def test_long_run_wald_identity_holds_at_every_cutoff():
    config = stationary_config("gamma", lam=8.0, mu=2.0, shape=1.5, years=(1, 200), seed=14)
    series = sr.long_run_series(sr.simulate_catalog(config))
    defined = ~np.isnan(series.e_x)
    prod = series.e_n[defined] * series.e_x[defined]
    assert np.all(np.abs(prod - series.e_s[defined]) <= 1e-12 * np.abs(series.e_s[defined]))


def test_long_run_converges_to_model_values():
    # stationary Poisson rate 29.5, exponential mean 26.7 => aggregate 787.65
    config = stationary_config(
        "exponential", lam=29.5, mu=26.7, years=(1, 2000), seed=6
    )
    series = sr.long_run_series(sr.simulate_catalog(config))
    assert abs(series.e_n[-1] - 29.5) <= 0.5
    assert abs(series.e_x[-1] - 26.7) <= 0.5
    assert abs(series.e_s[-1] - 787.65) <= 15.0
    assert abs(series.phi[-1] - 1.0) <= 0.1


def test_e_x_undefined_until_first_event():
    counts = [0, 0, 3, 1]
    catalog = catalog_from_yearly(counts, [0.0, 0.0, 2.0, 4.0])
    series = sr.long_run_series(catalog)
    assert np.isnan(series.e_x[0]) and np.isnan(series.e_x[1])
    assert series.e_x[2] == 2.0
    assert np.isnan(series.j2phi[:2]).all()


def test_phi_undefined_when_no_events_at_all():
    catalog = sr.EventCatalog.from_events([], [], year_range=(1, 5))
    series = sr.long_run_series(catalog)
    assert np.isnan(series.phi).all()
    assert np.isnan(series.e_x).all()
    assert np.all(series.e_n == 0.0)


# --- expanding and moving-window correlation ----------------------------------


def test_expanding_perfect_correlation():
    catalog = catalog_from_yearly([1, 2, 3], [1.0, 1.0, 1.0])  # pairs (n, s) on a line
    series = sr.long_run_series(catalog)
    assert np.isnan(series.rho[0]) and np.isnan(series.rho[1])
    assert series.rho[2] == pytest.approx(1.0)


def test_expanding_undefined_for_constant_counts():
    catalog = catalog_from_yearly([2, 2, 2, 2], [1.0, 2.0, 3.0, 4.0])
    series = sr.long_run_series(catalog)
    assert np.isnan(series.rho).all()


def test_expanding_needs_three_years():
    catalog = catalog_from_yearly([1, 2], [1.0, 3.0])
    series = sr.long_run_series(catalog)
    assert np.isnan(series.rho).all()
    assert np.isnan(series.rho_lo).all() and np.isnan(series.rho_hi).all()


def test_moving_window_examples():
    catalog = catalog_from_yearly([1, 2, 3, 4], [1.0, 1.0, 1.0, 1.0])
    series = sr.long_run_series(catalog, window=3)
    assert np.isnan(series.rho[:2]).all()
    assert np.allclose(series.rho[2:], [1.0, 1.0])
    # a window covering the whole catalog equals the terminal expanding value
    full = sr.long_run_series(catalog, window=4)
    expanding = sr.long_run_series(catalog)
    assert full.rho[-1] == pytest.approx(expanding.rho[-1], rel=1e-12)


def test_moving_window_validation():
    catalog = catalog_from_yearly([1, 2, 3, 4], [1.0] * 4)
    with pytest.raises(ValueError, match="at least 3"):
        sr.long_run_series(catalog, window=2)
    with pytest.raises(ValueError, match="exceeds"):
        sr.long_run_series(catalog, window=5)


@pytest.mark.parametrize("window", [3.5, 4.0, math.nan, "4"])
def test_window_must_be_an_integer(window):
    catalog = catalog_from_yearly([1, 2, 3, 4], [1.0] * 4)
    message = f"window: must be an integer, got {window!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sr.long_run_series(catalog, window=window)
    # a numpy integer is an integer
    series = sr.long_run_series(catalog, window=np.int64(4))
    assert np.array_equal(series.rho, sr.long_run_series(catalog, window=4).rho, equal_nan=True)


def test_moving_window_tracks_model_correlation():
    config = stationary_config("exponential", lam=20.0, mu=2.0, years=(1, 200), seed=9)
    catalog = sr.simulate_catalog(config)
    series = sr.long_run_series(catalog, window=10)
    target = sr.risk_summary(config.freq, config.sev, 1).cor_ns
    assert abs(np.nanmean(series.rho) - target) <= 0.1


def test_window_overlays_only_the_correlation_columns():
    config = stationary_config("exponential", lam=20.0, mu=2.0, years=(1, 50), seed=9)
    catalog = sr.simulate_catalog(config)
    series = sr.long_run_series(catalog)
    windowed = sr.long_run_series(catalog, window=10)
    for name in ("rho", "rho_lo", "rho_hi"):
        assert np.isnan(getattr(windowed, name)[:9]).all()
    for end in (10, 27, 50):
        n, s = catalog.counts[end - 10 : end], catalog.sums[end - 10 : end]
        reference = np.corrcoef(n, s)[0, 1]
        assert windowed.rho[end - 1] == pytest.approx(reference, rel=1e-9)
    for name in ("years", "e_n", "e_s", "e_x", "phi", "j2phi"):
        assert np.array_equal(getattr(windowed, name), getattr(series, name), equal_nan=True)


# --- Fisher intervals ----------------------------------------------------------


def test_fisher_interval_reference_values():
    # half-width 1.959964 / sqrt(n - 3), mapped through tanh
    lo, hi = fisher_interval(0.0, 7, 0.95)
    assert lo == pytest.approx(-0.753058109366224, rel=1e-12)
    assert hi == pytest.approx(0.753058109366224, rel=1e-12)
    lo, hi = fisher_interval(0.5, 103, 0.95)
    assert lo == pytest.approx(0.33930752248325363, rel=1e-12)
    assert hi == pytest.approx(0.6323381504876256, rel=1e-12)
    assert lo < 0.5 < hi


def test_fisher_interval_validation():
    # undefined intervals are NaN, as in the series columns
    assert all(math.isnan(b) for b in fisher_interval(1.0, 10))
    assert all(math.isnan(b) for b in fisher_interval(0.5, 3))
    with pytest.raises(ValueError):
        fisher_interval(0.5, 10, level=1.0)


def test_fisher_interval_is_elementwise():
    rho = np.array([0.0, 0.5, 1.0, np.nan, 0.5])
    n = np.array([7, 103, 10, 10, 3])
    lo, hi = fisher_interval(rho, n)
    for i in range(len(rho)):
        scalar = fisher_interval(float(rho[i]), int(n[i]))
        assert np.array_equal([lo[i], hi[i]], scalar, equal_nan=True)
    assert np.isnan(lo[2:]).all() and np.isnan(hi[2:]).all()


def test_fisher_interval_coverage_quick():
    # 500 bivariate-normal trials at rho = 0.6, n = 50 (the acceptance
    # suite runs the full 2000-trial study)
    rng = np.random.default_rng(15)
    rho, n, trials = 0.6, 50, 500
    cov = np.array([[1.0, rho], [rho, 1.0]])
    chol = np.linalg.cholesky(cov)
    hits = 0
    for _ in range(trials):
        z = rng.standard_normal((2, n))
        x, y = chol @ z
        r = np.corrcoef(x, y)[0, 1]
        lo, hi = fisher_interval(r, n, 0.95)
        hits += lo <= rho <= hi
    assert 0.91 <= hits / trials <= 0.99


# --- diagnostics ----------------------------------------------------------------


def test_nx_independence_hand_values():
    # counts (1, 2, 3) with mean intensities (3, 2, 1): perfectly opposed
    catalog = catalog_from_yearly([1, 2, 3], [3.0, 2.0, 1.0])
    assert sr.nx_independence(catalog) == pytest.approx(-1.0, rel=1e-12)
    # constant mean intensity has zero variance: undefined
    catalog = catalog_from_yearly([1, 2, 3], [2.0, 2.0, 2.0])
    assert math.isnan(sr.nx_independence(catalog))


def test_nx_independence_skips_empty_years():
    catalog = catalog_from_yearly([1, 0, 2, 0, 3], [3.0, 0.0, 2.0, 0.0, 1.0])
    assert sr.nx_independence(catalog) == pytest.approx(-1.0, rel=1e-12)
    with pytest.raises(ValueError, match="3 years"):
        sr.nx_independence(catalog_from_yearly([1, 0, 2], [1.0, 0.0, 2.0]))


def test_season_activity_examples():
    inactive, active = "inactive", "active"
    assert sr.season_activity([5, 5, 5, 5]) == [inactive] * 4
    # mean 2.5, sample sd 5, threshold 7.5
    assert sr.season_activity([0, 0, 0, 10]) == [inactive, inactive, inactive, active]
    # mean 3.5, sample sd ~0.7071, threshold ~4.2071
    assert sr.season_activity([3, 4]) == [inactive, inactive]
    with pytest.raises(ValueError):
        sr.season_activity([3])


def test_mailier_index_examples():
    assert sr.mailier_index([7, 7, 7]) == -1.0        # constant counts
    assert sr.mailier_index([0, 2]) == 0.0            # variance 1, mean 1
    with pytest.raises(ValueError):
        sr.mailier_index([0, 0, 0])
    with pytest.raises(ValueError):
        sr.mailier_index([5])


def test_mailier_index_poisson_convergence():
    draws = np.random.default_rng(13).poisson(30.0, size=10_000)
    assert abs(sr.mailier_index(draws)) <= 0.05


def test_terminal_phi_equals_mailier_plus_one():
    config = stationary_config("uniform", lam=12.0, mu=5.0, years=(1, 300), seed=44)
    catalog = sr.simulate_catalog(config)
    series = sr.long_run_series(catalog)
    assert series.phi[-1] == pytest.approx(
        sr.mailier_index(catalog.counts) + 1.0, rel=1e-12, abs=1e-15
    )


def test_terminal_phi_matches_mailier_plus_one_up_to_rounding():
    # the running sums of the series and counts.var() round differently,
    # so the two agree in all but the last bits on most catalogs
    rng = np.random.default_rng(2026)
    for _ in range(50):
        n = int(rng.integers(2, 3001))
        counts = rng.poisson(rng.uniform(0.5, 300.0), size=n)
        years = np.repeat(np.arange(n), counts)
        catalog = sr.EventCatalog.from_events(years, np.ones(len(years)), year_range=(0, n - 1))
        phi = sr.long_run_series(catalog).phi[-1]
        assert phi == pytest.approx(sr.mailier_index(catalog.counts) + 1.0, rel=1e-12)


# --- replicate-level convergence -------------------------------------------------


def test_expanding_correlation_replicate_mean_lognormal():
    # stationary Poisson / lognormal: terminal expanding correlation
    # centres on exp(-s^2 / 2)
    target = math.exp(-0.125)
    terminal = []
    for seed in range(100):
        config = stationary_config(
            "lognormal", lam=20.0, mu=1.0, shape=0.5, years=(1, 500), seed=seed
        )
        series = sr.long_run_series(sr.simulate_catalog(config))
        terminal.append(series.rho[-1])
    assert abs(np.mean(terminal) - target) <= 0.02


def test_one_pass_correlation_is_stable_on_long_catalogs():
    # running-sum formulation must agree with a two-pass reference even
    # after 1e5 years of accumulation
    config = stationary_config(
        "lognormal", lam=30.0, mu=3.0, shape=0.5, years=(1, 100_000), seed=0
    )
    catalog = sr.simulate_catalog(config)
    series = sr.long_run_series(catalog)
    reference = np.corrcoef(catalog.counts, catalog.sums)[0, 1]
    assert series.rho[-1] == pytest.approx(reference, abs=1e-9)
    assert series.rho[-1] == pytest.approx(math.exp(-0.125), abs=0.02)


def test_mean_count_error_shrinks_with_time():
    """Expanding mean of a trending count process tracks the running
    mean rate, with error decaying in t (strong-law behaviour)."""
    freq = sr.FrequencyModel(alpha0=20.0, alpha1=0.01, link="identity", horizon=(1, 1000))
    sev = sr.SeverityModel(
        family="exponential", beta0=1.0, beta1=0.0, horizon=(1, 1000)
    )
    checkpoints = [50, 200, 1000]
    lam_bar = {
        t: np.mean([20.0 + 0.01 * y for y in range(1, t + 1)]) for t in checkpoints
    }
    errors = {t: [] for t in checkpoints}
    for seed in range(60):
        config = sr.SimulationConfig(freq=freq, sev=sev, years=(1, 1000), seed=seed)
        series = sr.long_run_series(sr.simulate_catalog(config))
        for t in checkpoints:
            errors[t].append(abs(series.e_n[t - 1] - lam_bar[t]))
    means = [np.mean(errors[t]) for t in checkpoints]
    assert means[0] > means[1] > means[2]
