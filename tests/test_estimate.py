import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stormrisk as sr
from stormrisk import estimate
from stormrisk.estimate import (
    analyze_catalog,
    fisher_interval,
    long_run_series,
    mailier_index,
    nx_independence,
    season_activity,
)

from stormrisk.io import write_events_stream

from helpers import stationary_config


def catalog_from_yearly(counts, mean_intensities):
    """Catalog of years 1 to ``len(counts)`` with the given per-year counts,
    every event in a year carrying that year's mean intensity."""
    return sr.EventCatalog(1, np.array(counts), np.repeat(mean_intensities, counts))


# --- long-run series ---------------------------------------------------------


def test_constant_catalog_long_run_values():
    catalog = catalog_from_yearly([2, 2, 2], [3.0, 3.0, 3.0])
    series = long_run_series(catalog)
    assert np.allclose(series.e_n, [2, 2, 2])
    assert np.allclose(series.e_s, [6, 6, 6])
    assert np.allclose(series.e_x, 3.0)
    assert np.allclose(series.phi, 0.0)
    assert len(series) == 3


def test_long_run_wald_identity_holds_at_every_cutoff():
    config = stationary_config("gamma", lam=8.0, mu=2.0, shape=1.5, years=(1, 200), seed=14)
    series = long_run_series(sr.simulate_catalog(config))
    defined = ~np.isnan(series.e_x)
    prod = series.e_n[defined] * series.e_x[defined]
    assert np.all(np.abs(prod - series.e_s[defined]) <= 1e-12 * np.abs(series.e_s[defined]))


def test_long_run_converges_to_model_values():
    # stationary Poisson rate 29.5, exponential mean 26.7 => aggregate 787.65
    config = stationary_config(
        "exponential", lam=29.5, mu=26.7, years=(1, 2000), seed=6
    )
    series = long_run_series(sr.simulate_catalog(config))
    assert abs(series.e_n[-1] - 29.5) <= 0.5
    assert abs(series.e_x[-1] - 26.7) <= 0.5
    assert abs(series.e_s[-1] - 787.65) <= 15.0
    assert abs(series.phi[-1] - 1.0) <= 0.1


def test_e_x_undefined_until_first_event():
    counts = [0, 0, 3, 1]
    catalog = catalog_from_yearly(counts, [0.0, 0.0, 2.0, 4.0])
    series = long_run_series(catalog)
    assert np.isnan(series.e_x[0]) and np.isnan(series.e_x[1])
    assert series.e_x[2] == 2.0
    assert np.isnan(series.j2phi[:2]).all()


def test_phi_undefined_when_no_events_at_all():
    catalog = sr.EventCatalog(1, np.zeros(5, dtype=np.int64), np.empty(0))
    series = long_run_series(catalog)
    assert np.isnan(series.phi).all()
    assert np.isnan(series.e_x).all()
    assert np.all(series.e_n == 0.0)


def test_series_columns_must_align_with_the_years():
    columns = {name: np.zeros(3) for name in estimate.LongRunSeries.column_names()}
    columns["rho_hi"] = np.zeros(2)
    with pytest.raises(ValueError, match="^column rho_hi has length 2, expected 3$"):
        estimate.LongRunSeries(**columns)


# --- expanding and moving-window correlation ----------------------------------


def test_expanding_perfect_correlation():
    catalog = catalog_from_yearly([1, 2, 3], [1.0, 1.0, 1.0])  # pairs (n, s) on a line
    series = long_run_series(catalog)
    assert np.isnan(series.rho[0]) and np.isnan(series.rho[1])
    assert series.rho[2] == pytest.approx(1.0)


def test_expanding_undefined_for_constant_counts():
    catalog = catalog_from_yearly([2, 2, 2, 2], [1.0, 2.0, 3.0, 4.0])
    series = long_run_series(catalog)
    assert np.isnan(series.rho).all()


def test_expanding_needs_three_years():
    catalog = catalog_from_yearly([1, 2], [1.0, 3.0])
    series = long_run_series(catalog)
    assert np.isnan(series.rho).all()
    assert np.isnan(series.rho_lo).all() and np.isnan(series.rho_hi).all()


def test_moving_window_examples():
    catalog = catalog_from_yearly([1, 2, 3, 4], [1.0, 1.0, 1.0, 1.0])
    series = long_run_series(catalog, window=3)
    assert np.isnan(series.rho[:2]).all()
    assert np.allclose(series.rho[2:], [1.0, 1.0])
    # a window covering the whole catalog equals the terminal expanding value
    full = long_run_series(catalog, window=4)
    expanding = long_run_series(catalog)
    assert full.rho[-1] == pytest.approx(expanding.rho[-1], rel=1e-12)


def test_moving_window_validation():
    catalog = catalog_from_yearly([1, 2, 3, 4], [1.0] * 4)
    with pytest.raises(ValueError, match="at least 3"):
        long_run_series(catalog, window=2)
    with pytest.raises(ValueError, match="exceeds"):
        long_run_series(catalog, window=5)


@pytest.mark.parametrize("window", [3.5, 4.0, math.nan, "4"])
def test_window_must_be_an_integer(window):
    catalog = catalog_from_yearly([1, 2, 3, 4], [1.0] * 4)
    message = f"window: must be an integer, got {window!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        long_run_series(catalog, window=window)
    # a numpy integer is an integer
    series = long_run_series(catalog, window=np.int64(4))
    assert np.array_equal(series.rho, long_run_series(catalog, window=4).rho, equal_nan=True)


def test_moving_window_tracks_model_correlation():
    config = stationary_config("exponential", lam=20.0, mu=2.0, years=(1, 200), seed=9)
    catalog = sr.simulate_catalog(config)
    series = long_run_series(catalog, window=10)
    target = sr.risk_summary(config.freq, config.sev, 1).cor_ns
    assert abs(np.nanmean(series.rho) - target) <= 0.1


def test_window_overlays_only_the_correlation_columns():
    config = stationary_config("exponential", lam=20.0, mu=2.0, years=(1, 50), seed=9)
    catalog = sr.simulate_catalog(config)
    series = long_run_series(catalog)
    windowed = long_run_series(catalog, window=10)
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


def test_fisher_interval_matches_the_scipy_stats_quantile_bit_for_bit(monkeypatch):
    # the quantile comes from scipy.special, which imports far lighter
    # than scipy.stats; the bounds must not move by a bit
    from scipy.stats import norm

    levels = [*np.linspace(0.001, 0.999, 999).tolist(), 0.95, 1e-9, 1 - 1e-9]
    rho, n = np.linspace(-0.999, 0.999, 41), np.arange(4, 45)
    got = [fisher_interval(rho, n, level) for level in levels]
    monkeypatch.setattr(estimate, "_normal_quantile", lambda p: float(norm.ppf(p)))
    for level, (lo, hi) in zip(levels, got):
        ref_lo, ref_hi = fisher_interval(rho, n, level)
        assert lo.tobytes() == ref_lo.tobytes() and hi.tobytes() == ref_hi.tobytes(), level


def _ndtri_sweep() -> np.ndarray:
    """Quantile arguments at the edges of each branch of Cephes ``ndtri``."""
    e2, e32 = math.exp(-2), math.exp(-32)
    # a few ulps on each side of both exp(-2) switches
    near = np.array([e2, 1 - e2]).view(np.int64)[:, None] + np.arange(-4, 5)
    return np.concatenate((
        [0.0, 1.0, 0.5, 5e-324, 2.2e-308, 1e-300, 1 - 2**-53, 2**-53],
        near.ravel().view(np.float64),
        e32 * (1 + np.linspace(-1e-9, 1e-9, 2001)),
        np.geomspace(5e-324, 0.5, 4000),
        1 - np.geomspace(1e-16, 0.5, 4000),
        (1 + np.linspace(0.001, 0.999, 999)) / 2,
    ))


def test_normal_quantile_matches_scipy_ndtri_bit_for_bit():
    from scipy.special import ndtri

    p = _ndtri_sweep()
    got = np.array([estimate._normal_quantile(float(v)) for v in p])
    assert got.tobytes() == ndtri(p).tobytes()


@settings(derandomize=True, max_examples=2000, deadline=None)
@given(bits=st.integers(0, 0x3FF0_0000_0000_0000))  # every double in [0, 1]
def test_normal_quantile_matches_scipy_ndtri_on_any_double(bits):
    from scipy.special import ndtri

    p = float(np.int64(bits).view(np.float64))
    assert np.float64(estimate._normal_quantile(p)).tobytes() == ndtri(p).tobytes()


@pytest.mark.parametrize("p", [-5e-324, -1.0, 1.0 + 2**-52, 2.0, math.inf, -math.inf, math.nan])
def test_normal_quantile_outside_zero_to_one_is_nan_as_ndtri_gives(p):
    from scipy.special import ndtri

    assert math.isnan(estimate._normal_quantile(p)) and math.isnan(ndtri(p))


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
    assert nx_independence(catalog) == pytest.approx(-1.0, rel=1e-12)
    # constant mean intensity has zero variance: undefined
    catalog = catalog_from_yearly([1, 2, 3], [2.0, 2.0, 2.0])
    assert math.isnan(nx_independence(catalog))


def test_nx_independence_skips_empty_years():
    catalog = catalog_from_yearly([1, 0, 2, 0, 3], [3.0, 0.0, 2.0, 0.0, 1.0])
    assert nx_independence(catalog) == pytest.approx(-1.0, rel=1e-12)
    with pytest.raises(ValueError, match="3 years"):
        nx_independence(catalog_from_yearly([1, 0, 2], [1.0, 0.0, 2.0]))


def test_season_activity_examples():
    inactive, active = "inactive", "active"
    assert season_activity([5, 5, 5, 5]) == [inactive] * 4
    # mean 2.5, sample sd 5, threshold 7.5
    assert season_activity([0, 0, 0, 10]) == [inactive, inactive, inactive, active]
    # mean 3.5, sample sd ~0.7071, threshold ~4.2071
    assert season_activity([3, 4]) == [inactive, inactive]
    with pytest.raises(ValueError):
        season_activity([3])


def test_mailier_index_examples():
    assert mailier_index([7, 7, 7]) == -1.0        # constant counts
    assert mailier_index([0, 2]) == 0.0            # variance 1, mean 1
    with pytest.raises(ValueError):
        mailier_index([0, 0, 0])
    with pytest.raises(ValueError):
        mailier_index([5])


def test_mailier_index_poisson_convergence():
    draws = np.random.default_rng(13).poisson(30.0, size=10_000)
    assert abs(mailier_index(draws)) <= 0.05


# --- the entry ---------------------------------------------------------------


def test_analyze_catalog_is_the_series_and_the_diagnostics():
    catalog = catalog_from_yearly([1, 3, 0, 2, 5], [1.0, 2.0, 0.0, 4.0, 3.0])
    series, diagnostics = analyze_catalog(catalog, ci_level=0.9, window=3)
    expected = long_run_series(catalog, ci_level=0.9, window=3)
    for name in expected.column_names():
        assert np.array_equal(getattr(series, name), getattr(expected, name), equal_nan=True)
    assert diagnostics == {
        "nx_independence": nx_independence(catalog),
        "mailier_index": mailier_index(catalog.counts),
        "season_activity": season_activity(catalog.counts),
    }


def test_analyze_catalog_keeps_nan_and_notes_what_cannot_be_computed():
    _, constant = analyze_catalog(catalog_from_yearly([2, 2, 2, 2], [1.0, 3.0, 2.0, 5.0]))
    assert math.isnan(constant["nx_independence"])
    assert constant["mailier_index"] == -1.0
    _, one_year = analyze_catalog(catalog_from_yearly([3], [2.0]))
    assert one_year == {
        "nx_independence": None,
        "nx_independence_note": "need at least 3 years with events, got 1",
        "mailier_index": None,
        "mailier_index_note": "need counts for at least 2 years",
        "season_activity": None,
        "season_activity_note": "need counts for at least 2 years",
    }


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"ci_level": 1.0}, "ci_level: must lie in (0, 1), got 1.0"),
        ({"window": 2}, "window: must be at least 3 years, got 2"),
        ({"window": 5}, "window: exceeds the 4-year catalog, got 5"),
    ],
)
def test_analyze_catalog_raises_argument_errors_before_any_diagnostic(
    monkeypatch, kwargs, message
):
    # the entry calls its steps by their module names, which the benchmark's
    # tracer wraps
    ran = []
    for name in ("nx_independence", "mailier_index", "season_activity"):
        monkeypatch.setattr(estimate, name, lambda arg, name=name: ran.append(name))
    catalog = catalog_from_yearly([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match=re.escape(message)):
        analyze_catalog(catalog, **kwargs)
    assert ran == []
    analyze_catalog(catalog)
    assert ran == ["nx_independence", "mailier_index", "season_activity"]


def test_terminal_phi_equals_mailier_plus_one():
    config = stationary_config("uniform", lam=12.0, mu=5.0, years=(1, 300), seed=44)
    catalog = sr.simulate_catalog(config)
    series = long_run_series(catalog)
    assert series.phi[-1] == pytest.approx(
        mailier_index(catalog.counts) + 1.0, rel=1e-12, abs=1e-15
    )


def test_terminal_phi_matches_mailier_plus_one_up_to_rounding():
    # the running sums of the series and counts.var() round differently,
    # so the two agree in all but the last bits on most catalogs
    rng = np.random.default_rng(2026)
    for _ in range(50):
        n = int(rng.integers(2, 3001))
        counts = rng.poisson(rng.uniform(0.5, 300.0), size=n)
        catalog = sr.EventCatalog(0, counts, np.ones(counts.sum()))
        phi = long_run_series(catalog).phi[-1]
        assert phi == pytest.approx(mailier_index(catalog.counts) + 1.0, rel=1e-12)


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
        series = long_run_series(sr.simulate_catalog(config))
        terminal.append(series.rho[-1])
    assert abs(np.mean(terminal) - target) <= 0.02


def test_one_pass_correlation_is_stable_on_long_catalogs():
    # running-sum formulation must agree with a two-pass reference even
    # after 1e5 years of accumulation
    config = stationary_config(
        "lognormal", lam=30.0, mu=3.0, shape=0.5, years=(1, 100_000), seed=0
    )
    catalog = sr.simulate_catalog(config)
    series = long_run_series(catalog)
    reference = np.corrcoef(catalog.counts, catalog.sums)[0, 1]
    assert series.rho[-1] == pytest.approx(reference, abs=1e-9)
    assert series.rho[-1] == pytest.approx(math.exp(-0.125), abs=0.02)


def test_mean_count_error_shrinks_with_time():
    """Expanding mean of a trending count process tracks the running
    mean rate, with error decaying in t (strong-law behaviour)."""
    freq = sr.FrequencyModel(alpha0=20.0, alpha1=0.01, link="identity")
    sev = sr.SeverityModel(
        family="exponential", beta0=1.0, beta1=0.0
    )
    checkpoints = [50, 200, 1000]
    lam_bar = {
        t: np.mean([20.0 + 0.01 * y for y in range(1, t + 1)]) for t in checkpoints
    }
    errors = {t: [] for t in checkpoints}
    for seed in range(60):
        config = sr.SimulationConfig(freq=freq, sev=sev, years=(1, 1000), seed=seed)
        series = long_run_series(sr.simulate_catalog(config))
        for t in checkpoints:
            errors[t].append(abs(series.e_n[t - 1] - lam_bar[t]))
    means = [np.mean(errors[t]) for t in checkpoints]
    assert means[0] > means[1] > means[2]


# --- scale invariance ----------------------------------------------------------


@pytest.mark.parametrize("window", [None, 30])
@pytest.mark.parametrize("factor", [2.0, 2.0**-10])
def test_rescaled_intensities_leave_the_correlations_and_scale_the_means(
    tmp_path, factor, window
):
    # The paper's identities hold for any unit of intensity.  A power of
    # two rescales every double exactly, so the written catalog, read back
    # and analysed, must give the same correlation columns bit for bit and
    # the means times the factor exactly.
    config = stationary_config("gamma", lam=5.0, mu=1.0, shape=2.0, years=(1, 200))
    catalog = sr.simulate_catalog(config)
    scaled = sr.EventCatalog(catalog.start_year, catalog.counts, catalog.intensities * factor)
    series = []
    for name, c in (("base", catalog), ("scaled", scaled)):
        path = tmp_path / f"{name}.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            write_events_stream(c, fh)
        read = sr.read_events_csv(path)
        assert np.array_equal(read.intensities, c.intensities)
        series.append(analyze_catalog(read, window=window)[0])
    base, rescaled = series
    for name in ("e_n", "rho", "rho_lo", "rho_hi", "phi", "j2phi"):
        assert getattr(rescaled, name).tobytes() == getattr(base, name).tobytes(), name
    for name in ("e_s", "e_x"):
        assert (getattr(rescaled, name) / factor).tobytes() == getattr(base, name).tobytes(), name
    assert np.isfinite(base.rho[-100:]).all() and np.isfinite(base.j2phi).all()
