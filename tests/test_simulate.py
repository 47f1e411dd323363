import math
import tracemalloc

import numpy as np
import pytest

import stormrisk as sr

from helpers import FAMILIES, random_severity, stationary_config


def gpd_trend_config(seed=0, years=(1, 60)):
    n = years[1] - years[0] + 1
    freq = sr.FrequencyModel(alpha0=20.0, alpha1=0.5, link="identity", horizon=(1, n))
    sev = sr.SeverityModel(
        family="gpd", beta0=1.0, beta1=0.01, horizon=(1, n), shape=0.2
    )
    return sr.SimulationConfig(freq=freq, sev=sev, years=years, seed=seed)


# --- catalog generation -----------------------------------------------------


def test_catalog_determinism():
    config = gpd_trend_config(seed=99)
    a = sr.simulate_catalog(config)
    b = sr.simulate_catalog(config)
    assert np.array_equal(a.event_years, b.event_years)
    assert np.array_equal(a.intensities, b.intensities)
    assert np.array_equal(a.counts, b.counts)


def test_catalog_seed_sensitivity():
    a = sr.simulate_catalog(gpd_trend_config(seed=1))
    b = sr.simulate_catalog(gpd_trend_config(seed=2))
    assert not np.array_equal(a.counts, b.counts)


def test_extending_horizon_preserves_earlier_years():
    short = sr.simulate_catalog(gpd_trend_config(seed=5, years=(2000, 2029)))
    full = sr.simulate_catalog(gpd_trend_config(seed=5, years=(2000, 2059)))
    assert np.array_equal(short.counts, full.counts[:30])
    assert np.array_equal(short.intensities, full.intensities[: short.n_events])


def test_near_zero_rate_catalog():
    config = stationary_config("exponential", lam=1e-3, mu=1.0, years=(1, 10), seed=3)
    catalog = sr.simulate_catalog(config)
    assert catalog.n_years == 10
    assert np.all(catalog.sums[catalog.counts == 0] == 0.0)
    assert catalog.n_events == 0  # ~0.99 probability at this seed


def test_zero_count_years_are_materialized():
    config = stationary_config("exponential", lam=0.5, mu=1.0, years=(1, 40), seed=8)
    catalog = sr.simulate_catalog(config)
    assert catalog.n_years == 40
    assert np.any(catalog.counts == 0)
    assert len(catalog.years) == 40


def test_total_event_count_matches_rate_sum():
    # sum of 20 + 0.5 t over t = 1..60 is 2115
    total_rate = sum(20.0 + 0.5 * t for t in range(1, 61))
    assert total_rate == 2115.0
    catalog = sr.simulate_catalog(gpd_trend_config(seed=12))
    assert abs(catalog.n_events - total_rate) <= 4 * math.sqrt(total_rate)


def test_intensities_positive_and_years_contiguous():
    catalog = sr.simulate_catalog(gpd_trend_config(seed=4))
    assert np.all(catalog.intensities > 0)
    assert np.array_equal(catalog.years, np.arange(1, 61))
    assert np.array_equal(np.diff(catalog.event_years) >= 0, np.full(catalog.n_events - 1, True))


# --- fixed-year ensembles ----------------------------------------------------


def test_replicates_deterministic_and_prefix_stable():
    config = stationary_config("lognormal", lam=20.0, mu=1.0, shape=0.5, seed=21)
    a = sr.replicate_fixed_year(config, 7, 50_000)
    b = sr.replicate_fixed_year(config, 7, 50_000)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.sums, b.sums)
    # a shorter run is a prefix of a longer one
    small = sr.replicate_fixed_year(config, 7, 1_000)
    assert np.array_equal(small.counts, a.counts[:1000])
    assert np.array_equal(small.sums, a.sums[:1000])


def test_replicate_moments_lognormal():
    config = stationary_config("lognormal", lam=20.0, mu=1.0, shape=0.5, seed=2)
    ens = sr.replicate_fixed_year(config, 1, 1_000_000)
    summary = sr.risk_summary(config.freq, config.sev, 1)

    se_mean = math.sqrt(summary.var_s / len(ens))
    assert abs(ens.sums.mean() - summary.e_s) <= 4 * se_mean
    assert abs(ens.sums.var() - summary.var_s) <= 0.01 * summary.var_s
    rho = np.corrcoef(ens.counts, ens.sums)[0, 1]
    assert abs(rho - summary.cor_ns) <= 0.005


@pytest.mark.parametrize("family", FAMILIES)
def test_fixed_year_covariances_per_family(family):
    rng = np.random.default_rng(sum(map(ord, family)))
    sev = random_severity(rng, family)
    freq = sr.FrequencyModel(alpha0=15.0, alpha1=0.1, link="identity", horizon=(1, 60))
    config = sr.SimulationConfig(freq=freq, sev=sev, years=(1, 60), seed=37)
    t = 30
    ens = sr.replicate_fixed_year(config, t, 200_000)
    summary = sr.risk_summary(freq, sev, t)
    r = len(ens)

    # cov(N, S) -> E[X] Var(N), with a batch-means standard error
    def batch_se(stat):
        parts = [stat(i) for i in np.array_split(np.arange(r), 50)]
        return np.std(parts, ddof=1) / math.sqrt(len(parts))

    def cov_ns_of(idx):
        n, s = ens.counts[idx].astype(float), ens.sums[idx]
        return np.mean(n * s) - n.mean() * s.mean()

    cov_hat = cov_ns_of(np.arange(r))
    assert abs(cov_hat - summary.cov_ns) <= 4 * batch_se(cov_ns_of)

    # cov(first mark, S) -> Var(X)
    def cov_xs_of(idx):
        mask = ~np.isnan(ens.first_marks[idx])
        x1, s = ens.first_marks[idx][mask], ens.sums[idx][mask]
        return np.mean(x1 * s) - x1.mean() * s.mean()

    cov_xs_hat = cov_xs_of(np.arange(r))
    assert abs(cov_xs_hat - summary.var_x) <= 4 * batch_se(cov_xs_of)


def test_trended_ensembles_track_their_year():
    # fixed-year draws must use that year's rate and scale, not year 1's
    freq = sr.FrequencyModel(alpha0=5.0, alpha1=1.0, link="identity", horizon=(1, 50))
    sev = sr.SeverityModel(
        family="gamma", beta0=1.0, beta1=0.1, horizon=(1, 50), shape=2.0
    )
    config = sr.SimulationConfig(freq=freq, sev=sev, years=(1, 50), seed=4)
    for t in (1, 25, 50):
        ens = sr.replicate_fixed_year(config, t, 200_000)
        summary = sr.risk_summary(freq, sev, t)
        se = math.sqrt(summary.var_s / len(ens))
        assert abs(ens.sums.mean() - summary.e_s) <= 4 * se
        assert abs(ens.counts.mean() - summary.e_n) <= 4 * math.sqrt(
            summary.var_n / len(ens)
        )


def test_first_marks_nan_only_for_empty_replicates():
    config = stationary_config("exponential", lam=0.7, mu=2.0, seed=5)
    ens = sr.replicate_fixed_year(config, 1, 20_000)
    empty = ens.counts == 0
    assert np.all(np.isnan(ens.first_marks[empty]))
    assert not np.any(np.isnan(ens.first_marks[~empty]))
    assert np.all(ens.sums[empty] == 0.0)
    # mean of the first marks estimates E[X]
    m = sr.severity_moments(config.sev, 1)
    x1 = ens.first_marks[~empty]
    assert abs(x1.mean() - m.mean) <= 4 * math.sqrt(m.variance / len(x1))


# --- config validation --------------------------------------------------------


def test_config_validation():
    n = 10
    freq = sr.FrequencyModel(alpha0=5.0, alpha1=0.0, link="identity", horizon=(1, n))
    sev = sr.SeverityModel(
        family="exponential", beta0=1.0, beta1=0.0, horizon=(1, n)
    )
    with pytest.raises(ValueError, match="start <= end"):
        sr.SimulationConfig(freq=freq, sev=sev, years=(5, 4), seed=0)
    with pytest.raises(ValueError, match="horizon"):
        sr.SimulationConfig(freq=freq, sev=sev, years=(1, 11), seed=0)
    with pytest.raises(ValueError, match="seed"):
        sr.SimulationConfig(freq=freq, sev=sev, years=(1, 10), seed=-1)
    # the ensemble size is an argument of the ensemble, not a config field
    with pytest.raises(TypeError, match="replicates"):
        sr.SimulationConfig(freq=freq, sev=sev, years=(1, 10), seed=0, replicates=2)
    config = sr.SimulationConfig(freq=freq, sev=sev, years=(1, 10), seed=0)
    with pytest.raises(ValueError, match="replicates"):
        sr.replicate_fixed_year(config, 1, 1)
    # the closed forms need no seed; the simulators do
    unseeded = sr.SimulationConfig(freq=freq, sev=sev, years=(1, 10))
    assert unseeded.seed is None
    with pytest.raises(ValueError, match="seed"):
        sr.simulate_catalog(unseeded)
    with pytest.raises(ValueError, match="seed"):
        sr.replicate_fixed_year(unseeded, 1, 2)


def test_config_rejects_a_year_span_past_the_row_budget():
    n = 2 * 10**7
    freq = sr.FrequencyModel(alpha0=5.0, alpha1=0.0, link="identity", horizon=(1, n))
    sev = sr.SeverityModel(family="exponential", beta0=1.0, beta1=0.0, horizon=(1, n))
    with pytest.raises(ValueError, match=f"years span {n} years, more than the 10000000"):
        sr.SimulationConfig(freq=freq, sev=sev, years=(1, n), seed=0)
    sr.SimulationConfig(freq=freq, sev=sev, years=(1, 10**7), seed=0)


@pytest.mark.parametrize("replicates", [10**7 + 1, 10**9])
def test_replicate_count_past_the_row_budget_raises_before_allocating(replicates):
    config = stationary_config("exponential", lam=5.0, mu=1.0, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"replicates must lie in .*, got {replicates}"):
            sr.replicate_fixed_year(config, 1, replicates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
