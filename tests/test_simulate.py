import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stormrisk as sr
from stormrisk import frequency, simulate
from stormrisk.catalog import _MAX_ROWS
from stormrisk.frequency import rate, sample_count
from stormrisk.severity import sample_intensity, severity_moments
from stormrisk.simulate import (
    _BATCH,
    _CATALOG,
    _CHUNK,
    _MAX_MARKS,
    _PIECE,
    _REPLICATE_COUNTS,
    _REPLICATE_MARKS,
    _lane_draws,
    _streams,
    replicate_fixed_year,
)

from helpers import FAMILIES, random_severity, stationary_config


def gpd_trend_config(seed=0, years=(1, 60)):
    freq = sr.FrequencyModel(alpha0=20.0, alpha1=0.5, link="identity")
    sev = sr.SeverityModel(family="gpd", beta0=1.0, beta1=0.01, shape=0.2)
    return sr.SimulationConfig(freq=freq, sev=sev, years=years, seed=seed)


# --- substream keying ---------------------------------------------------------

SEED_EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**64 - 1)),
    tag=st.sampled_from([_CATALOG, _REPLICATE_COUNTS, _REPLICATE_MARKS]),
    year=st.one_of(st.none(), st.integers(0, _MAX_ROWS)),
    first=st.integers(0, _MAX_ROWS),
    n_keys=st.sampled_from([1, 3, 1025]),
)
# entropies of 3, 4 (one- and two-word seeds) and 5 words
@example(seed=0, tag=_CATALOG, year=None, first=1, n_keys=3)
@example(seed=2**32 - 1, tag=_REPLICATE_COUNTS, year=20, first=0, n_keys=3)
@example(seed=2**32, tag=_CATALOG, year=None, first=_MAX_ROWS - 2, n_keys=3)
@example(seed=2**64 - 1, tag=_REPLICATE_MARKS, year=_MAX_ROWS, first=0, n_keys=1025)
def test_keyed_streams_match_default_rng(seed, tag, year, first, n_keys):
    prefix = (seed, tag) if year is None else (seed, tag, year)
    keys = range(first, first + n_keys)
    for key, rng in zip(keys, _streams(prefix, keys), strict=True):
        expected = np.random.default_rng([*prefix, key]).bit_generator.state
        assert rng.bit_generator.state == expected, key


def test_keyed_stream_is_reset_between_keys():
    # a draw that leaves half a 64-bit word buffered must not leak into
    # the next substream
    keys = range(1, 3)
    for key, rng in zip(keys, _streams((7, _CATALOG), keys)):
        reference = np.random.default_rng([7, _CATALOG, key])
        assert rng.integers(0, 2**31, dtype=np.uint32) == reference.integers(
            0, 2**31, dtype=np.uint32
        )
        assert rng.random() == reference.random()


def test_a_negative_substream_key_is_refused():
    # without the check, -1 >> 32 stays -1 and the split never ends
    with pytest.raises(ValueError, match="^substream keys must be non-negative integers, got -1$"):
        simulate._words(-1)


# --- low-rate lanes against numpy's Generator ---------------------------------
#
# Catalog years below rate 10 reproduce Generator.poisson's multiplication
# method and Generator.random from raw PCG64 outputs.  NEP 19 lets numpy
# change a Generator algorithm between versions; these tests then fail.


def _bits(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _numpy_year(seed: int, t: int, lam: float, marks):
    """Count and ``marks(rng, count)`` of catalog year ``t``, drawn from
    its own ``default_rng``."""
    rng = np.random.default_rng([seed, _CATALOG, t])
    n = rng.poisson(lam)
    return n, marks(rng, n)


LANE_RATES = st.one_of(
    st.floats(0.0, 10.0, exclude_min=True, exclude_max=True),
    # exp(-lam) rounds to 1.0 below about 1.1e-16; the largest lane rate
    st.sampled_from([5e-324, 1e-20, 1e-16, float(np.nextafter(10.0, 0.0))]),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**64 - 1)),
    first=st.integers(1, _MAX_ROWS - 40),
    lam=st.lists(LANE_RATES, min_size=1, max_size=40),
)
@example(seed=0, first=1, lam=[1e-20, 1e-20, float(np.nextafter(10.0, 0.0))])
@example(seed=2**64 - 1, first=_MAX_ROWS - 40, lam=[0.05] * 40)  # zero-event years
def test_lanes_match_numpy_poisson_then_random(seed, first, lam):
    keys = np.arange(first, first + len(lam))
    counts, marks = _lane_draws((seed, _CATALOG), keys, np.array(lam))
    expected = [
        _numpy_year(seed, t, lam_t, lambda rng, n: rng.random(n))
        for t, lam_t in zip(keys.tolist(), lam)
    ]
    assert counts.tolist() == [n for n, _ in expected]
    assert np.array_equal(_bits(marks), _bits(np.concatenate([m for _, m in expected])))


@pytest.mark.parametrize(
    "family, alpha0, alpha1, n_years",
    [
        ("gpd", 8.0, 0.1, 40),  # rate 10.0 exactly at t = 20: the per-year path
        ("uniform", 12.0, -0.1, 40),  # per-year years first, then lanes
        ("exponential", 0.5, 0.0, _CHUNK + 3),  # longer than one chunk of lanes
        ("gamma", 0.5, 0.0, _CHUNK + 3),  # longer than one chunk of per-year years
    ],
)
def test_catalog_matches_per_year_numpy_draws(family, alpha0, alpha1, n_years):
    freq = sr.FrequencyModel(alpha0=alpha0, alpha1=alpha1, link="identity")
    shape = {"gpd": 0.2, "gamma": 2.0}.get(family)
    sev = sr.SeverityModel(family=family, beta0=2.0, beta1=0.01, shape=shape)
    config = sr.SimulationConfig(freq=freq, sev=sev, years=(1, n_years), seed=77)
    lam = rate(freq, np.arange(1, n_years + 1))
    assert (10.0 in lam) == (n_years == 40)
    catalog = sr.simulate_catalog(config)
    expected = [
        _numpy_year(77, t, lam_t, lambda rng, n: sample_intensity(sev, t, rng, n))
        for t, lam_t in enumerate(lam.tolist(), start=1)
    ]
    assert catalog.counts.tolist() == [n for n, _ in expected]
    intensities = np.concatenate([x for _, x in expected])
    assert np.array_equal(_bits(catalog.intensities), _bits(intensities))


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


def test_catalog_and_ensemble_counts_are_drawn_by_one_function(monkeypatch):
    # frequency._poisson is the one home of the count law: a catalog's
    # per-year loop (gamma years take no lanes) and an ensemble's blocks
    # both draw every count through it
    original = frequency._poisson
    assert simulate._poisson is original
    drawn = []

    def recorded(lam, rng, size=None):
        n = original(lam, rng, size)
        drawn.append(n)
        return n

    monkeypatch.setattr(frequency, "_poisson", recorded)
    monkeypatch.setattr(simulate, "_poisson", recorded)
    config = stationary_config("gamma", lam=5.0, mu=1.0, shape=2.0, years=(1, 40), seed=3)
    catalog = sr.simulate_catalog(config)
    assert drawn == catalog.counts.tolist()
    drawn.clear()
    sample = replicate_fixed_year(config, 7, 1000)  # one block
    assert len(drawn) == 1
    assert np.array_equal(drawn[0], sample.counts)


@pytest.mark.parametrize("family", ["gamma", "gpd"], ids=["per-year loop", "lanes"])
def test_a_catalog_computes_its_rates_in_one_call(monkeypatch, family):
    calls = []

    def counted(model, t):
        calls.append(t)
        return rate(model, t)

    monkeypatch.setattr(simulate, "rate", counted)
    config = stationary_config(family, lam=5.0, mu=1.0, shape=0.2, years=(1, 50), seed=1)
    sr.simulate_catalog(config)
    assert len(calls) == 1


def test_replicates_deterministic_and_prefix_stable():
    config = stationary_config("lognormal", lam=20.0, mu=1.0, shape=0.5, seed=21)
    a = replicate_fixed_year(config, 7, 50_000)
    b = replicate_fixed_year(config, 7, 50_000)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.sums, b.sums)
    # a shorter run is a prefix of a longer one
    small = replicate_fixed_year(config, 7, 1_000)
    assert np.array_equal(small.counts, a.counts[:1000])
    assert np.array_equal(small.sums, a.sums[:1000])


def test_replicate_moments_lognormal():
    config = stationary_config("lognormal", lam=20.0, mu=1.0, shape=0.5, seed=2)
    ens = replicate_fixed_year(config, 1, 1_000_000)
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
    freq = sr.FrequencyModel(alpha0=15.0, alpha1=0.1, link="identity")
    config = sr.SimulationConfig(freq=freq, sev=sev, years=(1, 60), seed=37)
    t = 30
    ens = replicate_fixed_year(config, t, 200_000)
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
    freq = sr.FrequencyModel(alpha0=5.0, alpha1=1.0, link="identity")
    sev = sr.SeverityModel(
        family="gamma", beta0=1.0, beta1=0.1, shape=2.0
    )
    config = sr.SimulationConfig(freq=freq, sev=sev, years=(1, 50), seed=4)
    for t in (1, 25, 50):
        ens = replicate_fixed_year(config, t, 200_000)
        summary = sr.risk_summary(freq, sev, t)
        se = math.sqrt(summary.var_s / len(ens))
        assert abs(ens.sums.mean() - summary.e_s) <= 4 * se
        assert abs(ens.counts.mean() - summary.e_n) <= 4 * math.sqrt(
            summary.var_n / len(ens)
        )


def test_first_marks_nan_only_for_empty_replicates():
    config = stationary_config("exponential", lam=0.7, mu=2.0, seed=5)
    ens = replicate_fixed_year(config, 1, 20_000)
    empty = ens.counts == 0
    assert np.all(np.isnan(ens.first_marks[empty]))
    assert not np.any(np.isnan(ens.first_marks[~empty]))
    assert np.all(ens.sums[empty] == 0.0)
    # mean of the first marks estimates E[X]
    m = severity_moments(config.sev, 1)
    x1 = ens.first_marks[~empty]
    assert abs(x1.mean() - m.mean) <= 4 * math.sqrt(m.variance / len(x1))


def one_call_per_block(config, t, replicates):
    """The ensemble drawn block by block, each block's counts and marks in
    one call on its own ``default_rng`` substreams."""
    counts = np.empty(replicates, dtype=np.int64)
    sums = np.empty(replicates)
    first = np.full(replicates, np.nan)
    for block, lo in enumerate(range(0, replicates, _BATCH)):
        hi = min(lo + _BATCH, replicates)
        rng_n = np.random.default_rng([config.seed, _REPLICATE_COUNTS, t, block])
        rng_x = np.random.default_rng([config.seed, _REPLICATE_MARKS, t, block])
        n = counts[lo:hi] = sample_count(config.freq, t, rng_n, size=hi - lo)
        x = sample_intensity(config.sev, t, rng_x, size=int(n.sum()))
        sums[lo:hi] = np.bincount(np.repeat(np.arange(hi - lo), n), weights=x, minlength=hi - lo)
        starts = np.cumsum(n) - n
        first[lo:hi][n > 0] = x[starts[n > 0]]
    return counts, sums, first


def assert_same_ensemble(ens, reference):
    for got, want in zip((ens.counts, ens.sums, ens.first_marks), reference, strict=True):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


ENSEMBLE_SHAPES = {"gamma": 2.0, "lognormal": 1.0, "gpd": 0.2}


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_ensemble_bits_depend_on_neither_threads_nor_pieces(monkeypatch, family, cpus):
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    config = stationary_config(family, lam=20.0, mu=1.5, shape=ENSEMBLE_SHAPES.get(family), seed=9)
    replicates = 5 * _BATCH + 777
    ens = replicate_fixed_year(config, 4, replicates)
    assert_same_ensemble(ens, one_call_per_block(config, 4, replicates))


def test_pieces_are_cut_by_marks_in_a_block_near_the_marks_budget(monkeypatch):
    # about 9.8e6 marks per block, so about 150 pieces per block
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
    sizes = []

    def recorded(sev, t, rng, size):
        sizes.append(size)
        return sample_intensity(sev, t, rng, size=size)

    monkeypatch.setattr(simulate, "sample_intensity", recorded)
    config = stationary_config("exponential", lam=300.0, mu=1.0, seed=4)
    replicates = _BATCH + 777
    ens = replicate_fixed_year(config, 1, replicates)
    assert max(sizes) <= _PIECE and sum(sizes) == ens.counts.sum()
    assert len(sizes) >= ens.counts.sum() / _PIECE
    assert_same_ensemble(ens, one_call_per_block(config, 1, replicates))


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    # the only path on platforms without os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert simulate._usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulate._usable_cpus() == 1


@pytest.mark.parametrize("cpus, replicates", [(1, 5 * _BATCH), (3, _BATCH)])
def test_one_cpu_or_one_block_starts_no_thread(monkeypatch, cpus, replicates):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(threading, "Thread", no_thread)
    config = stationary_config("exponential", lam=2.0, mu=1.0, seed=1)
    assert len(replicate_fixed_year(config, 1, replicates)) == replicates


def test_an_exception_in_a_worker_thread_reaches_the_caller_unchanged(monkeypatch):
    error = RuntimeError("injected in a worker")
    raised = threading.Event()

    def failing(sev, t, rng, size):
        if threading.current_thread() is not threading.main_thread():
            raised.set()
            raise error
        raised.wait(10)  # the calling thread draws only once a worker has failed
        return sample_intensity(sev, t, rng, size=size)

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(simulate, "sample_intensity", failing)
    config = stationary_config("exponential", lam=2.0, mu=1.0, seed=1)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        replicate_fixed_year(config, 1, 5 * _BATCH)
    assert caught.value is error
    assert threading.active_count() == threads


def test_an_exception_at_one_cpu_reaches_the_caller_unchanged(monkeypatch):
    error = RuntimeError("injected at one CPU")

    def failing(sev, t, rng, size):
        raise error

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(simulate, "sample_intensity", failing)
    monkeypatch.setattr(threading, "Thread", no_thread)
    config = stationary_config("exponential", lam=2.0, mu=1.0, seed=1)
    with pytest.raises(RuntimeError) as caught:
        replicate_fixed_year(config, 1, 5 * _BATCH)
    assert caught.value is error


@pytest.mark.parametrize("t", [math.inf, math.nan, None, "3", 2.5, 4.0, True])
def test_ensemble_year_must_be_an_integer(t):
    config = stationary_config("exponential", lam=2.0, mu=1.0, years=(1, 5), seed=1)
    message = f"t: must be an integer, got {t!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replicate_fixed_year(config, t, 100)
    # an integral float or a bool is not an integer; a numpy integer is
    assert len(replicate_fixed_year(config, np.int64(4), 100)) == 100


# --- config validation --------------------------------------------------------


def test_config_validation():
    freq = sr.FrequencyModel(alpha0=5.0, alpha1=0.0, link="identity")
    sev = sr.SeverityModel(family="exponential", beta0=1.0, beta1=0.0)
    with pytest.raises(ValueError, match="start 5 exceeds end 4"):
        sr.SimulationConfig(freq=freq, sev=sev, years=(5, 4), seed=0)
    # each model's span check runs over the years, its error named by the argument
    falling = sr.FrequencyModel(alpha0=5.0, alpha1=-0.5, link="identity")
    with pytest.raises(ValueError, match=r"^freq: identity-link rate non-positive at t=10: "):
        sr.SimulationConfig(freq=falling, sev=sev, years=(1, 11), seed=0)
    sr.SimulationConfig(freq=falling, sev=sev, years=(2001, 2009), seed=0)
    shrinking = sr.SeverityModel(family="exponential", beta0=1.0, beta1=-0.1)
    with pytest.raises(ValueError, match=r"^sev: scale driver is non-positive at t=11: "):
        sr.SimulationConfig(freq=freq, sev=shrinking, years=(1, 11), seed=0)
    for seed, message in (
        (-1, "seed: must fit in unsigned 64 bits, got -1"),
        (2**64, f"seed: must fit in unsigned 64 bits, got {2**64}"),
        (1.5, "seed: must be an integer, got 1.5"),
        ("7", "seed: must be an integer, got '7'"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sr.SimulationConfig(freq=freq, sev=sev, years=(1, 10), seed=seed)
    # the ensemble size is an argument of the ensemble, not a config field
    with pytest.raises(TypeError, match="replicates"):
        sr.SimulationConfig(freq=freq, sev=sev, years=(1, 10), seed=0, replicates=2)
    config = sr.SimulationConfig(freq=freq, sev=sev, years=(1, 10), seed=0)
    with pytest.raises(ValueError, match="replicates"):
        replicate_fixed_year(config, 1, 1)
    # the closed forms need no seed; the simulators do
    unseeded = sr.SimulationConfig(freq=freq, sev=sev, years=(1, 10))
    assert unseeded.seed is None
    with pytest.raises(ValueError, match="seed"):
        sr.simulate_catalog(unseeded)
    with pytest.raises(ValueError, match="seed"):
        replicate_fixed_year(unseeded, 1, 2)


@pytest.mark.parametrize(
    "years, bad",
    [((1.0, 10.0), "1.0"), ((1, 10.0), "10.0"), ((np.float64(1.0), 10), "np.float64(1.0)")],
    ids=["floats", "float-end", "numpy-float"],
)
def test_config_rejects_float_years(years, bad):
    # a float year that equals an integer is still not one: the simulators
    # index with the years
    freq = sr.FrequencyModel(alpha0=5.0, alpha1=0.0, link="identity")
    sev = sr.SeverityModel(family="exponential", beta0=1.0, beta1=0.0)
    message = f"years: must be an integer, got {bad}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sr.SimulationConfig(freq=freq, sev=sev, years=years, seed=0)


def test_config_spans_numpy_years_without_wrapping():
    # end - start of two int64 years can wrap to a small or negative span
    freq = sr.FrequencyModel(alpha0=5.0, alpha1=0.0, link="identity")
    sev = sr.SeverityModel(family="exponential", beta0=1.0, beta1=0.0)
    years = (np.int64(-(2**63)), np.int64(2**63 - 8))
    with pytest.raises(ValueError, match=f"^years: span {2**64 - 7} years, more than"):
        sr.SimulationConfig(freq=freq, sev=sev, years=years, seed=0)


def test_config_rejects_a_year_span_past_the_row_budget():
    n = 2 * 10**7
    freq = sr.FrequencyModel(alpha0=5.0, alpha1=0.0, link="identity")
    sev = sr.SeverityModel(family="exponential", beta0=1.0, beta1=0.0)
    with pytest.raises(ValueError, match=f"years: span {n} years, more than the 10000000"):
        sr.SimulationConfig(freq=freq, sev=sev, years=(1, n), seed=0)
    sr.SimulationConfig(freq=freq, sev=sev, years=(1, 10**7), seed=0)


@pytest.mark.parametrize("replicates", [1e4, 2.5, "100", None])
def test_replicate_count_must_be_an_integer(replicates):
    config = stationary_config("exponential", lam=5.0, mu=1.0, seed=0)
    message = f"replicates: must be an integer, got {re.escape(repr(replicates))}"
    with pytest.raises(ValueError, match=message):
        replicate_fixed_year(config, 1, replicates)
    assert len(replicate_fixed_year(config, 1, np.int64(3))) == 3


@pytest.mark.parametrize("replicates", [10**7 + 1, 10**9])
def test_replicate_count_past_the_row_budget_raises_before_allocating(replicates):
    config = stationary_config("exponential", lam=5.0, mu=1.0, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"replicates: at most .*, got {replicates}"):
            replicate_fixed_year(config, 1, replicates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


# 306 * _BATCH marks are just past the budget
@pytest.mark.parametrize("lam, replicates", [(1e9, 1000), (10000.5, 1000), (306.0, _MAX_ROWS)])
def test_replicate_block_past_the_marks_budget_raises_before_allocating(lam, replicates):
    config = stationary_config("exponential", lam=lam, mu=1.0, seed=0)
    block = min(replicates, _BATCH)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"marks in a block of {block} replicates"):
            replicate_fixed_year(config, 1, replicates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


# 10^7 replicates at rate 20.5 expect 2.05e8 marks, past the ensemble's
# budget, while each block's 6.7e5 are within a block's
@pytest.mark.parametrize("lam", [20.5, 300.0])
def test_ensemble_past_the_total_marks_budget_raises_before_allocating(lam):
    config = stationary_config("exponential", lam=lam, mu=1.0, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"marks in {_MAX_ROWS} replicates .* {_MAX_MARKS} an"):
            replicate_fixed_year(config, 1, _MAX_ROWS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@pytest.mark.parametrize("t", [-1, 0, 17, 18])
def test_ensemble_year_outside_the_run_is_rejected(t):
    # the models accept years -5..20, the run holds year indices 1..16
    freq = sr.FrequencyModel(alpha0=5.0, alpha1=0.0, link="identity")
    sev = sr.SeverityModel(family="exponential", beta0=1.0, beta1=0.0)
    config = sr.SimulationConfig(freq=freq, sev=sev, years=(1, 16), seed=0)
    with pytest.raises(ValueError, match=rf"^t: must lie in \[1, 16\], got {t}$"):
        replicate_fixed_year(config, t, 10)
    assert len(replicate_fixed_year(config, 16, 10)) == 10


def test_catalog_past_the_event_budget_is_rejected_before_drawing():
    # 2501 years at a rate of 4000 expect 4000 events past the budget
    config = stationary_config("exponential", lam=4000.0, mu=1.0, years=(1, 2501))
    with pytest.raises(ValueError, match=r"^freq: expects 1\.0004e\+07 events over 2501"):
        sr.simulate_catalog(config)
    log_config = sr.SimulationConfig(
        freq=sr.FrequencyModel(alpha0=700.0, alpha1=0.0, link="log"),
        sev=config.sev,
        years=(1, 2),
        seed=0,
    )
    with pytest.raises(ValueError, match=r"^freq: expects 2\.02846e\+304 events"):
        sr.simulate_catalog(log_config)
