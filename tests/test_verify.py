import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import stormrisk as sr
from stormrisk import riskmodel, simulate
from stormrisk.riskmodel import j_squared_from_correlation
from stormrisk.verify import _CHECKS, _checks, verification_checks

from helpers import FAMILIES, stationary_config

# --- reference: one function per statistic, each batch its own copy -------------


def _mean_n(n, s, x1):
    return float(np.mean(n))


def _var_n(n, s, x1):
    return float(np.var(n))


def _mean_s(n, s, x1):
    return float(np.mean(s))


def _var_s(n, s, x1):
    return float(np.var(s))


def _cov_ns(n, s, x1):
    return float(np.mean(n * s) - np.mean(n) * np.mean(s))


def _cor_ns(n, s, x1):
    vn, vs = np.var(n), np.var(s)
    if vn <= 0 or vs <= 0:
        return math.nan
    return _cov_ns(n, s, x1) / math.sqrt(vn * vs)


def _cov_xs(n, s, x1):
    mask = ~np.isnan(x1)
    if mask.sum() < 2:
        return math.nan
    x1, s = x1[mask], s[mask]
    return float(np.mean(x1 * s) - np.mean(x1) * np.mean(s))


def _j_round_trip(n, s, x1):
    rho = _cor_ns(n, s, x1)
    mean_n = np.mean(n)
    if math.isnan(rho) or not 0 < rho < 1 or mean_n <= 0:
        return math.nan
    return j_squared_from_correlation(rho, float(np.var(n) / mean_n))


REFERENCE = (_mean_n, _var_n, _mean_s, _var_s, _cov_ns, _cor_ns, _cov_xs, _j_round_trip)


def _batch_se(batches, statistic):
    vals = [statistic(*b) for b in batches]
    vals = [v for v in vals if not math.isnan(v)]
    if len(vals) < 2:
        return math.nan
    return float(np.std(vals, ddof=1) / math.sqrt(len(vals)))


def reference_estimates_and_ses(sample):
    full = (sample.counts.astype(np.float64), sample.sums, sample.first_marks)
    idx = np.array_split(np.arange(len(sample)), min(100, len(sample) // 10))
    batches = [tuple(a[i] for a in full) for i in idx]
    out = []
    for statistic in REFERENCE:
        with np.errstate(all="ignore"):
            out.append((statistic(*full), _batch_se(batches, statistic)))
    return out


# --- the library against the reference -------------------------------------------

SHAPES = {"gamma": 2.0, "lognormal": 1.0, "gpd": 0.25}
_GAMMA = stationary_config("gamma", lam=3.0, mu=2.0, shape=2.0)
SUMMARY = sr.risk_summary(_GAMMA.freq, _GAMMA.sev, 1)


def assert_same_bits(sample):
    got = [(c["estimate"], c["se"]) for c in _checks(sample, SUMMARY, 4.0)]
    want = reference_estimates_and_ses(sample)
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))


# 100 batches divide none of these sizes, so the batches differ in length.
# A rate of 300 is near the highest a whole block admits (_MAX_ROWS / _BATCH,
# about 305), so the int64 counts meet the reference's float64 copy where
# their partial sums are largest.
@pytest.mark.parametrize(
    "lam, replicates",
    [pytest.param(3.0, r, id=str(r)) for r in (1000, 1009, 250_001)]
    + [pytest.param(300.0, 250_001, id="rate 300-250001")],
)
@pytest.mark.parametrize("family", FAMILIES)
def test_statistics_match_the_per_statistic_reference_bit_for_bit(family, lam, replicates):
    config = stationary_config(family, lam=lam, mu=2.0, shape=SHAPES.get(family), seed=7)
    assert_same_bits(simulate.replicate_fixed_year(config, 1, replicates))


@pytest.mark.parametrize(
    "family, lam, shape, per_replicate",
    [("gamma", 20.0, 2.0, 9), ("lognormal", 1.0, 1.0, 17)],
    ids=["every replicate with an event", "many replicates without events"],
)
def test_checks_hold_at_most_17_bytes_per_replicate_and_leave_the_sample_unchanged(
    family, lam, shape, per_replicate
):
    # counts read in place; with every replicate marked, the NaN mask and
    # the mark product (9 bytes), else the mask and the compressed first
    # marks and sums, the product formed in the first-mark copy (17 bytes)
    replicates = 100_000
    config = stationary_config(family, lam=lam, mu=2.0, shape=shape, seed=7)
    sample = simulate.replicate_fixed_year(config, 1, replicates)
    assert np.isnan(sample.first_marks).any() == (per_replicate == 17)
    before = [a.copy() for a in (sample.counts, sample.sums, sample.first_marks)]
    summary = sr.risk_summary(config.freq, config.sev, 1)
    tracemalloc.start()
    try:
        _checks(sample, summary, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= per_replicate * replicates + 256 * 1024
    for got, want in zip((sample.counts, sample.sums, sample.first_marks), before):
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _sample(counts, sums, first):
    return simulate.FixedYearSample(
        counts=np.asarray(counts, dtype=np.int64),
        sums=np.asarray(sums, dtype=np.float64),
        first_marks=np.asarray(first, dtype=np.float64),
    )


def _degenerate_samples():
    rng = np.random.default_rng(3)
    counts = rng.poisson(2.0, 1009)
    marks = rng.exponential(1.0, 1009)
    marked = np.where(counts > 0, marks, np.nan)
    zeros = np.zeros(1009)
    return {
        "no events": _sample(zeros, zeros, np.full(1009, np.nan)),
        "constant counts and sums": _sample(np.full(1009, 3), np.full(1009, 6.0), np.full(1009, 2.0)),
        "constant counts": _sample(np.full(1009, 2), 2 * marks, marks),
        "one event": _sample(np.eye(1, 1009)[0], np.eye(1, 1009)[0], np.r_[1.0, np.full(1008, np.nan)]),
        "negative correlation": _sample(counts, 10.0 / np.maximum(counts, 1) * (counts > 0), marked),
        "sums near 1e131": _sample(counts, counts * 1e131, np.where(counts > 0, 1e131, np.nan)),
        "20 replicates": _sample(counts[:20], (counts * marks)[:20], marked[:20]),
        "25 replicates": _sample(counts[:25], (counts * marks)[:25], marked[:25]),
    }


DEGENERATE = _degenerate_samples()


@pytest.mark.parametrize("name", DEGENERATE)
def test_degenerate_samples_match_the_reference_bit_for_bit(name):
    assert_same_bits(DEGENERATE[name])


# --- the gate: a check passes when |estimate - target| <= sigma * se --------------


def with_targets(**targets):
    """SUMMARY with the given `_CHECKS` fields set to synthetic targets."""
    return dataclasses.replace(SUMMARY, **targets)


@pytest.mark.parametrize("sign", [1, -1])
def test_gate_passes_a_target_within_sigma_standard_errors_and_fails_beyond(sign):
    sample = simulate.replicate_fixed_year(_GAMMA, 1, 1000)
    checks = _checks(sample, SUMMARY, 4.0)
    assert all(c["se"] > 0 for c in checks)
    for distance, passed in ((3.9, True), (4.1, False)):
        targets = {field: c["estimate"] + sign * distance * c["se"]
                   for (_, field), c in zip(_CHECKS, checks)}
        got = _checks(sample, with_targets(**targets), 4.0)
        assert [c["passed"] for c in got] == [passed] * len(_CHECKS), distance


def test_a_zero_se_check_passes_only_on_an_exact_match():
    # every replicate has two events: the count checks have se 0
    marks = np.random.default_rng(0).exponential(size=(1000, 2))
    sample = simulate.FixedYearSample(
        counts=np.full(1000, 2), sums=marks.sum(axis=1), first_marks=marks[:, 0]
    )
    count_checks = slice(0, 2)  # mean count, count variance
    exact = _checks(sample, with_targets(e_n=2.0, var_n=0.0), 4.0)[count_checks]
    got = [(c["estimate"], c["se"], c["passed"]) for c in exact]
    assert got == [(2.0, 0.0, True), (0.0, 0.0, True)]
    off = _checks(sample, with_targets(e_n=np.nextafter(2.0, 3.0), var_n=5e-324), 4.0)
    assert [c["passed"] for c in off[count_checks]] == [False, False]


# --- the entry: rules before any work ---------------------------------------------


@pytest.fixture
def nothing_drawn(monkeypatch):
    """Make the entry's two module calls fail, so that a test shows a rule
    rejects its input before any summary or draw."""

    def fail(*args, **kwargs):
        raise AssertionError("called after the rules")

    monkeypatch.setattr(riskmodel, "risk_summary", fail)
    monkeypatch.setattr(simulate, "replicate_fixed_year", fail)


SEEDED = stationary_config("gamma", lam=3.0, mu=2.0, shape=2.0, seed=7)


@pytest.mark.parametrize(
    "replicates,message",
    [
        (0, "need at least 1000 for stable standard errors, got 0"),
        (20, "need at least 1000 for stable standard errors, got 20"),
        (999, "need at least 1000 for stable standard errors, got 999"),
        (1000.5, "must be an integer, got 1000.5"),
        (1000.0, "must be an integer, got 1000.0"),
        ("1000", "must be an integer, got '1000'"),
        (None, "must be an integer, got None"),
    ],
)
def test_entry_rejects_replicates_before_any_draw(nothing_drawn, replicates, message):
    with pytest.raises(ValueError, match=f"^replicates: {re.escape(message)}$"):
        verification_checks(SEEDED, replicates)


@pytest.mark.parametrize("sigma", [-1, 0, math.nan, math.inf, True, "4"])
def test_sigma_must_be_positive_and_finite(nothing_drawn, sigma):
    message = f"sigma: must be positive and finite, got {sigma!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verification_checks(SEEDED, 1000, sigma)


@pytest.mark.parametrize(
    "t,message",
    [
        (0, "must lie in [1, 60], got 0"),
        (61, "must lie in [1, 60], got 61"),
        (10**20, "must lie in [1, 60], got 100000000000000000000"),
        (3.5, "must be an integer, got 3.5"),
        (math.nan, "must be an integer, got nan"),
        (4.0, "must be an integer, got 4.0"),
        (True, "must be an integer, got True"),
    ],
)
def test_entry_rejects_a_year_index_before_any_draw(nothing_drawn, t, message):
    with pytest.raises(ValueError, match=f"^t: {re.escape(message)}$"):
        verification_checks(SEEDED, 1000, t=t)


def test_entry_checks_the_rules_in_order(nothing_drawn):
    # replicates, then sigma, then the year
    with pytest.raises(ValueError, match="^replicates: "):
        verification_checks(SEEDED, 999, -1.0, 0)
    with pytest.raises(ValueError, match="^sigma: "):
        verification_checks(SEEDED, 1000, -1.0, 0)


def test_entry_defaults_to_the_middle_year_through_the_modules(monkeypatch):
    # a tracer hooks the module attributes, so the entry must call them there
    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    spy(riskmodel, "risk_summary")
    spy(simulate, "replicate_fixed_year")
    t, checks = verification_checks(SEEDED, 1009)
    assert (t, calls) == (30, ["risk_summary", "replicate_fixed_year"])
    sample = simulate.replicate_fixed_year(SEEDED, 30, 1009)
    summary = sr.risk_summary(SEEDED.freq, SEEDED.sev, 30)
    assert checks == _checks(sample, summary, 4.0)
    assert verification_checks(SEEDED, 1009, 4.0, 30) == (30, checks)
    assert verification_checks(SEEDED, 1009, t=np.int64(4))[0] == 4


# The power of the intensity scale in each check's estimate, target and se.
SCALE_POWERS = {
    "e_n": 0, "var_n": 0, "e_s": 1, "var_s": 2, "cov_ns": 1, "cor_ns": 0, "var_x": 2, "j_squared": 0
}


@pytest.mark.parametrize(
    "family, shape", [("uniform", None), ("gamma", 2.0), ("exponential", None), ("gpd", 0.2)]
)
def test_verdicts_are_invariant_to_a_power_of_two_intensity_scale(family, shape):
    # intensities times c: the GPD driver is an inverse scale, so divided
    # by c; the lognormal driver is a log location and is left out
    freq = sr.FrequencyModel(alpha0=5.0, alpha1=0.1, link="identity")

    def checks(c):
        k = 1 / c if family == "gpd" else c
        sev = sr.SeverityModel(family=family, beta0=3.0 * k, beta1=0.05 * k, shape=shape)
        config = sr.SimulationConfig(freq=freq, sev=sev, years=(1, 20), seed=5)
        return verification_checks(config, 2000)[1]

    base = checks(1.0)
    for c in (2.0, 2.0**-10):
        for (name, field), got, want in zip(_CHECKS, checks(c), base):
            assert got["passed"] == want["passed"], (c, name)
            for key in ("estimate", "target", "se"):
                scaled = c ** SCALE_POWERS[field] * want[key]
                assert np.float64(got[key]).tobytes() == np.float64(scaled).tobytes(), (c, name, key)
