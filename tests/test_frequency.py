import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stormrisk as sr
from stormrisk.frequency import rate, sample_count

from helpers import EXTREME_FLOATS, HORIZONS


def log_model(alpha0, alpha1, horizon=(1, 60)):
    return sr.FrequencyModel(alpha0=alpha0, alpha1=alpha1, link="log", horizon=horizon)


def identity_model(alpha0, alpha1, horizon=(1, 60)):
    return sr.FrequencyModel(
        alpha0=alpha0, alpha1=alpha1, link="identity", horizon=horizon
    )


def test_rate_values():
    assert rate(log_model(0.0, 0.0), 7) == 1.0
    assert rate(log_model(1.0, 0.1), 10) == pytest.approx(math.exp(2.0), rel=1e-12)
    assert rate(log_model(1.0, 0.1), 10) == pytest.approx(7.38905609893065, rel=1e-12)
    assert rate(identity_model(20.0, 0.5), 60) == 50.0


@pytest.mark.parametrize(
    "horizon, message",
    [
        ((1, math.inf), "horizon: bounds must be finite, got (1, inf)"),
        ((math.nan, 5), "horizon: bounds must be finite, got (nan, 5)"),
        ((5, 4), "horizon: must satisfy t_min <= t_max, got (5, 4)"),
    ],
)
def test_model_horizon_errors(horizon, message):
    # the frequency and severity models share the horizon rule
    for make in (
        lambda: identity_model(1.0, 0.0, horizon=horizon),
        lambda: sr.SeverityModel(family="exponential", beta0=1.0, beta1=0.0, horizon=horizon),
    ):
        with pytest.raises(ValueError) as excinfo:
            make()
        assert str(excinfo.value) == message


def test_rate_horizon_violation():
    model = log_model(0.0, 0.0, horizon=(1, 10))
    with pytest.raises(ValueError, match=r"^t: must lie in \[1, 10\], got 11$"):
        rate(model, 11)
    with pytest.raises(ValueError, match=r"^t: must lie in \[1, 10\], got 0$"):
        rate(model, 0)


def test_identity_link_positivity_validated_at_construction():
    with pytest.raises(ValueError, match="non-positive at t=10"):
        identity_model(1.0, -0.1)
    # strictly positive on a shorter horizon is fine
    identity_model(1.0, -0.1, horizon=(1, 9))
    with pytest.raises(ValueError, match="non-positive"):
        identity_model(0.0, 0.0)
    with pytest.raises(ValueError, match="identity-link rate at t=1 is inf"):
        identity_model(1e308, 1e308, horizon=(1, 2))


def test_log_link_always_positive():
    model = log_model(-30.0, 0.0)
    assert rate(model, 1) > 0
    with pytest.raises(ValueError, match="log-link rate at t=1 is inf"):
        log_model(1000.0, 0.0)
    # exp(-800) underflows to 0
    with pytest.raises(ValueError, match="log-link rate at t=1 is 0.0"):
        log_model(-800.0, 0.0)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    link=st.sampled_from(["log", "identity"]),
    alpha0=EXTREME_FLOATS,
    alpha1=EXTREME_FLOATS,
    horizon=HORIZONS,
)
def test_constructed_rate_is_positive_and_finite_at_every_year(
    link, alpha0, alpha1, horizon
):
    # rate() checks only the horizon: construction must guarantee the rest
    try:
        model = sr.FrequencyModel(alpha0=alpha0, alpha1=alpha1, link=link, horizon=horizon)
    except ValueError:
        return
    for t in range(horizon[0], horizon[1] + 1):
        assert 0 < rate(model, t) < math.inf


def test_sample_count_near_zero_rate():
    model = identity_model(1e-9, 0.0, horizon=(1, 10))
    draws = sample_count(model, 1, np.random.default_rng(0), size=10_000)
    assert np.all(draws == 0)


def test_sample_count_mean_and_equidispersion():
    model = identity_model(5.0, 0.0)
    draws = sample_count(model, 1, np.random.default_rng(8), size=1_000_000)
    n = len(draws)
    assert abs(draws.mean() - 5.0) <= 4 * math.sqrt(5.0 / n)
    assert abs(draws.var() - 5.0) <= 0.05 * 5.0
    # dispersion ratio: sd of var/mean for Poisson is about sqrt(2 / n)
    dispersion = draws.var() / draws.mean()
    assert abs(dispersion - 1.0) <= 3 * math.sqrt(2.0 / n)


def test_sample_count_scalar_and_determinism():
    # one draw is an array of one count, as any other size is
    model = log_model(1.0, 0.0)
    a = sample_count(model, 2, np.random.default_rng(3), size=1)
    b = sample_count(model, 2, np.random.default_rng(3), size=1)
    assert a.shape == (1,) and a.dtype == np.int64
    assert np.array_equal(a, b)


def test_theoretical_dispersion_is_one_for_poisson():
    sev = sr.SeverityModel(family="exponential", beta0=1.0, beta1=0.0, horizon=(1, 60))
    for freq in (log_model(2.0, 0.01), identity_model(20.0, 0.5)):
        assert sr.risk_summary(freq, sev, 30).phi == 1.0
