import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stormrisk as sr
from stormrisk.frequency import _check_span, rate, sample_count

from helpers import EXTREME_FLOATS


def log_model(alpha0, alpha1):
    return sr.FrequencyModel(alpha0=alpha0, alpha1=alpha1, link="log")


def identity_model(alpha0, alpha1):
    return sr.FrequencyModel(
        alpha0=alpha0, alpha1=alpha1, link="identity"
    )


def test_rate_values():
    assert rate(log_model(0.0, 0.0), 7) == 1.0
    assert rate(log_model(1.0, 0.1), 10) == pytest.approx(math.exp(2.0), rel=1e-12)
    assert rate(log_model(1.0, 0.1), 10) == pytest.approx(7.38905609893065, rel=1e-12)
    assert rate(identity_model(20.0, 0.5), 60) == 50.0


def span_message(model, t_min, t_max):
    """The span check's error over ``[t_min, t_max]``, or None."""
    try:
        _check_span(model, t_min, t_max)
    except ValueError as exc:
        return str(exc)
    return None


def draw_count(model, t):
    return sample_count(model, t, np.random.default_rng(0), size=1)


def test_rate_horizon_violation():
    # a model holds no years: rate checks the years it is given, with the
    # span check's message, and names an array's first failing year
    model = identity_model(1.0, -0.1)
    assert rate(model, 9) == pytest.approx(0.1)
    for t in (10, np.arange(1, 13), np.arange(10, 13)):
        with pytest.raises(ValueError, match=r"^identity-link rate non-positive at t=10: "):
            rate(model, t)
    with pytest.raises(ValueError, match=r"^identity-link rate non-positive at t=10: "):
        draw_count(model, 10)
    assert rate(model, np.arange(0)).shape == (0,)  # no year, nothing to check


def test_identity_link_positivity_validated_at_construction():
    # of the config, over its years
    sev = sr.SeverityModel(family="exponential", beta0=1.0, beta1=0.0)

    def config(freq, n):
        return sr.SimulationConfig(freq=freq, sev=sev, years=(1, n))

    with pytest.raises(ValueError, match="^freq: identity-link rate non-positive at t=10"):
        config(identity_model(1.0, -0.1), 60)
    # -alpha0 / alpha1 is exactly 267.0, but the float rate at 267 is
    # 2.8e-14 > 0, so the search for the first such year steps on to 268
    assert rate(identity_model(186.9, -0.7), 267) > 0
    message = "freq: identity-link rate non-positive at t=268: 186.9 + -0.7*268 <= 0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config(identity_model(186.9, -0.7), 300)
    # strictly positive over fewer years is fine
    config(identity_model(1.0, -0.1), 9)
    with pytest.raises(ValueError, match="non-positive"):
        config(identity_model(0.0, 0.0), 60)
    with pytest.raises(ValueError, match="^freq: identity-link rate at t=1 is inf"):
        config(identity_model(1e308, 1e308), 2)


def test_log_link_always_positive():
    model = log_model(-30.0, 0.0)
    assert rate(model, 1) > 0
    with pytest.raises(ValueError, match="log-link rate at t=1 is inf"):
        rate(log_model(1000.0, 0.0), 1)
    # exp(-800) underflows to 0
    with pytest.raises(ValueError, match="log-link rate at t=1 is 0.0"):
        rate(log_model(-800.0, 0.0), 1)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    link=st.sampled_from(["log", "identity"]),
    alpha0=EXTREME_FLOATS,
    alpha1=EXTREME_FLOATS,
    n=st.integers(1, 31),
)
def test_constructed_rate_is_positive_and_finite_at_every_year(link, alpha0, alpha1, n):
    # construction refuses a non-finite parameter, naming it; over the
    # years of any config that accepts the model, the rate is usable; at
    # any year, rate, sample_count and risk_summary raise exactly where
    # the span check does, with its message
    for name, value in (("alpha0", alpha0), ("alpha1", alpha1)):
        if not math.isfinite(value):
            with pytest.raises(ValueError, match=f"^{name}: must be finite, got {value}$"):
                sr.FrequencyModel(alpha0=alpha0, alpha1=alpha1, link=link)
            return
    model = sr.FrequencyModel(alpha0=alpha0, alpha1=alpha1, link=link)
    sev = sr.SeverityModel(family="exponential", beta0=1.0, beta1=0.0)
    try:
        sr.SimulationConfig(freq=model, sev=sev, years=(1, n))
        accepted = True
    except ValueError as exc:
        assert str(exc) == f"freq: {span_message(model, 1, n)}"
        accepted = False
    for t in range(-2, n + 4):
        message = span_message(model, t, t)
        assert not (accepted and 1 <= t <= n and message)
        if message is None:
            assert 0 < rate(model, t) < math.inf
            continue
        for evaluate in (rate, draw_count, lambda m, t: sr.risk_summary(m, sev, t)):
            with pytest.raises(ValueError) as excinfo:
                evaluate(model, t)
            assert str(excinfo.value) == message


def test_sample_count_near_zero_rate():
    model = identity_model(1e-9, 0.0)
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
    sev = sr.SeverityModel(family="exponential", beta0=1.0, beta1=0.0)
    for freq in (log_model(2.0, 0.01), identity_model(20.0, 0.5)):
        assert sr.risk_summary(freq, sev, 30).phi == 1.0
