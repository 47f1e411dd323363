import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import stormrisk as sr
from stormrisk.severity import (
    _check_span,
    _exponential_ppf,
    _gpd_ppf,
    _inverse_cdf,
    _uniform_ppf,
    sample_intensity,
    severity_moments,
)

from helpers import EXTREME_FLOATS, FAMILIES, random_severity, rel_err


def make(family, beta0, beta1=0.0, shape=None):
    return sr.SeverityModel(
        family=family, beta0=beta0, beta1=beta1, shape=shape
    )


# --- closed-form moments -------------------------------------------------


def test_exponential_moments():
    m = severity_moments(make("exponential", 2.0), 1)
    assert m.mean == 2.0
    assert m.variance == 4.0


def test_lognormal_moments():
    # direct evaluation: mean exp(mu + s^2/2), var (e^{s^2}-1) exp(2mu + s^2)
    m = severity_moments(make("lognormal", 1.0, shape=0.5), 1)
    assert m.mean == pytest.approx(math.exp(1.125), rel=1e-12)
    assert m.mean == pytest.approx(3.080216848918031, rel=1e-12)
    assert m.variance == pytest.approx((math.exp(0.25) - 1) * math.exp(2.25), rel=1e-12)
    assert m.variance == pytest.approx(2.694758124344947, rel=1e-12)


def test_gpd_moments():
    m = severity_moments(make("gpd", 0.5, shape=0.25), 1)
    assert m.mean == pytest.approx(1 / (0.5 * 0.75), rel=1e-12)
    assert m.mean == pytest.approx(2.6666666666666665, rel=1e-12)
    assert m.variance == pytest.approx(1 / (0.25 * 0.75**2 * 0.5), rel=1e-12)
    assert m.variance == pytest.approx(14.222222222222221, rel=1e-12)


def test_uniform_and_gamma_moments():
    m = severity_moments(make("uniform", 6.0), 1)
    assert m.mean == 3.0
    assert m.variance == 3.0
    m = severity_moments(make("gamma", 2.0, shape=3.0), 1)
    assert m.mean == 6.0
    assert m.variance == 12.0


def test_second_moment_consistency_everywhere():
    rng = np.random.default_rng(11)
    for _ in range(200):
        model = random_severity(rng)
        t = int(rng.integers(1, 61))
        m = severity_moments(model, t)
        assert rel_err(m.second_moment, m.variance + m.mean**2) <= 1e-12
        assert m.variance >= 0


def test_gamma_shape_one_equals_exponential():
    for t in (1, 17, 60):
        g = severity_moments(make("gamma", 3.0, 0.02, shape=1.0), t)
        e = severity_moments(make("exponential", 3.0, 0.02), t)
        assert g.mean == e.mean
        assert g.variance == e.variance


def test_trend_is_applied_per_year():
    model = make("exponential", 2.0, 0.5)
    assert severity_moments(model, 1).mean == 2.5
    assert severity_moments(model, 10).mean == 7.0


# --- shape ratio ----------------------------------------------------------


def test_j_squared_reference_values():
    assert sr.j_squared(make("uniform", 5.0)) == 3.0
    assert sr.j_squared(make("exponential", 5.0)) == 1.0
    assert sr.j_squared(make("gamma", 5.0, shape=2.5)) == 2.5
    assert sr.j_squared(make("gpd", 5.0, shape=0.2)) == pytest.approx(0.6, rel=1e-15)
    # 1 / (e - 1) at unit log-sd
    assert sr.j_squared(make("lognormal", 5.0, shape=1.0)) == pytest.approx(
        0.5819767068693265, rel=1e-12
    )


def test_j_squared_invariant_to_trend_and_year():
    rng = np.random.default_rng(5)
    for _ in range(100):
        model = random_severity(rng)
        j = sr.j_squared(model)
        # moment-based value agrees at two different years
        for t in (1, 60):
            m = severity_moments(model, t)
            assert rel_err(m.mean**2 / m.variance, j) <= 1e-12
        # rescaling the trend (or shifting, for the log-scale family)
        if model.family is sr.Family.LOGNORMAL:
            beta0, beta1 = model.beta0 + 3.0, model.beta1
        else:
            c = rng.uniform(0.1, 10.0)
            beta0, beta1 = c * model.beta0, c * model.beta1
        rescaled = sr.SeverityModel(
            family=model.family,
            beta0=beta0,
            beta1=beta1,
            shape=model.shape,
        )
        assert rel_err(sr.j_squared(rescaled), j) <= 1e-12


# --- validation -----------------------------------------------------------


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        make("gamma", 1.0, shape=0.0)
    with pytest.raises(ValueError):
        make("lognormal", 1.0, shape=0.0)  # degenerate log-sd
    with pytest.raises(ValueError, match="< 0.5"):
        make("gpd", 1.0, shape=0.5)
    with pytest.raises(ValueError):
        make("uniform", 1.0, shape=2.0)  # no shape parameter
    with pytest.raises(ValueError):
        make("exponential", 1.0, shape=1.0)


def span_message(model, t_min, t_max):
    """The span check's error over ``[t_min, t_max]``, or None."""
    try:
        _check_span(model, t_min, t_max)
    except ValueError as exc:
        return str(exc)
    return None


def config(sev, n):
    freq = sr.FrequencyModel(alpha0=5.0, alpha1=0.0, link="identity")
    return sr.SimulationConfig(freq=freq, sev=sev, years=(1, n))


def test_driver_positivity_enforced():
    with pytest.raises(ValueError, match="^sev: scale driver is non-positive at t=60"):
        config(make("exponential", 1.0, -0.1), 60)  # hits 0 at t = 10
    # log-scale location may be negative
    config(make("lognormal", -2.0, 0.0, shape=1.0), 60)
    # positive at every year of a shorter span is fine
    config(make("exponential", 1.0, -0.1), 9)


def test_moments_must_be_finite_with_positive_variance_on_the_horizon():
    # exp(710) overflows; 1 / (1e-300)^2 divides by zero; (1e-200)^2 underflows to 0
    for family, beta0, shape in (("lognormal", 710.0, 1.0), ("gpd", 1e-300, 0.2), ("uniform", 1e-200, None)):
        message = "^sev: intensity moments at t=1 .* not finite with positive variance"
        with pytest.raises(ValueError, match=message):
            config(make(family, beta0, shape=shape), 60)
    # only the far end of the span leaves the range: E[X^2] = exp(2 (340 + t) + 2)
    with pytest.raises(ValueError, match="t=20"):
        config(make("lognormal", 340.0, 1.0, shape=1.0), 20)
    config(make("lognormal", 340.0, 1.0, shape=1.0), 5)


SHAPES = {
    "gamma": st.floats(0.0, 30.0),
    "lognormal": st.floats(0.0, 30.0),
    "gpd": st.floats(-2.0, 0.5),
}


@settings(derandomize=True, max_examples=600, deadline=None)
@given(
    data=st.data(),
    family=st.sampled_from(FAMILIES),
    beta0=EXTREME_FLOATS,
    beta1=EXTREME_FLOATS,
    n=st.integers(1, 31),
)
def test_constructed_model_has_usable_moments_at_every_year(data, family, beta0, beta1, n):
    # over the years of any config that accepts the model, its moments are
    # usable; at any year, severity_moments and risk_summary raise exactly
    # where the span check does, with its message, and a draw where its
    # driver rule does
    shape = None
    if family in SHAPES:
        shape = data.draw(st.one_of(EXTREME_FLOATS, SHAPES[family]))
    try:
        model = make(family, beta0, beta1, shape=shape)
    except ValueError:
        return
    try:
        config(model, n)
        accepted = True
    except ValueError as exc:
        assert str(exc) == f"sev: {span_message(model, 1, n)}"
        accepted = False
    for t in range(-2, n + 4):
        message = span_message(model, t, t)
        assert not (accepted and 1 <= t <= n and message)
        if message is None:
            m = severity_moments(model, t)
            assert math.isfinite(m.mean) and math.isfinite(m.second_moment)
            assert 0 < m.variance < math.inf
            if family != "lognormal":
                assert model.driver(t) > 0
            continue
        freq = sr.FrequencyModel(alpha0=5.0, alpha1=0.0, link="identity")
        for evaluate in (severity_moments, lambda m, t: sr.risk_summary(freq, m, t)):
            with pytest.raises(ValueError) as excinfo:
                evaluate(model, t)
            assert str(excinfo.value) == message
        if message.startswith("scale driver"):
            with pytest.raises(ValueError) as excinfo:
                sample_intensity(model, t, np.random.default_rng(0), size=1)
            assert str(excinfo.value) == message


def test_horizon_violation_raises():
    # a model holds no years: severity_moments checks the years it is
    # given, and names an array's first failing end
    model = make("exponential", 2.0, beta1=-0.2)
    assert severity_moments(model, 9).mean == pytest.approx(0.2)
    for t in (10, np.arange(1, 13)):
        with pytest.raises(ValueError, match=r"^scale driver is non-positive at t=(10|12): "):
            severity_moments(model, t)
    with pytest.raises(ValueError, match=r"^scale driver is non-positive at t=0: "):
        sample_intensity(make("exponential", 0.0, beta1=1.0), 0, np.random.default_rng(0), size=1)
    # a draw needs only the driver; the moments rule is checked where moments are used
    huge = make("gamma", 1e200, shape=2.0)
    with pytest.raises(ValueError, match=r"^intensity moments at t=1 \(driver 1e\+200\)"):
        severity_moments(huge, 1)
    assert sample_intensity(huge, 1, np.random.default_rng(0), size=3).shape == (3,)


# --- sampling -------------------------------------------------------------


def test_inverse_cdf_reference_points():
    assert _uniform_ppf(0.5, 10.0) == 5.0
    assert _exponential_ppf(1 - math.exp(-2.0), 3.0) == pytest.approx(6.0, rel=1e-12)
    # exponential limit of the heavy-tail transform
    assert _gpd_ppf(1 - math.exp(-2.0), 1.0, 0.0) == pytest.approx(2.0, rel=1e-12)
    # small-shape continuity with the limit
    u = 0.7
    assert _gpd_ppf(u, 1.0, 1e-10) == pytest.approx(_gpd_ppf(u, 1.0, 0.0), rel=1e-6)


@pytest.mark.parametrize("xi", [0.049, 1e-8, 1e-17, 5e-324, -5e-324, -1e-12, -0.049])
def test_gpd_inverse_cdf_near_zero_shape_keeps_its_digits(xi):
    # against (1 - u)^(-xi) - 1 in 400-digit decimals, enough for y near 5e-324
    u = np.random.default_rng(0).random(200)
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        d = decimal.Decimal(xi)
        want = [float(((-d * (1 - decimal.Decimal(v)).ln()).exp() - 1) / d) for v in u.tolist()]
    got = _gpd_ppf(u, 1.0, xi)
    assert np.all(np.abs(got - want) <= 2 * np.spacing(np.array(want)))


@pytest.mark.parametrize(
    "family,shape",
    [
        ("uniform", None),
        ("exponential", None),
        ("gpd", 0.2),
        ("gpd", 0.0),
        ("gpd", -0.3),
        ("gpd", 0.01),
    ],
)
def test_one_inverse_cdf_pass_matches_per_year_sampling(family, shape):
    # simulate_catalog draws each year's uniforms from its own stream and
    # maps all years' draws at once; year t here draws t marks, so the
    # 1..64 lengths put every array position in a SIMD tail somewhere.
    model = make(family, 2.0, beta1=0.05, shape=shape)
    years = range(1, 65)
    per_year = [sample_intensity(model, t, np.random.default_rng(t), size=t) for t in years]
    u = np.concatenate([np.random.default_rng(t).random(t) for t in years])
    mu = np.repeat(np.array([model.driver(t) for t in years]), years)
    assert _inverse_cdf(model, u, mu).tobytes() == np.concatenate(per_year).tobytes()


def test_sampling_is_deterministic_given_state():
    model = make("gamma", 2.0, shape=1.5)
    a = sample_intensity(model, 3, np.random.default_rng(42), size=10)
    b = sample_intensity(model, 3, np.random.default_rng(42), size=10)
    assert np.array_equal(a, b)


SAMPLING_CASES = [
    ("uniform", 10.0, None),
    ("gamma", 1.5, 2.0),
    ("exponential", 26.7, None),
    ("lognormal", 1.0, 0.5),
    ("gpd", 0.5, 0.25),
]


@pytest.mark.parametrize("family,beta0,shape", SAMPLING_CASES)
def test_sample_mean_converges(family, beta0, shape):
    model = make(family, beta0, shape=shape)
    m = severity_moments(model, 1)
    draws = sample_intensity(model, 1, np.random.default_rng(7), size=1_000_000)
    assert np.all(draws > 0)
    se = math.sqrt(m.variance / len(draws))
    assert abs(draws.mean() - m.mean) <= 4 * se


@pytest.mark.parametrize("family,beta0,shape", SAMPLING_CASES)
def test_samples_match_reference_cdf(family, beta0, shape):
    """One-sample KS against an independent CDF implementation."""
    model = make(family, beta0, shape=shape)
    draws = sample_intensity(model, 1, np.random.default_rng(3), size=20_000)
    dist = {
        "uniform": lambda: stats.uniform(0, beta0),
        "gamma": lambda: stats.gamma(shape, scale=beta0),
        "exponential": lambda: stats.expon(scale=beta0),
        "lognormal": lambda: stats.lognorm(shape, scale=math.exp(beta0)),
        "gpd": lambda: stats.genpareto(shape, scale=1.0 / beta0),
    }[family]()
    result = stats.ks_1samp(draws, dist.cdf)
    assert result.pvalue > 0.001


def test_gamma_shape_one_sampler_matches_exponential():
    n = 100_000
    gamma = sample_intensity(
        make("gamma", 2.0, shape=1.0), 1, np.random.default_rng(1), size=n
    )
    expo = sample_intensity(
        make("exponential", 2.0), 1, np.random.default_rng(2), size=n
    )
    statistic = stats.ks_2samp(gamma, expo).statistic
    # two-sample 1% critical value: 1.628 * sqrt((n + m) / (n m))
    assert statistic < 1.628 * math.sqrt(2.0 / n)


def test_gpd_zero_shape_matches_exponential_sampler():
    n = 100_000
    gpd = sample_intensity(
        make("gpd", 0.5, shape=0.0), 1, np.random.default_rng(1), size=n
    )
    expo = sample_intensity(
        make("exponential", 2.0), 1, np.random.default_rng(2), size=n
    )
    statistic = stats.ks_2samp(gpd, expo).statistic
    assert statistic < 1.628 * math.sqrt(2.0 / n)


def test_all_families_cover_horizon_with_trend():
    rng = np.random.default_rng(19)
    for family in FAMILIES:
        model = random_severity(rng, family)
        for t in (1, 30, 60):
            x = sample_intensity(model, t, np.random.default_rng(t), size=100)
            assert np.all(x > 0)
