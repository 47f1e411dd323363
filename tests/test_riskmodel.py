import math
from dataclasses import fields

import numpy as np
import pytest

import stormrisk as sr
from stormrisk.frequency import _EACH_CHUNK, rate
from stormrisk.riskmodel import j_squared_from_correlation
from stormrisk.severity import j_squared, severity_moments

from helpers import FAMILIES, random_model_pair, rel_err


def pair(family, mu, lam, shape=None, n_years=60):
    freq = sr.FrequencyModel(
        alpha0=lam, alpha1=0.0, link="identity"
    )
    sev = sr.SeverityModel(
        family=family, beta0=mu, beta1=0.0, shape=shape
    )
    return freq, sev


# --- expectation and variance --------------------------------------------


def summary(family, mu, lam, shape=None, n_years=60):
    return sr.risk_summary(*pair(family, mu, lam, shape, n_years), 1)


def phi_form_variance(e_n, phi, moments):
    """Var(S) = E[N] (Var(X) + phi E[X]^2), the dispersion form."""
    return e_n * (moments.variance + phi * moments.mean**2)


def test_expected_aggregate_values():
    assert summary("exponential", 2.0, 10.0).e_s == 20.0
    # rate times lognormal mean: 20 exp(1.125)
    assert summary("lognormal", 1.0, 20.0, 0.5).e_s == pytest.approx(
        61.60433697836062, rel=1e-12
    )
    assert summary("gpd", 0.5, 7.0, 0.25).e_s == pytest.approx(
        7.0 * 2.6666666666666665, rel=1e-12
    )


def test_variance_aggregate_values():
    # lognormal: lam exp(2 mu + 2 s^2)
    assert summary("lognormal", 1.0, 20.0, 0.5).var_s == pytest.approx(
        20.0 * math.exp(2.5), rel=1e-12
    )
    # uniform: lam mu^2 / 3
    assert summary("uniform", 6.0, 3.0).var_s == pytest.approx(36.0, rel=1e-12)
    # exponential at unit parameters: 2 lam mu^2
    assert summary("exponential", 1.0, 1.0).var_s == pytest.approx(2.0, rel=1e-12)


def test_variance_phi_form():
    moments = severity_moments(pair("lognormal", 1.0, 20.0, 0.5)[1], 1)
    assert phi_form_variance(20.0, 1.0, moments) == pytest.approx(
        summary("lognormal", 1.0, 20.0, 0.5).var_s, rel=1e-12
    )
    exp_moments = severity_moments(pair("exponential", 1.0, 1.0)[1], 1)
    assert phi_form_variance(10.0, 1.0, exp_moments) == pytest.approx(
        summary("exponential", 1.0, 10.0).var_s, rel=1e-12
    )


# --- covariance and correlation -------------------------------------------


def test_cov_ns_values():
    assert summary("exponential", 2.0, 10.0).cov_ns == 20.0
    assert summary("uniform", 4.0, 5.0).cov_ns == 10.0


def test_cov_ns_identities_on_random_models():
    rng = np.random.default_rng(23)
    for _ in range(100):
        freq, sev, t = random_model_pair(rng)
        rs = sr.risk_summary(freq, sev, t)
        lam = rate(freq, t)
        e_x = severity_moments(sev, t).mean
        assert rel_err(rs.cov_ns, e_x * lam) <= 1e-12           # E[X] Var(N)
        assert rel_err(rs.cov_ns, rs.phi * lam * e_x) <= 1e-12  # phi E[S]


def test_cor_ns_reference_values():
    # lognormal: exp(-s^2/2), independent of rate and trend
    for lam in (1.0, 50.0):
        assert summary("lognormal", 0.3, lam, 0.5).cor_ns == pytest.approx(
            math.exp(-0.125), rel=1e-12
        )
    assert summary("uniform", 3.0, 11.0).cor_ns == pytest.approx(
        math.sqrt(3) / 2, rel=1e-12
    )
    # zero-shape heavy-tail model coincides with the exponential row
    assert summary("gpd", 0.5, 4.0, 0.0).cor_ns == pytest.approx(
        math.sqrt(0.5), rel=1e-12
    )
    assert summary("exponential", 2.0, 4.0).cor_ns == pytest.approx(
        math.sqrt(0.5), rel=1e-12
    )


def cor_ns(freq, sev, t):
    return sr.risk_summary(freq, sev, t).cor_ns


def test_cor_ns_invariant_to_trend_rescaling():
    rng = np.random.default_rng(31)
    for family in ("uniform", "gamma", "exponential", "gpd"):
        freq, sev, t = random_model_pair(rng, family)
        c = rng.uniform(0.2, 5.0)
        scaled = sr.SeverityModel(
            family=sev.family,
            beta0=c * sev.beta0,
            beta1=c * sev.beta1,
            shape=sev.shape,
        )
        assert rel_err(cor_ns(freq, sev, t), cor_ns(freq, scaled, t)) <= 1e-12
    # log-scale family: invariant to location shifts instead
    freq, sev, t = random_model_pair(rng, "lognormal")
    shifted = sr.SeverityModel(
        family=sev.family,
        beta0=sev.beta0 + 2.5,
        beta1=sev.beta1,
        shape=sev.shape,
    )
    assert rel_err(cor_ns(freq, sev, t), cor_ns(freq, shifted, t)) <= 1e-12


# --- correlation-dispersion identity ---------------------------------------


def test_j_squared_from_correlation_reference_values():
    assert j_squared_from_correlation(math.sqrt(2) / 2, 1.0) == pytest.approx(
        1.0, rel=1e-12
    )
    assert j_squared_from_correlation(math.sqrt(3) / 2, 1.0) == pytest.approx(
        3.0, rel=1e-12
    )
    xi = 0.25
    rho = math.sqrt((1 - 2 * xi) / (2 - 2 * xi))
    assert j_squared_from_correlation(rho, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_j_squared_from_correlation_domain():
    with pytest.raises(ValueError):
        j_squared_from_correlation(1.0, 1.0)
    with pytest.raises(ValueError):
        j_squared_from_correlation(0.0, 1.0)
    with pytest.raises(ValueError):
        j_squared_from_correlation(0.5, 0.0)


# --- reference table -------------------------------------------------------


def test_table1_exponential_row():
    row = sr.table1_row("exponential", mu=1.0, lam=1.0)
    assert row.e_s == pytest.approx(1.0, rel=1e-12)
    assert row.var_s == pytest.approx(2.0, rel=1e-12)
    assert row.cor_ns == pytest.approx(math.sqrt(2) / 2, rel=1e-12)
    assert row.j_squared == pytest.approx(1.0, rel=1e-12)


def test_table1_gamma_row():
    row = sr.table1_row("gamma", mu=1.0, lam=1.0, shape=2.0)
    assert row.e_s == pytest.approx(2.0, rel=1e-12)
    assert row.var_s == pytest.approx(6.0, rel=1e-12)  # lam (theta + theta^2) mu^2
    assert row.cor_ns == pytest.approx(2 / math.sqrt(6), rel=1e-12)
    assert row.j_squared == pytest.approx(2.0, rel=1e-12)


def test_table1_lognormal_row():
    row = sr.table1_row("lognormal", mu=0.0, lam=1.0, shape=1.0)
    assert row.e_s == pytest.approx(math.exp(0.5), rel=1e-12)
    assert row.var_s == pytest.approx(math.exp(2.0), rel=1e-12)
    assert row.cor_ns == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert row.j_squared == pytest.approx(1 / (math.e - 1), rel=1e-12)


# --- identity sweep ---------------------------------------------------------


def test_identity_suite_random_models():
    """Wald, the variance identities and the correlation round trip on a
    randomized sweep over all families."""
    rng = np.random.default_rng(2024)
    for i in range(1000):
        family = FAMILIES[i % len(FAMILIES)]
        freq, sev, t = random_model_pair(rng, family)
        lam = rate(freq, t)
        m = severity_moments(sev, t)
        s = sr.risk_summary(freq, sev, t)

        assert rel_err(s.e_s, lam * m.mean) <= 1e-12
        assert rel_err(s.var_s, lam * m.second_moment) <= 1e-12  # Poisson shortcut
        assert rel_err(s.var_s, phi_form_variance(lam, 1.0, m)) <= 1e-12
        assert rel_err(s.cov_ns, m.mean * lam) <= 1e-12
        assert rel_err(s.cov_ns, s.e_s) <= 1e-12  # phi = 1

        rho = s.cor_ns
        assert 0 < rho <= 1
        # dispersion form of the correlation
        assert rel_err(rho, m.mean / math.sqrt(m.variance + m.mean**2)) <= 1e-12
        assert rel_err(
            j_squared_from_correlation(rho, 1.0), j_squared(sev)
        ) <= 1e-10


def test_risk_summary_is_internally_consistent():
    rng = np.random.default_rng(77)
    for _ in range(200):
        freq, sev, t = random_model_pair(rng)
        s = sr.risk_summary(freq, sev, t)
        assert rel_err(s.e_s, s.e_n * s.e_x) <= 1e-12
        assert rel_err(s.var_s, s.e_n * s.var_x + s.var_n * s.e_x**2) <= 1e-12
        assert rel_err(s.cov_ns, s.e_x * s.var_n) <= 1e-12
        assert rel_err(s.cov_ns, s.phi * s.e_s) <= 1e-12
        assert rel_err(s.cor_ns, s.cov_ns / math.sqrt(s.var_n * s.var_s)) <= 1e-12
        assert rel_err(
            s.cor_ns**2 / (s.phi * (1 - s.cor_ns**2)), s.j_squared
        ) <= 1e-10


def test_risk_summary_rejects_aggregate_variance_overflow():
    # E[X^2] is finite (about 7.5e304), but E[N] E[X^2] is not
    freq, sev = pair("lognormal", 350.0, 1e10, shape=1.0)
    with pytest.raises(ValueError, match="aggregate variance overflows"):
        sr.risk_summary(freq, sev, 1)


# --- one evaluation over an array of years ----------------------------------


def reference_summary(freq, sev, t):
    """One year's closed forms in Python floats, with libm's exp, expm1,
    pow and sqrt as a per-year evaluation computes them; the fields in
    RiskSummary order."""
    eta = freq.alpha0 + freq.alpha1 * t
    lam = math.exp(eta) if freq.link is sr.RateLink.LOG else eta
    mu = sev.beta0 + sev.beta1 * t
    family, shape = sev.family.value, sev.shape
    if family == "uniform":
        mean, var, j2 = 0.5 * mu, mu * mu / 12.0, 3.0
    elif family == "gamma":
        mean, var, j2 = shape * mu, shape * mu * mu, float(shape)
    elif family == "exponential":
        mean, var, j2 = mu, mu * mu, 1.0
    elif family == "lognormal":
        s2 = shape**2
        mean = math.exp(mu + 0.5 * s2)
        var = math.expm1(s2) * math.exp(2.0 * mu + s2)
        j2 = 1.0 / math.expm1(shape**2)
    else:
        xi = shape
        mean = 1.0 / (mu * (1.0 - xi))
        var = 1.0 / (mu * mu * (1.0 - xi) ** 2 * (1.0 - 2.0 * xi))
        j2 = 1.0 - 2.0 * xi
    var_s = lam * var + lam * mean**2
    cor = mean * math.sqrt(lam / var_s)
    return (t, lam, mean, lam * mean, lam, var, var_s, mean * lam, cor, 1.0, j2)


ARRAY_YEARS = 10**4
ARRAY_FREQUENCIES = {
    "log": dict(alpha0=0.4321, alpha1=2.345e-4, link="log"),
    "identity": dict(alpha0=3.217, alpha1=1.0713e-3, link="identity"),
}
ARRAY_SEVERITIES = {
    "uniform": dict(family="uniform", beta0=3.1, beta1=7.13e-4),
    "gamma": dict(family="gamma", beta0=2.03, beta1=3.17e-4, shape=1.5),
    "exponential": dict(family="exponential", beta0=2.5, beta1=-1.09e-4),
    "lognormal": dict(family="lognormal", beta0=0.57, beta1=1.13e-4, shape=0.8),
    "gpd-positive": dict(family="gpd", beta0=1.07, beta1=2.11e-4, shape=0.2),
    "gpd-zero": dict(family="gpd", beta0=1.07, beta1=2.11e-4, shape=0.0),
    "gpd-negative": dict(family="gpd", beta0=1.07, beta1=2.11e-4, shape=-0.3),
}


@pytest.mark.parametrize("link", ARRAY_FREQUENCIES)
@pytest.mark.parametrize("severity", ARRAY_SEVERITIES)
def test_array_of_years_has_the_bits_of_per_year_evaluation(link, severity):
    # libm's functions go over the years in chunks; cross a few boundaries
    assert ARRAY_YEARS > 2 * _EACH_CHUNK and ARRAY_YEARS % _EACH_CHUNK
    freq = sr.FrequencyModel(**ARRAY_FREQUENCIES[link])
    sev = sr.SeverityModel(**ARRAY_SEVERITIES[severity])
    years = np.arange(1, ARRAY_YEARS + 1)
    s = sr.risk_summary(freq, sev, years)
    reference = np.array([reference_summary(freq, sev, t) for t in range(1, ARRAY_YEARS + 1)])
    names = [f.name for f in fields(sr.RiskSummary)]
    assert np.array_equal(s.t, years)
    for k, name in enumerate(names[1:], start=1):
        got = np.asarray(getattr(s, name), dtype=np.float64)
        assert got.shape == years.shape, name
        assert np.array_equal(got.view(np.uint64), reference[:, k].view(np.uint64)), name
    assert s.var_n is s.e_n and s.cov_ns is s.e_s


def test_scalar_year_gives_python_floats():
    freq = sr.FrequencyModel(**ARRAY_FREQUENCIES["log"])
    sev = sr.SeverityModel(**ARRAY_SEVERITIES["lognormal"])
    s = sr.risk_summary(freq, sev, 7)
    assert s.t == 7 and s.phi == 1.0
    assert all(type(getattr(s, f.name)) is float for f in fields(s) if f.name != "t")
    assert s == sr.RiskSummary(*reference_summary(freq, sev, 7))


def test_scalar_year_past_int64_is_evaluated_as_a_float():
    # numpy holds such a year as a Python int in an object array
    freq = sr.FrequencyModel(**ARRAY_FREQUENCIES["identity"])
    sev = sr.SeverityModel(**ARRAY_SEVERITIES["gamma"])
    s = sr.risk_summary(freq, sev, 10**20)
    assert s == sr.RiskSummary(*reference_summary(freq, sev, 10**20))
    # where a model is unusable, the span check names the year as a float
    with pytest.raises(ValueError, match=r"^intensity moments at t=1e\+160 \(driver 3.17e\+156\)"):
        sr.risk_summary(freq, sev, 10**160)


def test_array_of_years_names_the_first_failing_year():
    # E[X^2] is about 7.5e304, so the aggregate variance overflows once
    # the rate 1000 + 100 t reaches 2400, at t = 14
    freq = sr.FrequencyModel(alpha0=1000.0, alpha1=100.0, link="identity")
    sev = sr.SeverityModel(family="lognormal", beta0=350.0, beta1=0.0, shape=1.0)
    with pytest.raises(ValueError) as scalar:
        sr.risk_summary(freq, sev, 14)
    with pytest.raises(ValueError) as array:
        sr.risk_summary(freq, sev, np.arange(1, 61))
    assert str(array.value) == str(scalar.value)
    assert str(array.value).startswith("aggregate variance overflows at t=14: rate 2400.0 ")
    # a rate 1000 - 100 t that reaches 0 at t = 10: the span check's message
    falling = sr.FrequencyModel(alpha0=1000.0, alpha1=-100.0, link="identity")
    for t in (10, np.arange(1, 61)):
        with pytest.raises(ValueError, match=r"^identity-link rate non-positive at t=10: "):
            sr.risk_summary(falling, sev, t)


def test_risk_summary_rejects_a_zero_aggregate_variance():
    # a usable rate of 5e-324 times E[X^2] = 0.02 underflows to 0
    freq = sr.FrequencyModel(alpha0=5e-324, alpha1=0.0, link="identity")
    sev = sr.SeverityModel(family="exponential", beta0=0.1, beta1=0.0)
    for t in (1, np.arange(1, 4)):
        with pytest.raises(ValueError, match="^zero variance; correlation undefined$"):
            sr.risk_summary(freq, sev, t)
