"""Shared helpers: relative error, randomized model generation, extreme
model coefficients for property tests and reading back the series CSV that ``analyze`` writes."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

import stormrisk as sr

FAMILIES = ("uniform", "gamma", "exponential", "lognormal", "gpd")

# Coefficients at the edges of double arithmetic: exp overflow (709.78)
# and underflow to 0 (-745.13), subnormals, +-1e308 and non-finite values,
# plus ordinary ones.
EXTREME_FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
         709.78, 709.79, -745.13, -745.14, 354.0, -372.0,
         1e308, -1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
    ),
    st.floats(-760.0, 720.0),
    st.floats(-1e-300, 1e-300),
    st.floats(),
)
HORIZONS = st.tuples(st.integers(-2, 3), st.integers(0, 30)).map(
    lambda h: (h[0], h[0] + h[1])
)


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def read_series(path) -> np.ndarray:
    """A series CSV as a structured array with one field per column;
    empty fields read as NaN."""
    return np.genfromtxt(path, delimiter=",", names=True, ndmin=1)


def random_severity(rng, family=None, horizon=(1, 60)) -> sr.SeverityModel:
    """A random valid severity model on the given horizon."""
    if family is None:
        family = FAMILIES[rng.integers(len(FAMILIES))]
    t_max = horizon[1]
    if family == "lognormal":
        beta0 = rng.uniform(-1.0, 2.0)
        beta1 = rng.uniform(-0.02, 0.02)
        shape = rng.uniform(0.2, 1.5)
    else:
        beta0 = rng.uniform(0.5, 20.0)
        # slope bounded so the driver stays above beta0 / 2 on the horizon
        beta1 = rng.uniform(-beta0 / (2 * t_max), beta0 / t_max)
        if family == "gamma":
            shape = rng.uniform(0.3, 5.0)
        elif family == "gpd":
            shape = rng.uniform(-1.0, 0.45)
        else:
            shape = None
    return sr.SeverityModel(
        family=family,
        beta0=beta0,
        beta1=beta1,
        horizon=horizon,
        shape=shape,
    )


def random_frequency(rng, horizon=(1, 60)) -> sr.FrequencyModel:
    """A random valid frequency model on the given horizon."""
    t_max = horizon[1]
    if rng.random() < 0.5:
        # keep the linear predictor non-negative so the rate stays >= 1,
        # inside the regime where every closed-form identity is in range
        alpha0 = rng.uniform(0.2, 3.0)
        alpha1 = rng.uniform(-alpha0 / (2 * t_max), alpha0 / t_max)
        return sr.FrequencyModel(
            alpha0=alpha0, alpha1=alpha1, link="log", horizon=horizon
        )
    alpha0 = rng.uniform(1.0, 40.0)
    alpha1 = rng.uniform(-alpha0 / (2 * t_max), alpha0 / t_max)
    return sr.FrequencyModel(
        alpha0=alpha0, alpha1=alpha1, link="identity", horizon=horizon
    )


def random_model_pair(rng, family=None, horizon=(1, 60)):
    """(frequency, severity, year index) with everything in range."""
    freq = random_frequency(rng, horizon)
    sev = random_severity(rng, family, horizon)
    t = int(rng.integers(horizon[0], horizon[1] + 1))
    return freq, sev, t


def stationary_config(family, *, lam, mu, shape=None, years=(1, 60), seed=0):
    """Simulation config with constant rate and constant severity scale."""
    n = years[1] - years[0] + 1
    freq = sr.FrequencyModel(alpha0=lam, alpha1=0.0, link="identity", horizon=(1, n))
    sev = sr.SeverityModel(
        family=family, beta0=mu, beta1=0.0, horizon=(1, n), shape=shape
    )
    return sr.SimulationConfig(freq=freq, sev=sev, years=years, seed=seed)
