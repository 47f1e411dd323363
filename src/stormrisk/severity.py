"""Severity distributions for event intensities.

Five distribution families describe the intensity of a single event in
year ``t``.  Each family is driven by a linear trend ``mu_t = beta0 +
beta1 * t`` on its scale parameter, plus an optional time-constant shape
parameter:

==============  ==========================  =====================
family          distribution of X at t      shape parameter
==============  ==========================  =====================
uniform         Uniform(0, mu_t)            (none)
gamma           Gamma(theta, scale mu_t)    theta > 0
exponential     Exponential(mean mu_t)      (none)
lognormal       log X ~ Normal(mu_t, s^2)   s > 0 (log-scale sd)
gpd             GPD(0, scale 1/mu_t, xi)    xi < 1/2
==============  ==========================  =====================

Note the GPD scale is the reciprocal of the driver, so its mean falls as
``mu_t`` grows; the threshold is fixed at zero.  For the lognormal
family ``mu_t`` is the log-scale location and may take any real value;
for all other families the driver must stay strictly positive over the
model's declared horizon, which is validated at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .frequency import _check_horizon, _exp, _horizon_bounds

__all__ = [
    "Family",
    "Moments",
    "SeverityModel",
    "severity_moments",
    "j_squared",
    "sample_intensity",
]


class Family(str, Enum):
    """Supported severity distribution families."""

    UNIFORM = "uniform"
    GAMMA = "gamma"
    EXPONENTIAL = "exponential"
    LOGNORMAL = "lognormal"
    GPD = "gpd"


#: Families whose scale driver must be strictly positive.  The lognormal
#: driver is a log-scale location and is exempt.
_POSITIVE_DRIVER = frozenset(
    {Family.UNIFORM, Family.GAMMA, Family.EXPONENTIAL, Family.GPD}
)

_SHAPED = frozenset({Family.GAMMA, Family.LOGNORMAL, Family.GPD})


@dataclass(frozen=True)
class Moments:
    """First two moments of a severity distribution at a fixed year, or
    aligned arrays of them over several years.

    ``variance == second_moment - mean**2`` holds by construction.
    """

    mean: float
    variance: float
    second_moment: float

    def __post_init__(self) -> None:
        low = np.min(self.variance).item()
        if low < 0:
            raise ValueError(f"variance must be non-negative, got {low}")


@dataclass(frozen=True, kw_only=True)
class SeverityModel:
    """Immutable severity model: family, linear trend ``beta0 + beta1 * t``
    on the scale driver, horizon and shape.

    ``horizon`` is the closed interval of year indices ``[t_min, t_max]``
    over which the model is valid.  Construction fails if the trend
    driver is non-positive anywhere on the horizon (lognormal excepted)
    or if the shape parameter is out of range for the family.
    """

    family: Family
    beta0: float
    beta1: float
    horizon: tuple[float, float]
    shape: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        t_min, t_max = _horizon_bounds(self.horizon)

        fam = self.family
        if fam in _SHAPED:
            if self.shape is None:
                raise ValueError(f"{fam.value} family requires a shape parameter")
            if not math.isfinite(self.shape):
                raise ValueError(f"shape must be finite, got {self.shape}")
            if fam is Family.GAMMA and self.shape <= 0:
                raise ValueError(f"gamma shape must be > 0, got {self.shape}")
            if fam is Family.LOGNORMAL and self.shape <= 0:
                # shape == 0 would be a degenerate point mass; reject here
                # rather than special-case zero variance downstream.
                raise ValueError(f"lognormal log-sd must be > 0, got {self.shape}")
            if fam is Family.GPD and self.shape >= 0.5:
                raise ValueError(
                    f"gpd shape must be < 0.5 for finite variance, got {self.shape}"
                )
        elif self.shape is not None:
            raise ValueError(f"{fam.value} family takes no shape parameter")

        # The driver is linear in t and every family's moments are
        # monotone in the driver, so checks at both endpoints cover the
        # whole interval.
        for t in (t_min, t_max):
            mu = self.beta0 + self.beta1 * t
            if fam in _POSITIVE_DRIVER and mu <= 0:
                raise ValueError(
                    f"scale driver is non-positive at t={t}: "
                    f"{self.beta0} + {self.beta1}*{t} = {mu}"
                )
            try:
                m = _moments(self, mu)
                usable = math.isfinite(m.second_moment) and m.variance > 0
            except (OverflowError, ZeroDivisionError):
                usable = False
            if not usable:
                raise ValueError(
                    f"intensity moments at t={t} (driver {mu}) are not finite "
                    f"with positive variance"
                )

    def driver(self, t):
        """Driver ``mu_t`` at a year or an array of years; raises outside the horizon."""
        _check_horizon(self.horizon, t)
        return self.beta0 + self.beta1 * t


def severity_moments(model: SeverityModel, t) -> Moments:
    """Mean, variance and second moment of the intensity at year ``t``,
    or elementwise over a 1-D array of years (``exp`` as in `_exp`).

    Closed forms per family (mu = driver at t, shape as in the table):

    * uniform:      mean mu/2,                  var mu^2/12
    * gamma:        mean theta*mu,              var theta*mu^2
    * exponential:  mean mu,                    var mu^2
    * lognormal:    mean exp(mu + s^2/2),       var (e^{s^2}-1) exp(2mu + s^2)
    * gpd:          mean 1/(mu(1-xi)),          var 1/(mu^2 (1-xi)^2 (1-2xi))
    """
    return _moments(model, model.driver(t))


def _moments(model: SeverityModel, mu: float) -> Moments:
    fam = model.family
    if fam is Family.UNIFORM:
        mean = 0.5 * mu
        var = mu * mu / 12.0
    elif fam is Family.GAMMA:
        theta = model.shape
        mean = theta * mu
        var = theta * mu * mu
    elif fam is Family.EXPONENTIAL:
        mean = mu
        var = mu * mu
    elif fam is Family.LOGNORMAL:
        s2 = model.shape**2
        mean = _exp(mu + 0.5 * s2)
        var = math.expm1(s2) * _exp(2.0 * mu + s2)
    else:  # GPD
        xi = model.shape
        mean = 1.0 / (mu * (1.0 - xi))
        var = 1.0 / (mu * mu * (1.0 - xi) ** 2 * (1.0 - 2.0 * xi))
    return Moments(mean=mean, variance=var, second_moment=var + mean * mean)


def j_squared(model: SeverityModel) -> float:
    """Squared mean-to-standard-deviation ratio, E[X]^2 / Var(X).

    This is the square of the reciprocal coefficient of variation.  It
    depends only on the family's shape parameter, never on the trend or
    the year: uniform 3, gamma theta, exponential 1, lognormal
    1/(e^{s^2} - 1), gpd 1 - 2*xi.
    """
    fam = model.family
    if fam is Family.UNIFORM:
        return 3.0
    if fam is Family.GAMMA:
        return float(model.shape)
    if fam is Family.EXPONENTIAL:
        return 1.0
    if fam is Family.LOGNORMAL:
        return 1.0 / math.expm1(model.shape**2)
    return 1.0 - 2.0 * model.shape  # GPD


def _uniform_ppf(u, mu):
    return mu * u


def _exponential_ppf(u, mu):
    # -mu * log(1 - u); log1p keeps precision near u = 0
    return -mu * np.log1p(-u)


def _gpd_ppf(u, scale, xi):
    # Near xi = 0, (1 - u)^(-xi) - 1 cancels: a median 5-9 ulps off at
    # |xi| 0.05, all digits at 1e-17.  -L expm1(y) / y, with expm1(y) / y
    # taken as 1 at y = 0, stays within 2 ulps; from 0.05 on the first
    # form keeps its bits.
    if abs(xi) < 0.05:
        L = np.log1p(-u)
        y = -xi * L
        return scale * -L * np.divide(np.expm1(y), y, out=np.ones_like(y), where=y != 0)
    return (scale / xi) * (np.power(1.0 - u, -xi) - 1.0)


#: Families sampled by the inverse CDF of one uniform draw per mark.
_INVERSE_CDF = frozenset({Family.UNIFORM, Family.EXPONENTIAL, Family.GPD})


def _inverse_cdf(model: SeverityModel, u: np.ndarray, mu) -> np.ndarray:
    """Intensities at uniforms ``u`` for a family in ``_INVERSE_CDF``.

    ``mu`` is the driver: one float, or an array aligned with ``u``.
    Every step is elementwise, so one pass over several years' draws,
    with each year's driver repeated per draw, gives the bits of one
    pass per year as long as numpy's ``log1p`` and ``power`` do not
    depend on an element's place in the array (tests check that).
    """
    fam = model.family
    if fam is Family.UNIFORM:
        return _uniform_ppf(u, mu)
    if fam is Family.EXPONENTIAL:
        return _exponential_ppf(u, mu)
    return _gpd_ppf(u, 1.0 / mu, model.shape)  # GPD, scale 1/mu


def sample_intensity(
    model: SeverityModel, t: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw ``size`` intensities from the year-``t`` distribution.

    Draws are deterministic given the generator state.  Uniform,
    exponential and GPD use the inverse CDF; gamma uses the generator's
    rejection sampler; lognormal exponentiates a normal draw.
    """
    mu = model.driver(t)
    fam = model.family
    if fam in _INVERSE_CDF:
        return _inverse_cdf(model, rng.random(size=size), mu)
    if fam is Family.GAMMA:
        return rng.gamma(model.shape, scale=mu, size=size)
    return rng.lognormal(mean=mu, sigma=model.shape, size=size)
