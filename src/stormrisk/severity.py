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
for all other families the driver must be strictly positive.  A model
holds no years.  `_check_span` checks the driver's sign and the moments
(finite, with positive variance) over a span of years:
`~stormrisk.simulate.SimulationConfig` runs it once over a run's years,
and `severity_moments` over the years it is given.
`SeverityModel.driver`, and so `sample_intensity`, checks only the sign,
all a draw needs, which keeps a catalog's per-year draws cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .catalog import _member, _real
from .frequency import _ends, _exp

__all__ = [
    "Family",
    "Moments",
    "SeverityModel",
    "severity_moments",
    "j_squared",
    "sample_intensity",
]


class Family(str, Enum):
    """Supported severity distribution families, named by their values in
    any case."""

    UNIFORM = "uniform"
    GAMMA = "gamma"
    EXPONENTIAL = "exponential"
    LOGNORMAL = "lognormal"
    GPD = "gpd"

    @classmethod
    def _missing_(cls, value):
        folded = value.lower() if isinstance(value, str) else None
        return next((member for member in cls if member.value == folded), None)


# The members under module names: `Family.GAMMA` is a class-attribute
# lookup of about 100 ns, a global about 15 ns, and `sample_intensity`
# and `_moments` test the family on every per-year draw.
_UNIFORM, _GAMMA, _EXPONENTIAL, _LOGNORMAL, _GPD = Family

#: Families whose scale driver must be strictly positive.  The lognormal
#: driver is a log-scale location and is exempt.
_POSITIVE_DRIVER = frozenset(
    {_UNIFORM, _GAMMA, _EXPONENTIAL, _GPD}
)

_SHAPED = frozenset({_GAMMA, _LOGNORMAL, _GPD})


@dataclass(frozen=True)
class Moments:
    """First two moments of a severity distribution at a fixed year, or
    aligned arrays of them over several years.

    ``variance == second_moment - mean**2`` holds by construction.
    """

    mean: float
    variance: float
    second_moment: float


@dataclass(frozen=True, kw_only=True)
class SeverityModel:
    """Immutable severity model: family, linear trend ``beta0 + beta1 * t``
    on the scale driver, and shape.

    Construction checks the parameters: ``family`` a `Family` or its
    value in any case, ``beta0``, ``beta1`` and a given ``shape`` finite
    real numbers, held as Python floats, and the shape in range for the
    family.  The years at which the model is usable (a positive driver,
    lognormal excepted, and finite moments with positive variance) are
    checked where it is used, by `_check_span`.
    """

    family: Family
    beta0: float
    beta1: float
    shape: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", _member(Family, self.family, "family"))
        for name in ("beta0", "beta1"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if self.shape is not None:
            object.__setattr__(self, "shape", _real(self.shape, "shape"))
        fam = self.family
        if fam in _SHAPED:
            if self.shape is None:
                raise ValueError(f"shape: {fam.value} family requires a shape parameter")
            if fam is _GAMMA and self.shape <= 0:
                raise ValueError(f"shape: gamma shape must be > 0, got {self.shape}")
            if fam is _LOGNORMAL and self.shape <= 0:
                # shape == 0 would be a degenerate point mass; reject here
                # rather than special-case zero variance downstream.
                raise ValueError(f"shape: lognormal log-sd must be > 0, got {self.shape}")
            if fam is _GPD and self.shape >= 0.5:
                raise ValueError(
                    f"shape: gpd shape must be < 0.5 for finite variance, got {self.shape}"
                )
        elif self.shape is not None:
            raise ValueError(f"shape: {fam.value} family takes no shape parameter")

    def driver(self, t):
        """Driver ``mu_t`` at a year or a 1-D array of years.  Raises where
        it is non-positive (lognormal excepted), at ``t``'s first or last
        year, the driver rule of `_check_span`; the moments rule is checked
        where moments are computed.  Linear in t, so the ends decide."""
        if not isinstance(t, np.ndarray):
            return _driver(self, t)
        for end in _ends(t) or ():
            _driver(self, end)
        return self.beta0 + self.beta1 * t


def _driver(model: SeverityModel, t) -> float:
    """The driver at one year ``t``, checked to be positive (lognormal excepted)."""
    mu = model.beta0 + model.beta1 * t
    if mu <= 0 and model.family in _POSITIVE_DRIVER:
        raise ValueError(
            f"scale driver is non-positive at t={t}: {model.beta0} + {model.beta1}*{t} = {mu}"
        )
    return mu


def _check_span(model: SeverityModel, t_min, t_max) -> None:
    """Raise unless, at every year of ``[t_min, t_max]``, the driver is
    positive (lognormal excepted) and the moments are finite with positive
    variance.  The driver is linear in t and every family's moments are
    monotone in the driver, so the two ends decide."""
    for t in (t_min, t_max):
        mu = _driver(model, t)
        try:
            m = _moments(model, mu)
            usable = math.isfinite(m.second_moment) and m.variance > 0
        except (OverflowError, ZeroDivisionError):
            usable = False
        if not usable:
            raise ValueError(
                f"intensity moments at t={t} (driver {mu}) are not finite "
                f"with positive variance"
            )


def severity_moments(model: SeverityModel, t) -> Moments:
    """Mean, variance and second moment of the intensity at year ``t``,
    or elementwise over a 1-D array of years (``exp`` as in `_exp`).

    Closed forms per family (mu = driver at t, shape as in the table):

    * uniform:      mean mu/2,                  var mu^2/12
    * gamma:        mean theta*mu,              var theta*mu^2
    * exponential:  mean mu,                    var mu^2
    * lognormal:    mean exp(mu + s^2/2),       var (e^{s^2}-1) exp(2mu + s^2)
    * gpd:          mean 1/(mu(1-xi)),          var 1/(mu^2 (1-xi)^2 (1-2xi))

    Raises where the moments are unusable (`_check_span` over ``t``'s
    first and last year).
    """
    if (ends := _ends(t)) is not None:
        _check_span(model, *ends)
    return _moments(model, model.driver(t))


def _moments(model: SeverityModel, mu: float) -> Moments:
    fam = model.family
    if fam is _UNIFORM:
        mean = 0.5 * mu
        var = mu * mu / 12.0
    elif fam is _GAMMA:
        theta = model.shape
        mean = theta * mu
        var = theta * mu * mu
    elif fam is _EXPONENTIAL:
        mean = mu
        var = mu * mu
    elif fam is _LOGNORMAL:
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
    if fam is _UNIFORM:
        return 3.0
    if fam is _GAMMA:
        return float(model.shape)
    if fam is _EXPONENTIAL:
        return 1.0
    if fam is _LOGNORMAL:
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
_INVERSE_CDF = frozenset({_UNIFORM, _EXPONENTIAL, _GPD})


def _inverse_cdf(model: SeverityModel, u: np.ndarray, mu) -> np.ndarray:
    """Intensities at uniforms ``u`` for a family in ``_INVERSE_CDF``.

    ``mu`` is the driver: one float, or an array aligned with ``u``.
    Every step is elementwise, so one pass over several years' draws,
    with each year's driver repeated per draw, gives the bits of one
    pass per year as long as numpy's ``log1p`` and ``power`` do not
    depend on an element's place in the array (tests check that).
    """
    fam = model.family
    if fam is _UNIFORM:
        return _uniform_ppf(u, mu)
    if fam is _EXPONENTIAL:
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
    if fam is _GAMMA:
        return rng.gamma(model.shape, scale=mu, size=size)
    return rng.lognormal(mean=mu, sigma=model.shape, size=size)
