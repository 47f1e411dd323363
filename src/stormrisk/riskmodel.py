"""Closed-form moments of the yearly aggregate S = X_1 + ... + X_N.

For a fixed year, the count N and the individual intensities X_i are
independent, and the X_i are i.i.d.  Under those assumptions:

* Wald's equation:          E[S] = E[N] E[X]
* Blackwell-Girshick:       Var(S) = E[N] Var(X) + Var(N) E[X]^2
* Poisson shortcut:         Var(S) = E[N] E[X^2]      (when Var(N) = E[N])
* count-sum covariance:     cov(N, S) = E[X] Var(N) = phi E[S]
* intensity-sum covariance: cov(X, S) = Var(X)
* count-sum correlation:    cor(N, S) = E[X] sqrt(Var(N) / Var(S))
                                      = sqrt(phi) E[X] / sqrt(Var(X) + phi E[X]^2)

where ``phi = Var(N) / E[N]`` is the dispersion ratio (1 for Poisson).
Eliminating the moments of X from the last identity yields

    rho^2 / (phi (1 - rho^2)) = E[X]^2 / Var(X) = J^2,

so the count-sum correlation is pinned down by the dispersion of the
counts and the shape (not the scale) of the severity distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frequency import FrequencyModel, _each, rate
from .severity import Family, SeverityModel, j_squared, severity_moments

__all__ = [
    "RiskSummary",
    "j_squared_from_correlation",
    "risk_summary",
    "table1_row",
]


@dataclass(frozen=True)
class RiskSummary:
    """All closed-form one-year moments for a frequency/severity pair:
    floats for one year, or aligned arrays over an array of years.

    Satisfies Wald (`e_s == e_n * e_x`), Blackwell-Girshick
    (`var_s == e_n * var_x + var_n * e_x**2`), the covariance identities
    (`cov_ns == e_x * var_n == phi * e_s`) and the correlation round
    trip (`cor_ns**2 / (phi * (1 - cor_ns**2)) == j_squared`).
    """

    t: float
    e_n: float
    e_x: float
    e_s: float
    var_n: float
    var_x: float
    var_s: float
    cov_ns: float
    cor_ns: float
    phi: float
    j_squared: float


def j_squared_from_correlation(rho: float, phi: float) -> float:
    """Invert the correlation identity: rho^2 / (phi (1 - rho^2)) = J^2.

    Given a count-sum correlation and a dispersion ratio, returns the
    implied squared mean-to-sd ratio of the severity distribution.
    """
    if not 0 < rho < 1:
        raise ValueError(f"rho must lie strictly in (0, 1), got {rho}")
    if phi <= 0:
        raise ValueError(f"phi must be positive, got {phi}")
    return rho**2 / (phi * (1.0 - rho**2))


def risk_summary(freq: FrequencyModel, sev: SeverityModel, t) -> RiskSummary:
    """Fully populated :class:`RiskSummary` at year ``t`` (a one-year
    array, unwrapped to Python floats), or over a 1-D integer array of
    years, with each year's bits those of its own call.

    Evaluates the rate and the intensity moments once, after the span
    checks of `rate` and `severity_moments` over ``t``'s first and last
    year, which raise where a model is unusable.  The aggregate
    variance is the Blackwell-Girshick form with ``Var(N) = E[N]``; the
    tests check it against the Poisson shortcut and the dispersion form.
    Raises ValueError at the first year whose aggregate variance is zero
    or overflows; a finite ``var_s`` bounds ``e_s`` and ``cov_ns`` too.
    numpy's ``exp`` and ``x**2`` (a multiply) differ from libm's ``exp``
    and ``pow`` in the last bit on some inputs, so those two come from
    libm per element; ``+ - * /`` and ``sqrt`` round alike.
    """
    years = np.atleast_1d(t)
    if years.dtype == object:  # a Python int past int64, evaluated as a float
        years = years.astype(np.float64)
    lam = rate(freq, years)
    m = severity_moments(sev, years)
    # var_s may overflow, and lam / var_s where var_s is subnormal
    with np.errstate(over="ignore"):
        var_s = lam * m.variance + lam * _each(lambda v: v**2, m.mean)
        bad = np.flatnonzero((var_s <= 0) | (m.variance <= 0) | ~np.isfinite(var_s))
        if len(bad):
            i = bad[0]
            if var_s[i] <= 0 or m.variance[i] <= 0:
                raise ValueError("zero variance; correlation undefined")
            raise ValueError(
                f"aggregate variance overflows at t={years.item(i)}: rate "
                f"{lam.item(i)} times E[X^2] {m.second_moment.item(i)}"
            )
        cor_ns = m.mean * np.sqrt(lam / var_s)
        # lam / var_s overflows where var_s is subnormal: there take the
        # square roots apart, so every finite cor_ns keeps its bits
        inf = ~np.isfinite(cor_ns)
        cor_ns[inf] = np.sqrt(lam[inf]) * m.mean[inf] / np.sqrt(var_s[inf])
    e_s = lam * m.mean
    summary = {
        "e_n": lam,
        "e_x": m.mean,
        "e_s": e_s,
        "var_n": lam,
        "var_x": m.variance,
        "var_s": var_s,
        "cov_ns": e_s,  # E[X] Var(N); lam * E[X] has the bits of E[X] * lam
        "cor_ns": cor_ns,
        "phi": np.broadcast_to(1.0, years.shape),  # Var(N) = E[N]
        "j_squared": np.broadcast_to(j_squared(sev), years.shape),
    }
    if not isinstance(t, np.ndarray):
        summary = {name: v.item() for name, v in summary.items()}
    return RiskSummary(t=t, **summary)


def table1_row(
    family: Family | str,
    mu: float,
    lam: float,
    shape: float | None = None,
) -> RiskSummary:
    """Summary for a stationary model with scale driver ``mu`` and
    Poisson rate ``lam``, one row per severity family.

    Reference values at unit parameters: exponential gives
    (e_s, var_s, cor_ns, j_squared) = (mu*lam, 2*lam*mu^2, sqrt(2)/2, 1);
    uniform has cor sqrt(3)/2 and J^2 = 3; gamma J^2 = theta; lognormal
    cor exp(-s^2/2); gpd cor sqrt((1-2xi)/(2-2xi)).
    """
    sev = SeverityModel(family=Family(family), beta0=mu, beta1=0.0, shape=shape)
    freq = FrequencyModel(alpha0=lam, alpha1=0.0, link="identity")
    return risk_summary(freq, sev, 1)
