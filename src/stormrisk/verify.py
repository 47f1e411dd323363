"""Monte Carlo verification of the closed forms at one year.

A fixed-year replicate ensemble is compared with the closed-form
:class:`~stormrisk.riskmodel.RiskSummary` of the same year: eight
statistics, each against one summary field.  Standard errors come from
batch means: the replicates are split into independent batches, the
statistic is computed per batch, and the spread of the batch values
estimates the sampling error of the pooled statistic.  A check passes
when its estimate lies within ``sigma`` standard errors of its target;
the tolerance is per check, with no multiple-comparison adjustment.
"""

from __future__ import annotations

import math

import numpy as np

from .riskmodel import RiskSummary, j_squared_from_correlation
from .simulate import FixedYearSample

__all__ = ["verification_checks"]


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
    """Covariance of the first mark with the sum, over replicates with
    at least one event."""
    mask = ~np.isnan(x1)
    if mask.sum() < 2:
        return math.nan
    x1, s = x1[mask], s[mask]
    return float(np.mean(x1 * s) - np.mean(x1) * np.mean(s))


def _j_round_trip(n, s, x1):
    """J^2 implied by the sample correlation and dispersion."""
    rho = _cor_ns(n, s, x1)
    mean_n = np.mean(n)
    if math.isnan(rho) or not 0 < rho < 1 or mean_n <= 0:
        return math.nan
    return j_squared_from_correlation(rho, float(np.var(n) / mean_n))


# (check name, statistic of (counts, sums, first marks), RiskSummary field)
_CHECKS = (
    ("mean count", _mean_n, "e_n"),
    ("count variance", _var_n, "var_n"),
    ("mean aggregate (Wald)", _mean_s, "e_s"),
    ("aggregate variance (Blackwell-Girshick)", _var_s, "var_s"),
    ("count-aggregate covariance", _cov_ns, "cov_ns"),
    ("count-aggregate correlation", _cor_ns, "cor_ns"),
    ("intensity-aggregate covariance", _cov_xs, "var_x"),
    ("correlation-dispersion round trip", _j_round_trip, "j_squared"),
)


def _batch_se(batches, statistic) -> float:
    vals = [statistic(*b) for b in batches]
    vals = [v for v in vals if not math.isnan(v)]
    if len(vals) < 2:
        return math.nan
    return float(np.std(vals, ddof=1) / math.sqrt(len(vals)))


def verification_checks(
    sample: FixedYearSample, summary: RiskSummary, sigma: float
) -> list[dict]:
    """One dict per check: name, estimate, target, batch-means standard
    error ``se`` and ``passed``.

    A check with an undefined estimate or standard error fails; one with
    a zero standard error passes only on an exact match.
    """
    full = (sample.counts.astype(np.float64), sample.sums, sample.first_marks)
    n_batches = min(100, len(sample) // 10)
    idx = np.array_split(np.arange(len(sample)), n_batches)
    batches = [tuple(a[i] for a in full) for i in idx]
    checks = []
    for name, statistic, field in _CHECKS:
        estimate = statistic(*full)
        target = getattr(summary, field)
        se = _batch_se(batches, statistic)
        if math.isnan(estimate) or math.isnan(se):
            passed = False
        elif se == 0.0:
            passed = estimate == target
        else:
            passed = abs(estimate - target) <= sigma * se
        checks.append(
            {
                "name": name,
                "estimate": estimate,
                "target": float(target),
                "se": se,
                "passed": bool(passed),
            }
        )
    return checks
