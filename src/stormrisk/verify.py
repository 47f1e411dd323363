"""Monte Carlo verification of the closed forms at one year.

`verification_checks` checks a config's rules, draws a fixed-year
replicate ensemble and compares it with the closed-form
:class:`~stormrisk.riskmodel.RiskSummary` of the same year: eight
statistics, each against one summary field, computed together by
`_statistics`.  Standard errors come from batch means: the replicates
are split into 100 contiguous batches of at least 10, the eight
statistics are computed per batch, and the spread of the batch values
estimates the sampling error of the pooled statistic.  A check passes
when its estimate lies within ``sigma`` standard errors of its target;
the tolerance is per check, with no multiple-comparison adjustment.
"""

from __future__ import annotations

import math

import numpy as np

from . import riskmodel, simulate
from .catalog import _integer
from .riskmodel import j_squared_from_correlation

__all__ = ["verification_checks"]

# (check name, RiskSummary field), in the order `_statistics` returns them
_CHECKS = (
    ("mean count", "e_n"),
    ("count variance", "var_n"),
    ("mean aggregate (Wald)", "e_s"),
    ("aggregate variance (Blackwell-Girshick)", "var_s"),
    ("count-aggregate covariance", "cov_ns"),
    ("count-aggregate correlation", "cor_ns"),
    ("intensity-aggregate covariance", "var_x"),
    ("correlation-dispersion round trip", "j_squared"),
)


def _statistics(n, s, x1) -> tuple[float, ...]:
    """The statistics of `_CHECKS` of counts, sums and first marks.  The
    intensity-aggregate covariance is over the replicates with at least
    one event; the round trip is the J^2 that the correlation and the
    dispersion imply."""
    mean_n, var_n, mean_s, var_s = np.mean(n), np.var(n), np.mean(s), np.var(s)
    cov_ns = float(np.mean(n * s) - mean_n * mean_s)
    # 0.0 also when the product of two positive variances underflows
    product = var_n * var_s
    cor_ns = cov_ns / math.sqrt(product) if product > 0 else math.nan
    marked = ~np.isnan(x1)
    if marked.sum() < 2:
        cov_xs = math.nan
    else:
        x1, s1 = x1[marked], s[marked]
        cov_xs = float(np.mean(x1 * s1) - np.mean(x1) * np.mean(s1))
    if math.isnan(cor_ns) or not 0 < cor_ns < 1 or mean_n <= 0:
        j_squared = math.nan
    else:
        j_squared = j_squared_from_correlation(cor_ns, float(var_n / mean_n))
    moments = float(mean_n), float(var_n), float(mean_s), float(var_s)
    return (*moments, cov_ns, cor_ns, cov_xs, j_squared)


def _batch_se(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    if len(values) < 2:
        return math.nan
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def verification_checks(
    config: simulate.SimulationConfig, replicates: int, sigma: float = 4.0, t: int | None = None
) -> tuple[int, list[dict]]:
    """The year index ``t`` (default: mid-horizon) and one dict per check
    of ``replicates`` draws there: name, estimate, target, batch-means
    standard error ``se`` and ``passed``.  A check whose estimate, target
    or se is not finite fails; one with a zero se passes only on an exact
    match.  Before any work: ``replicates`` an integer of at least 1000,
    ``sigma`` positive and finite, ``t`` an integer in ``[1, n_years]``.
    """
    replicates = _integer(replicates, "replicates")
    if replicates < 1000:
        raise ValueError(
            f"replicates: need at least 1000 for stable standard errors, got {replicates}"
        )
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma: must be positive and finite, got {sigma}")
    t = (1 + config.n_years) // 2 if t is None else simulate._year_index(config, t)
    # through the modules, whose attributes a tracer may replace
    summary = riskmodel.risk_summary(config.freq, config.sev, t)
    sample = simulate.replicate_fixed_year(config, t, replicates)
    return t, _checks(sample, summary, sigma)


def _checks(
    sample: simulate.FixedYearSample, summary: riskmodel.RiskSummary, sigma: float
) -> list[dict]:
    """`verification_checks` on a sample of ``n >= 20`` replicates, in
    ``min(100, n // 10)`` batches: 100 at the 1000 or more that
    `verification_checks` takes."""
    full = (sample.counts.astype(np.float64), sample.sums, sample.first_marks)
    n_batches = min(100, len(sample) // 10)
    batches = zip(*(np.array_split(a, n_batches) for a in full))
    with np.errstate(all="ignore"):
        estimates = _statistics(*full)
        ses = [_batch_se(v) for v in zip(*(_statistics(*b) for b in batches))]
    checks = []
    for (name, field), estimate, se in zip(_CHECKS, estimates, ses):
        target = float(getattr(summary, field))
        if not (math.isfinite(estimate) and math.isfinite(target) and math.isfinite(se)):
            passed = False
        elif se == 0.0:
            passed = estimate == target
        else:
            passed = abs(estimate - target) <= sigma * se
        checks.append(dict(name=name, estimate=estimate, target=target, se=se, passed=bool(passed)))
    return checks
