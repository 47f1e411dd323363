"""Empirical estimators over event catalogs.

Long-run (expanding in time) estimates of the mean count, mean
aggregate and mean intensity, the dispersion ratio of the counts, the
count-aggregate correlation with Fisher-transform confidence intervals,
and a few diagnostics (count/intensity independence, active-season
classification, the subtract-one dispersion index).

Conventions
-----------
* All long-run variance estimators use the population form (divide by
  the number of years), matching the expanding-average definitions of
  the other long-run quantities.  The one exception is
  :func:`season_activity`, whose threshold reads as a distributional
  standard deviation and uses the sample form (divide by n - 1).
* Undefined values (too few years, zero variance, no events yet) are
  reported as NaN in series output and serialised as empty CSV fields;
  they are never silently replaced by zeros.
* The confidence intervals assume i.i.d. bivariate-normal pairs, which
  yearly counts and sums only approximate; treat them as a guide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .catalog import EventCatalog

__all__ = [
    "LongRunSeries",
    "CorrelationSeries",
    "SeasonActivity",
    "long_run_series",
    "expanding_correlation",
    "moving_window_correlation",
    "with_window_correlation",
    "fisher_interval",
    "nx_independence",
    "season_activity",
    "mailier_index",
]

# Variances at or below this fraction of the second moment are treated
# as exact zeros (degenerate, correlation undefined).
_ZERO_VAR_RTOL = 1e-12


class SeasonActivity(str, Enum):
    ACTIVE = "active"
    INACTIVE = "inactive"


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class LongRunSeries:
    """Expanding-in-time estimates, one row per cutoff year.

    At cutoff year ``years[i]`` (the first ``i + 1`` catalog years):

    * ``e_n``: mean yearly count
    * ``e_s``: mean yearly aggregate
    * ``e_x``: mean intensity pooled over all events so far (NaN until
      the first event); satisfies ``e_n * e_x == e_s`` exactly
    * ``phi``: population variance of the counts over their mean
    * ``rho``, ``rho_lo``, ``rho_hi``: Pearson correlation of the
      (count, aggregate) pairs and its approximate confidence bounds
    * ``j2phi``: ``phi`` times the square of the pooled shape ratio
      ``e_x**2 / var_x``, the long-run diagnostic matched against its
      model value by the verification suite
    """

    years: np.ndarray
    e_n: np.ndarray
    e_s: np.ndarray
    e_x: np.ndarray
    phi: np.ndarray
    rho: np.ndarray
    rho_lo: np.ndarray
    rho_hi: np.ndarray
    j2phi: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.years)
        for name in self.column_names():
            a = getattr(self, name)
            if len(a) != n:
                raise ValueError(f"column {name} has length {len(a)}, expected {n}")
            _frozen(a)

    @staticmethod
    def column_names() -> tuple[str, ...]:
        return ("years", "e_n", "e_s", "e_x", "phi", "rho", "rho_lo", "rho_hi", "j2phi")

    def __len__(self) -> int:
        return len(self.years)


@dataclass(frozen=True, eq=False)
class CorrelationSeries:
    """Pearson correlation of yearly (count, aggregate) pairs with
    approximate confidence bounds, one row per cutoff or window end."""

    years: np.ndarray
    rho: np.ndarray
    rho_lo: np.ndarray
    rho_hi: np.ndarray

    def __post_init__(self) -> None:
        for name in ("years", "rho", "rho_lo", "rho_hi"):
            _frozen(getattr(self, name))

    def __len__(self) -> int:
        return len(self.years)


def _normal_quantile(p: float) -> float:
    """Standard normal quantile.  SciPy is imported on first use: it is
    most of the package's import time, and only the intervals need it."""
    from scipy.stats import norm

    return float(norm.ppf(p))


def fisher_interval(rho: float, n: int, level: float = 0.95) -> tuple[float, float]:
    """Approximate confidence interval for a Pearson correlation.

    Transforms to z = atanh(rho), adds normal-quantile multiples of the
    standard deviation 1/sqrt(n - 3), and maps back through tanh.
    Exact only for i.i.d. bivariate-normal pairs.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"|rho| must be < 1 for a Fisher interval, got {rho}")
    if n <= 3:
        raise ValueError(f"need at least 4 pairs, got {n}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    q = _normal_quantile(0.5 * (1.0 + level))
    half_width = q / math.sqrt(n - 3)
    z = math.atanh(rho)
    return math.tanh(z - half_width), math.tanh(z + half_width)


def _fisher_bounds_array(
    rho: np.ndarray, n: np.ndarray, level: float
) -> tuple[np.ndarray, np.ndarray]:
    q = _normal_quantile(0.5 * (1.0 + level))
    with np.errstate(invalid="ignore", divide="ignore"):
        ok = np.isfinite(rho) & (np.abs(rho) < 1.0) & (n >= 4)
        z = np.where(ok, np.arctanh(np.where(ok, rho, 0.0)), np.nan)
        hw = q / np.sqrt(np.maximum(n - 3, 1))
        lo = np.where(ok, np.tanh(z - hw), np.nan)
        hi = np.where(ok, np.tanh(z + hw), np.nan)
    return lo, hi


def _pearson_from_sums(t, sn, ss, snn, sss, sns):
    """Pearson correlation from running sums; NaN where degenerate."""
    with np.errstate(invalid="ignore", divide="ignore"):
        mn = sn / t
        ms = ss / t
        var_n = snn / t - mn**2
        var_s = sss / t - ms**2
        cov = sns / t - mn * ms
        degenerate = (var_n <= _ZERO_VAR_RTOL * (snn / t)) | (
            var_s <= _ZERO_VAR_RTOL * (sss / t)
        )
        rho = np.where(degenerate, np.nan, cov / np.sqrt(var_n * var_s))
    return np.clip(rho, -1.0, 1.0)


def _expanding_rho(counts: np.ndarray, sums: np.ndarray) -> np.ndarray:
    t = np.arange(1, len(counts) + 1, dtype=np.float64)
    n = counts.astype(np.float64)
    rho = _pearson_from_sums(
        t,
        np.cumsum(n),
        np.cumsum(sums),
        np.cumsum(n * n),
        np.cumsum(sums * sums),
        np.cumsum(n * sums),
    )
    rho[: min(2, len(rho))] = np.nan  # need at least 3 pairs
    return rho


def long_run_series(catalog: EventCatalog, ci_level: float = 0.95) -> LongRunSeries:
    """Expanding estimates over the catalog, one row per cutoff year.

    Computed in a single pass from cumulative sums of the per-year
    counts, sums, squares and cross-products plus the per-event squared
    intensities.
    """
    if not 0.0 < ci_level < 1.0:
        raise ValueError(f"ci_level must lie in (0, 1), got {ci_level}")
    T = catalog.n_years
    t = np.arange(1, T + 1, dtype=np.float64)
    n = catalog.counts.astype(np.float64)
    s = catalog.sums

    cum_n = np.cumsum(n)
    cum_s = np.cumsum(s)
    e_n = cum_n / t
    e_s = cum_s / t

    with np.errstate(invalid="ignore", divide="ignore"):
        e_x = np.where(cum_n > 0, cum_s / cum_n, np.nan)
        var_n = np.maximum(np.cumsum(n * n) / t - e_n**2, 0.0)
        phi = np.where(e_n > 0, var_n / e_n, np.nan)

        # pooled intensity moments over all events up to each cutoff
        offsets = (catalog.event_years - catalog.start_year).astype(np.intp)
        x2_by_year = np.bincount(offsets, weights=catalog.intensities**2, minlength=T)
        cum_x2 = np.cumsum(x2_by_year)
        mean_x2 = np.where(cum_n > 0, cum_x2 / cum_n, np.nan)
        var_x = np.maximum(mean_x2 - e_x**2, 0.0)
        j_hat = np.where(var_x > _ZERO_VAR_RTOL * mean_x2, e_x**2 / var_x, np.nan)
        j2phi = phi * j_hat**2

    rho = _expanding_rho(catalog.counts, catalog.sums)
    rho_lo, rho_hi = _fisher_bounds_array(rho, t, ci_level)
    return LongRunSeries(
        years=catalog.years.astype(np.int64),
        e_n=e_n,
        e_s=e_s,
        e_x=e_x,
        phi=phi,
        rho=rho,
        rho_lo=rho_lo,
        rho_hi=rho_hi,
        j2phi=j2phi,
    )


def expanding_correlation(
    catalog: EventCatalog, ci_level: float = 0.95
) -> CorrelationSeries:
    """Pearson correlation of (count, aggregate) over the first t years,
    for every cutoff t.

    Needs at least 3 years; cutoffs below 3 pairs, or with zero variance
    in either coordinate, carry NaN.  Confidence bounds start at 4 pairs.
    """
    if catalog.n_years < 3:
        raise ValueError(f"need at least 3 years, got {catalog.n_years}")
    rho = _expanding_rho(catalog.counts, catalog.sums)
    t = np.arange(1, catalog.n_years + 1, dtype=np.float64)
    lo, hi = _fisher_bounds_array(rho, t, ci_level)
    return CorrelationSeries(
        years=catalog.years.astype(np.int64), rho=rho, rho_lo=lo, rho_hi=hi
    )


def moving_window_correlation(
    catalog: EventCatalog, window: int, ci_level: float = 0.95
) -> CorrelationSeries:
    """Pearson correlation over each trailing window of ``window`` years.

    Row i covers the window ending at ``years[i]``; the first
    ``window - 1`` cutoffs have no full window and are omitted.
    """
    if window < 3:
        raise ValueError(f"window must be at least 3 years, got {window}")
    if window > catalog.n_years:
        raise ValueError(
            f"window of {window} years exceeds the catalog span of "
            f"{catalog.n_years} years"
        )

    def rolling(v: np.ndarray) -> np.ndarray:
        c = np.concatenate(([0.0], np.cumsum(v)))
        return c[window:] - c[:-window]

    n = catalog.counts.astype(np.float64)
    s = catalog.sums
    w = float(window)
    rho = _pearson_from_sums(
        w, rolling(n), rolling(s), rolling(n * n), rolling(s * s), rolling(n * s)
    )
    n_pairs = np.full(len(rho), window, dtype=np.float64)
    lo, hi = _fisher_bounds_array(rho, n_pairs, ci_level)
    return CorrelationSeries(
        years=catalog.years[window - 1 :].astype(np.int64),
        rho=rho,
        rho_lo=lo,
        rho_hi=hi,
    )


def nx_independence(catalog: EventCatalog) -> float:
    """Pearson correlation between the yearly count and the yearly mean
    intensity, over years with at least one event.

    An informal independence diagnostic: values near zero are consistent
    with counts and intensities being independent within a year.
    Returns NaN when either coordinate has zero variance.
    """
    mask = catalog.counts > 0
    usable = int(mask.sum())
    if usable < 3:
        raise ValueError(f"need at least 3 years with events, got {usable}")
    n = catalog.counts[mask].astype(np.float64)
    xbar = catalog.sums[mask] / n
    t = float(usable)
    return float(
        _pearson_from_sums(
            t,
            np.array([n.sum()]),
            np.array([xbar.sum()]),
            np.array([(n * n).sum()]),
            np.array([(xbar * xbar).sum()]),
            np.array([(n * xbar).sum()]),
        )[0]
    )


def season_activity(counts) -> list[SeasonActivity]:
    """Classify each year as active or inactive.

    A year is active when its count strictly exceeds the long-term mean
    plus one sample standard deviation; everything else, ties included,
    is inactive.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or len(counts) < 2:
        raise ValueError("need counts for at least 2 years")
    threshold = counts.mean() + counts.std(ddof=1)
    return [
        SeasonActivity.ACTIVE if c > threshold else SeasonActivity.INACTIVE
        for c in counts
    ]


def mailier_index(counts) -> float:
    """Variance-to-mean ratio of the counts, minus one.

    Zero for Poisson-like counts, positive under clustering, negative
    for more regular occurrence.  Uses the population variance, so it
    equals the terminal long-run ``phi`` minus one exactly.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or len(counts) < 2:
        raise ValueError("need counts for at least 2 years")
    mean = counts.mean()
    if mean <= 0:
        raise ValueError(f"mean count must be positive, got {mean}")
    return float(counts.var(ddof=0) / mean - 1.0)


def with_window_correlation(
    series: LongRunSeries, windowed: CorrelationSeries
) -> LongRunSeries:
    """Replace the correlation columns of ``series`` with trailing-window
    values; cutoffs before the first full window become NaN."""
    T = len(series)
    rho = np.full(T, np.nan)
    lo = np.full(T, np.nan)
    hi = np.full(T, np.nan)
    offset = T - len(windowed)
    rho[offset:] = windowed.rho
    lo[offset:] = windowed.rho_lo
    hi[offset:] = windowed.rho_hi
    return replace(series, rho=rho, rho_lo=lo, rho_hi=hi)
