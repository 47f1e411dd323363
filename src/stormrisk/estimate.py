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

from dataclasses import dataclass

import numpy as np

from .catalog import EventCatalog, _frozen, _integer

__all__ = [
    "LongRunSeries",
    "long_run_series",
    "fisher_interval",
    "nx_independence",
    "season_activity",
    "mailier_index",
]

# Variances at or below this fraction of the second moment are treated
# as exact zeros (degenerate, correlation undefined).
_ZERO_VAR_RTOL = 1e-12


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
      (count, aggregate) pairs and its approximate confidence bounds,
      over all years so far or over a trailing window
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


def _normal_quantile(p: float) -> float:
    """Standard normal quantile.  SciPy is imported on first use: it is
    most of the package's import time, and only the intervals need it."""
    from scipy.stats import norm

    return float(norm.ppf(p))


def fisher_interval(rho, n, level: float = 0.95):
    """Approximate confidence bounds ``(lo, hi)`` for Pearson correlations.

    Elementwise over ``rho`` and ``n`` (a scalar is a 0-d array, and
    scalars give scalars): transforms to z = atanh(rho), adds
    normal-quantile multiples of the standard deviation 1/sqrt(n - 3),
    and maps back through tanh.  Both bounds are NaN where the interval
    is undefined (|rho| >= 1, rho NaN, or fewer than 4 pairs).  Exact
    only for i.i.d. bivariate-normal pairs.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level: must lie in (0, 1), got {level}")
    q = _normal_quantile(0.5 * (1.0 + level))
    with np.errstate(invalid="ignore", divide="ignore"):
        ok = np.isfinite(rho) & (np.abs(rho) < 1.0) & (n >= 4)
        z = np.where(ok, np.arctanh(np.where(ok, rho, 0.0)), np.nan)
        hw = q / np.sqrt(np.maximum(n - 3, 1))
        lo = np.where(ok, np.tanh(z - hw), np.nan)
        hi = np.where(ok, np.tanh(z + hw), np.nan)
    return lo[()], hi[()]


def _pearson_from_sums(t, sn, ss, snn, sss, sns):
    """Pearson correlation from running sums; NaN where degenerate."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mn = sn / t
        ms = ss / t
        var_n = snn / t - mn**2
        var_s = sss / t - ms**2
        cov = sns / t - mn * ms
        degenerate = (var_n <= _ZERO_VAR_RTOL * (snn / t)) | (
            var_s <= _ZERO_VAR_RTOL * (sss / t)
        )
        # var_n * var_s can overflow while both factors are finite
        scale = np.sqrt(var_n * var_s)
        scale = np.where(np.isinf(scale), np.sqrt(var_n) * np.sqrt(var_s), scale)
        rho = np.where(degenerate, np.nan, cov / scale)
    return np.clip(rho, -1.0, 1.0)


def long_run_series(
    catalog: EventCatalog, ci_level: float = 0.95, window: int | None = None
) -> LongRunSeries:
    """Expanding estimates over the catalog, one row per cutoff year.

    Computed in a single pass from one table of running sums of the
    per-year counts, sums, squares and cross-products, plus the running
    sum of the per-event squared intensities.  The correlation columns
    sum over all years so far, or with ``window`` over the trailing
    ``window`` years (NaN before the first full window); the other
    columns stay expanding.  Raises ValueError, naming the year, where a
    running sum overflows.
    """
    if not 0.0 < ci_level < 1.0:
        raise ValueError(f"ci_level: must lie in (0, 1), got {ci_level}")
    if window is not None:
        window = _integer(window, "window")
        if window < 3:
            raise ValueError(f"window: must be at least 3 years, got {window}")
        if window > catalog.n_years:
            raise ValueError(f"window: exceeds the {catalog.n_years}-year catalog, got {window}")
    T = catalog.n_years
    t = np.arange(1, T + 1, dtype=np.float64)
    n = catalog.counts.astype(np.float64)
    s = catalog.sums
    offsets = (catalog.event_years - catalog.start_year).astype(np.intp)

    # Running sums of n, s, n*n, s*s and n*s after a zero column.  Every
    # term is non-negative, so a finite last column bounds every year.
    c = np.zeros((5, T + 1))
    with np.errstate(over="ignore"):
        np.cumsum((n, s, n * n, s * s, n * s), axis=1, out=c[:, 1:])
        x2_by_year = np.bincount(offsets, weights=catalog.intensities**2, minlength=T)
        cum_x2 = np.cumsum(x2_by_year)
    if not (np.isfinite(c[:, -1]).all() and np.isfinite(cum_x2[-1])):
        overflow = ~(np.isfinite(c[:, 1:]).all(axis=0) & np.isfinite(cum_x2))
        year = catalog.start_year + int(np.argmax(overflow))
        raise ValueError(
            f"running sums of the counts and intensities overflow at year {year}"
        )
    cum_n, cum_s = c[0, 1:], c[1, 1:]
    e_n = cum_n / t
    e_s = cum_s / t

    with np.errstate(invalid="ignore", divide="ignore"):
        e_x = np.where(cum_n > 0, cum_s / cum_n, np.nan)
        var_n = np.maximum(c[2, 1:] / t - e_n**2, 0.0)
        phi = np.where(e_n > 0, var_n / e_n, np.nan)

        # pooled intensity moments over all events up to each cutoff
        mean_x2 = np.where(cum_n > 0, cum_x2 / cum_n, np.nan)
        var_x = np.maximum(mean_x2 - e_x**2, 0.0)
        j_hat = np.where(var_x > _ZERO_VAR_RTOL * mean_x2, e_x**2 / var_x, np.nan)
        j2phi = phi * j_hat**2

    if window is None:
        sums, pairs = c[:, 1:], t
    else:
        sums, pairs = c[:, window:] - c[:, :-window], float(window)
    # a correlation needs at least 3 pairs
    rho = np.where(pairs >= 3, _pearson_from_sums(pairs, *sums), np.nan)
    rho = np.concatenate((np.full(T - len(rho), np.nan), rho))
    rho_lo, rho_hi = fisher_interval(rho, pairs, ci_level)
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


def season_activity(counts) -> list[str]:
    """Label each year ``"active"`` or ``"inactive"``.

    A year is active when its count strictly exceeds the long-term mean
    plus one sample standard deviation; everything else, ties included,
    is inactive.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or len(counts) < 2:
        raise ValueError("need counts for at least 2 years")
    threshold = counts.mean() + counts.std(ddof=1)
    return ["active" if c > threshold else "inactive" for c in counts]


def mailier_index(counts) -> float:
    """Variance-to-mean ratio of the counts, minus one.

    Zero for Poisson-like counts, positive under clustering, negative
    for more regular occurrence.  Uses the population variance, so it
    equals the terminal long-run ``phi`` minus one up to rounding: the
    two sum the counts in different orders.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or len(counts) < 2:
        raise ValueError("need counts for at least 2 years")
    mean = counts.mean()
    if mean <= 0:
        raise ValueError(f"mean count must be positive, got {mean}")
    return float(counts.var(ddof=0) / mean - 1.0)
