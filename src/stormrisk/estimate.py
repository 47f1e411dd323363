"""Empirical estimators over event catalogs.

Long-run (expanding in time) estimates of the mean count, mean
aggregate and mean intensity, the dispersion ratio of the counts, the
count-aggregate correlation with Fisher-transform confidence intervals,
and two diagnostics (count/intensity independence and a summary of the
active seasons).  Mailier et al.'s (2006) dispersion index is the
terminal ``phi`` minus one.

:func:`analyze_catalog` is the one entry: the series and diagnostics
that ``analyze`` reports.  The functions it calls are its steps.

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
from dataclasses import dataclass

import numpy as np

from .catalog import EventCatalog, _frozen, _integer, _real

__all__ = [
    "LongRunSeries",
    "analyze_catalog",
    "long_run_series",
    "fisher_interval",
    "nx_independence",
    "season_activity",
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
    * ``j2phi``: ``phi * (e_x**2 / var_x)**2``, ``phi`` times the square
      of the pooled shape ratio.  With ``J^2 = E[X]^2 / Var(X)``, as in
      `risk_summary`, that estimates ``phi J^4``, not the J-equation's
      ``phi J^2``; `verify` does not read it
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
            object.__setattr__(self, name, _frozen(a))

    @staticmethod
    def column_names() -> tuple[str, ...]:
        return ("years", "e_n", "e_s", "e_x", "phi", "rho", "rho_lo", "rho_hi", "j2phi")

    def __len__(self) -> int:
        return len(self.years)


# Cephes ndtri's coefficients, highest power first.  With y = min(p, 1 - p):
# P0/Q0 for y > exp(-2), P1/Q1 for x = sqrt(-2 log y) in [2, 8) and P2/Q2
# for x >= 8.  Each Q has an implied leading 1.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _rational(x: float, p: tuple, q: tuple) -> float:
    """``x * P(x) / Q(x)`` by Horner's rule, with Q's leading 1 implied, as
    Cephes' ``x * polevl(x, P) / p1evl(x, Q)``."""
    num = p[0]
    for c in p[1:]:
        num = num * x + c
    den = x + q[0]
    for c in q[1:]:
        den = den * x + c
    return x * num / den


def _normal_quantile(p: float) -> float:
    """Standard normal quantile: a port of Cephes ``ndtri``, the routine of
    ``scipy.special.ndtri``, with its coefficients and order of operations,
    so it gives the same double for every ``p`` in [0, 1] (pinned by
    ``tests/test_estimate.py::test_normal_quantile_matches_scipy_ndtri_bit_for_bit``)."""
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if not 0.0 < p < 1.0:
        return math.nan
    y, upper = p, p > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        return (y + y * _rational(y * y, _P0, _Q0)) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    pq = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)  # x = 8 at y = exp(-32)
    x = x - math.log(x) / x - _rational(1.0 / x, *pq)
    return x if upper else -x


def fisher_interval(rho, n, level: float = 0.95):
    """Approximate confidence bounds ``(lo, hi)`` for Pearson correlations.

    Elementwise over ``rho`` and ``n`` (a scalar is a 0-d array, and
    scalars give scalars): transforms to z = atanh(rho), adds multiples
    of the standard deviation 1/sqrt(n - 3) by the normal quantile at
    (1 + level) / 2 (the package's port of Cephes ``ndtri``, the bits of
    ``scipy.special.ndtri`` without importing SciPy), and maps back
    through tanh.  Both bounds are NaN where the interval is undefined
    (|rho| >= 1, rho NaN, or fewer than 4 pairs).  Exact only for i.i.d.
    bivariate-normal pairs.
    """
    level = _real(level, "level", finite=False)
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
    """Pearson correlation from running sums; NaN where degenerate.

    The sums may be arrays or numpy scalars.  Squares are products: an
    array's ``x**2`` is ``x * x``, but a numpy scalar's calls ``pow``,
    which can round differently."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mn = sn / t
        ms = ss / t
        var_n = snn / t - mn * mn
        var_s = sss / t - ms * ms
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
    ci_level = _real(ci_level, "ci_level", finite=False)
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
    offsets = np.repeat(np.arange(T), catalog.counts)

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
    sums = (n.sum(), xbar.sum(), (n * n).sum(), (xbar * xbar).sum(), (n * xbar).sum())
    return float(_pearson_from_sums(float(usable), *sums))


def season_activity(counts) -> dict:
    """The active-season threshold and the number of active years.

    A year is active when its count strictly exceeds the long-term mean
    plus one sample standard deviation, the ``threshold``; everything
    else, ties included, is inactive.  The labels of the years are
    ``counts > threshold``.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or len(counts) < 2:
        raise ValueError("need counts for at least 2 years")
    threshold = counts.mean() + counts.std(ddof=1)
    return {"threshold": float(threshold), "active_years": int((counts > threshold).sum())}


def analyze_catalog(
    catalog: EventCatalog, ci_level: float = 0.95, window: int | None = None
) -> tuple[LongRunSeries, dict]:
    """The long-run series of ``catalog`` and its diagnostics.

    The series is :func:`long_run_series`'s, whose argument errors are
    raised before any diagnostic runs.  The dict holds the value of each
    of :func:`nx_independence` (NaN kept) and :func:`season_activity`;
    one that raises ValueError gives None there, and its message under
    ``<name>_note``.
    """
    series = long_run_series(catalog, ci_level, window)
    diagnostics: dict = {}
    for name, call, arg in (
        ("nx_independence", nx_independence, catalog),
        ("season_activity", season_activity, catalog.counts),
    ):
        try:
            diagnostics[name] = call(arg)
        except ValueError as exc:
            diagnostics[name] = None
            diagnostics[f"{name}_note"] = str(exc)
    return series, diagnostics
