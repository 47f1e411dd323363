"""Event catalogs: a first year, each year's event count and the events'
intensities in year order, from which each year's intensity sum and each
event's year are derived.  Years without events hold a zero count, so
estimators see the true count process.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = ["EventCatalog"]

# The row budget: the most years a catalog or a theory table may span,
# the most events a simulated catalog may expect and the most replicates
# an ensemble may hold.  Inputs past it are rejected before any array is
# sized by them.
_MAX_ROWS = 10**7
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _integer(value, name: str) -> int:
    """The integer rule: ``value`` as a Python int (a bool is not one), else a
    ValueError that starts with ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name}: must be an integer, got {value!r}")


def _real(value, name: str, *, finite: bool = True) -> float:
    """The number rule: ``value``, a real number (a bool is not one), as a
    Python float, finite unless ``finite`` is false, else a ValueError that
    starts with ``name``.  An int past the double range reads as infinite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    if finite and not math.isfinite(x):
        raise ValueError(f"{name}: must be finite, got {x}")
    return x


def _member(enum, value, name: str):
    """The member of ``enum`` whose value is ``value``, else a ValueError
    that starts with ``name``."""
    try:
        return enum(value)
    except ValueError:
        known = [m.value for m in enum]
        raise ValueError(f"{name}: expected one of {known}, got {value!r}") from None


def _positive_finite(x: np.ndarray) -> bool:
    """The intensity rule on a non-empty ``x``: all positive and finite (NaN fails ``min``)."""
    return bool(x.min() > 0 and x.max() < np.inf)


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself keeps its flags."""
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class EventCatalog:
    """Observed or simulated events with per-year views.

    ``counts[i]`` events fall in year ``start_year + i``, and ``sums[i]``
    is their intensity sum.  The constructor holds every catalog rule: an
    integer ``start_year`` and every year in int64; 1-d ``counts`` of
    non-negative integers, at least one, adding up to the number of
    real, positive and finite ``intensities``, given in year order.
    """

    start_year: int
    counts: np.ndarray
    intensities: np.ndarray = field(repr=False)
    sums: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        start = _integer(self.start_year, "start_year")
        counts, x = np.asarray(self.counts), np.asarray(self.intensities)
        if counts.size == 0:
            raise ValueError("catalog must cover at least one year")
        rules = (("counts", counts, "iu", "integers"), ("intensities", x, "iuf", "real numbers"))
        for name, a, kinds, what in rules:
            if a.ndim != 1:
                raise ValueError(f"{name}: must be 1-d, got shape {a.shape}")
            if a.dtype.kind not in kinds:
                raise ValueError(f"{name}: must be {what}, got {a.dtype} values")
        end = start + len(counts) - 1
        if start < _INT64_MIN or end > _INT64_MAX:
            raise ValueError(f"start_year: years {start} to {end} must be signed 64-bit integers")
        if counts.min() < 0:
            raise ValueError("per-year counts must be non-negative")
        # the max test keeps a wrapped total from matching
        if counts.max() > len(x) or int(counts.sum()) != len(x):
            raise ValueError("per-year counts do not add up to the event total")
        x = x.astype(np.float64, copy=False)
        if len(x) and not _positive_finite(x):
            bad = float(x[~((x > 0) & (x < np.inf))][0])  # NaN too
            raise ValueError(f"intensities must be positive and finite, found {bad}")
        counts, n = counts.astype(np.int64, copy=False), len(counts)
        sums = np.bincount(np.repeat(np.arange(n), counts), weights=x, minlength=n)
        object.__setattr__(self, "start_year", start)
        for name, a in (("counts", counts), ("intensities", x), ("sums", sums)):
            object.__setattr__(self, name, _frozen(a))

    @classmethod
    def from_events(cls, years, intensities) -> EventCatalog:
        """Build a catalog from per-event years and intensities, over the
        years from the earliest to the latest event.  Events are sorted by
        year, stable within a year.  Years are an array of signed or
        int64-sized unsigned integers, at least one.
        """
        years = np.asarray(years)
        if years.size and not (
            years.dtype.kind == "i" or (years.dtype.kind == "u" and years.max() <= _INT64_MAX)
        ):
            raise ValueError(f"years: must be signed 64-bit integers, got {years.dtype} values")
        years = years.astype(np.int64, copy=False)
        intensities = np.asarray(intensities)
        if years.shape != intensities.shape or years.ndim != 1:
            raise ValueError("years and intensities must be 1-d and aligned")
        if len(years) == 0:
            raise ValueError("empty event list: a catalog's years come from its events")
        start, end = int(years.min()), int(years.max())
        n_years = end - start + 1  # a Python int: cannot overflow
        if n_years > _MAX_ROWS:
            raise ValueError(
                f"event years {start} to {end} span {n_years} years, more "
                f"than the {_MAX_ROWS} a catalog may hold"
            )
        counts = np.bincount(years - start, minlength=n_years)
        return cls(start, counts, intensities[np.argsort(years, kind="stable")])

    @property
    def years(self) -> np.ndarray:
        """Calendar years of the per-year view."""
        return np.arange(len(self.counts), dtype=np.int64) + self.start_year  # no int64 stop

    @property
    def event_years(self) -> np.ndarray:
        """Each event's calendar year, aligned with ``intensities``."""
        return np.repeat(self.years, self.counts)

    @property
    def n_years(self) -> int:
        return len(self.counts)

    @property
    def n_events(self) -> int:
        return len(self.intensities)
