"""Event catalogs: (year, intensity) records with per-year aggregates.

An :class:`EventCatalog` stores the raw events plus the derived per-year
count ``n_t`` and intensity sum ``s_t``.  Years are contiguous over the
catalog range; years without events are materialised with ``n_t = 0``
and ``s_t = 0`` so downstream estimators see the true count process.
"""

from __future__ import annotations

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
    """``value`` as an int, else a ValueError that starts with ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}: must be an integer, got {value!r}") from None


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class EventCatalog:
    """Observed or simulated events with per-year views.

    ``event_years`` and ``intensities`` are aligned, sorted by year.
    ``counts[i]`` and ``sums[i]`` belong to calendar year
    ``start_year + i``.  All intensities are strictly positive.
    """

    start_year: int
    counts: np.ndarray
    sums: np.ndarray
    event_years: np.ndarray = field(repr=False)
    intensities: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.counts) == 0:
            raise ValueError("catalog must cover at least one year")
        if len(self.counts) != len(self.sums):
            raise ValueError("per-year counts and sums differ in length")
        if len(self.event_years) != len(self.intensities):
            raise ValueError("event years and intensities differ in length")
        if np.any(self.counts < 0):
            raise ValueError("per-year counts must be non-negative")
        if int(self.counts.sum()) != len(self.intensities):
            raise ValueError("per-year counts do not add up to the event total")
        if len(self.intensities) and not np.all(self.intensities > 0):
            bad = float(self.intensities[~(self.intensities > 0)][0])  # NaN too
            raise ValueError(f"intensities must be positive, found {bad}")
        for name in ("counts", "sums", "event_years", "intensities"):
            _frozen(getattr(self, name))

    @classmethod
    def from_events(
        cls,
        years,
        intensities,
        year_range: tuple[int, int] | None = None,
    ) -> "EventCatalog":
        """Build a catalog from per-event years and intensities.

        ``year_range`` widens (or pins) the contiguous span of years;
        by default the span runs from the earliest to the latest event
        year.  Events are sorted by year, stable within a year.
        """
        years = np.asarray(years, dtype=np.int64)
        intensities = np.asarray(intensities, dtype=np.float64)
        if years.shape != intensities.shape or years.ndim != 1:
            raise ValueError("years and intensities must be 1-d and aligned")
        if year_range is None:
            if len(years) == 0:
                raise ValueError("empty event list needs an explicit year_range")
            start, end = int(years.min()), int(years.max())
        else:
            start, end = int(year_range[0]), int(year_range[1])
            if start > end:
                raise ValueError(f"year_range must be increasing, got {year_range}")
            if len(years) and (years.min() < start or years.max() > end):
                raise ValueError("events fall outside the requested year_range")
        n_years = end - start + 1  # a Python int: cannot overflow
        if n_years > _MAX_ROWS:
            raise ValueError(
                f"event years {start} to {end} span {n_years} years, more "
                f"than the {_MAX_ROWS} a catalog may hold"
            )
        order = np.argsort(years, kind="stable")
        years = years[order]
        intensities = intensities[order]
        offsets = years - start
        counts = np.bincount(offsets, minlength=n_years).astype(np.int64)
        sums = np.bincount(offsets, weights=intensities, minlength=n_years)
        return cls(
            start_year=start,
            counts=counts,
            sums=sums,
            event_years=years,
            intensities=intensities,
        )

    @property
    def years(self) -> np.ndarray:
        """Calendar years of the per-year view."""
        return np.arange(len(self.counts), dtype=np.int64) + self.start_year  # no int64 stop

    @property
    def n_years(self) -> int:
        return len(self.counts)

    @property
    def n_events(self) -> int:
        return len(self.intensities)
