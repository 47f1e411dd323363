"""Seeded Monte Carlo generation of event catalogs and replicate ensembles.

Reproducibility contract: every draw comes from a substream derived by
hashing ``(seed, domain tag, index)`` through `numpy.random.SeedSequence`,
so identical configurations give bit-identical output regardless of how
the work is ordered or split.

* Catalogs use one substream per year (keyed by the year offset), so
  extending the simulation horizon never perturbs earlier years.
* Fixed-year ensembles use one pair of substreams (counts, marks) per
  block of ``_BATCH`` replicates, so the first R results are a prefix of
  any longer run and blocks can be generated independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import _MAX_ROWS, EventCatalog
from .frequency import FrequencyModel, sample_count
from .severity import SeverityModel, sample_intensity

__all__ = [
    "SimulationConfig",
    "FixedYearSample",
    "simulate_catalog",
    "replicate_fixed_year",
]

# Substream domain tags; changing these invalidates reproducibility.
_CATALOG = 1
_REPLICATE_COUNTS = 2
_REPLICATE_MARKS = 3

# Replicates per substream block in fixed-year ensembles.
_BATCH = 32768


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


@dataclass(frozen=True, kw_only=True)
class SimulationConfig:
    """A frequency/severity pair, an inclusive year span and a seed: one
    validated run configuration.

    Year ``y`` maps to the model year index ``t = y - start + 1``; both
    model horizons must cover ``[1, end - start + 1]``, a span of at most
    ``_MAX_ROWS`` years.  ``seed`` may be None for the closed forms,
    which draw nothing; the simulators require it.
    """

    freq: FrequencyModel
    sev: SeverityModel
    years: tuple[int, int]
    seed: int | None = None

    def __post_init__(self) -> None:
        start, end = self.years
        if start != int(start) or end != int(end):
            raise ValueError(f"years must be integers, got {self.years}")
        if start > end:
            raise ValueError(f"years must satisfy start <= end, got {self.years}")
        n = end - start + 1
        if n > _MAX_ROWS:
            raise ValueError(f"years span {n} years, more than the {_MAX_ROWS} allowed")
        if self.seed is not None and not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must fit in an unsigned 64-bit int, got {self.seed}")
        for name, model in (("frequency", self.freq), ("severity", self.sev)):
            t_min, t_max = model.horizon
            if t_min > 1 or t_max < n:
                raise ValueError(
                    f"{name} horizon [{t_min}, {t_max}] does not cover "
                    f"year indices [1, {n}]"
                )

    @property
    def n_years(self) -> int:
        return self.years[1] - self.years[0] + 1

    def to_dict(self) -> dict:
        """The models, years and seed as a JSON-ready dict."""
        return {
            "frequency": {
                "link": self.freq.link.value,
                "alpha0": self.freq.alpha0,
                "alpha1": self.freq.alpha1,
            },
            "severity": {
                "family": self.sev.family.value,
                "beta0": self.sev.beta0,
                "beta1": self.sev.beta1,
                "shape": self.sev.shape,
            },
            "years": list(self.years),
            "seed": self.seed,
        }


def _seed(config: SimulationConfig) -> int:
    if config.seed is None:
        raise ValueError("simulation needs a seed; the config has none")
    return config.seed


@dataclass(frozen=True, eq=False)
class FixedYearSample:
    """Replicate ensemble of one year: counts, sums, and the first mark
    of each replicate (NaN where the count is zero)."""

    counts: np.ndarray
    sums: np.ndarray
    first_marks: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.counts)


def simulate_catalog(config: SimulationConfig) -> EventCatalog:
    """Generate one multi-year catalog.

    Per year: draw the count, then that many i.i.d. intensities, all
    from the year's own substream.  Years with zero events remain
    present in the per-year view.
    """
    seed = _seed(config)
    start, end = config.years
    all_years: list[np.ndarray] = []
    all_x: list[np.ndarray] = []
    for t in range(1, config.n_years + 1):
        rng = _stream(seed, _CATALOG, t)
        n_t = sample_count(config.freq, t, rng)
        if n_t > 0:
            x = sample_intensity(config.sev, t, rng, size=n_t)
            all_years.append(np.full(n_t, start + t - 1, dtype=np.int64))
            all_x.append(x)
    if all_years:
        years = np.concatenate(all_years)
        intensities = np.concatenate(all_x)
    else:
        years = np.empty(0, dtype=np.int64)
        intensities = np.empty(0, dtype=np.float64)
    return EventCatalog.from_events(years, intensities, year_range=(start, end))


def replicate_fixed_year(
    config: SimulationConfig, t: float, replicates: int
) -> FixedYearSample:
    """Draw ``replicates`` independent (N, S) pairs at year ``t``.

    ``t`` is a model year index (offset coordinates); ``replicates``, in
    ``[2, _MAX_ROWS]``, is checked before any allocation.  Counts and
    marks come from separate per-block substreams, so results for
    replicate r do not depend on how many replicates follow it.
    """
    seed = _seed(config)
    if not 2 <= replicates <= _MAX_ROWS:
        raise ValueError(f"replicates must lie in [2, {_MAX_ROWS}], got {replicates}")
    t_int = int(t)
    if t_int != t:
        raise ValueError(f"year index must be an integer, got {t}")
    counts = np.empty(replicates, dtype=np.int64)
    sums = np.empty(replicates, dtype=np.float64)
    first = np.full(replicates, np.nan)
    for lo in range(0, replicates, _BATCH):
        hi = min(lo + _BATCH, replicates)
        block = lo // _BATCH
        counts_rng = _stream(seed, _REPLICATE_COUNTS, t_int, block)
        n = sample_count(config.freq, t_int, counts_rng, size=hi - lo)
        marks_rng = _stream(seed, _REPLICATE_MARKS, t_int, block)
        x = sample_intensity(config.sev, t_int, marks_rng, size=int(n.sum()))
        rep = np.repeat(np.arange(hi - lo), n)
        counts[lo:hi] = n
        sums[lo:hi] = np.bincount(rep, weights=x, minlength=hi - lo)
        starts = np.concatenate(([0], np.cumsum(n)[:-1]))
        nonzero = n > 0
        first[lo:hi][nonzero] = x[starts[nonzero]]
        # Free this block's marks before the next block draws its own, so
        # two blocks' arrays never coexist on the heap.
        del x, rep
    return FixedYearSample(counts=counts, sums=sums, first_marks=first)
