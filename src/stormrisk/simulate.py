"""Seeded Monte Carlo generation of event catalogs and replicate ensembles.

Reproducibility contract: every draw comes from a substream keyed by
``(seed, domain tag, *index)``, the PCG64 generator that
``numpy.random.default_rng([seed, tag, *index])`` would return, so
identical configurations give bit-identical output regardless of how
the work is ordered or split.

* Catalogs use one substream per year (keyed by the year offset), so
  extending the simulation horizon never perturbs earlier years.
* Fixed-year ensembles use one pair of substreams (counts, marks) per
  block of ``_BATCH`` replicates, so the first R results are a prefix of
  any longer run and blocks can be generated independently.

The key is hashed here exactly as `numpy.random.SeedSequence` hashes
it, vectorised over the keys, and one reused generator is moved to each
substream's PCG64 state: a ``default_rng`` call per year would cost
more than the year's draws.  NEP 19 keeps both algorithms fixed across
numpy versions, and tests compare the states with ``default_rng``.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .catalog import _MAX_ROWS, EventCatalog
from .frequency import FrequencyModel, rate, sample_count
from .severity import _INVERSE_CDF, SeverityModel, _inverse_cdf, sample_intensity

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


# numpy.random.SeedSequence's hash constants and pool size (uint32
# arithmetic), and the PCG64 multiplier (mod 2**128).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1

# Keys hashed at a time, so the 128-bit states of a long catalog are
# never all held at once.
_CHUNK = 1024


def _words(n: int) -> list[int]:
    """``n`` as SeedSequence splits an entropy integer: little-endian
    uint32 words, ``[0]`` for 0."""
    if n < 0:
        raise ValueError(f"substream keys must be non-negative integers, got {n}")
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _seed_sequence_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)``, one uint32
    array per entropy word and one uint64 array per output word, so each
    element is one key.  uint32 arrays wrap without the warning that
    numpy scalars give."""
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * _MULT_A & _M32
        v = v * h
        return v ^ (v >> 16)

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    out = []
    for i in range(2 * _POOL):
        v = pool[i % _POOL] ^ h
        h = h * _MULT_B & _M32
        v = v * h
        out.append((v ^ (v >> 16)).astype(np.uint64))
    return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]


def _stream(rng: np.random.Generator, state: int, inc: int) -> np.random.Generator:
    """Move ``rng`` to the start of one substream, given its PCG64 state."""
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _streams(prefix: tuple[int, ...], keys: range) -> Iterator[np.random.Generator]:
    """The substream ``default_rng([*prefix, k])`` for each ``k`` in
    ``keys``, in order, all on one reused generator: use each before
    taking the next.  Keys lie in ``[0, 2**32)``, one entropy word each."""
    head = [w for n in prefix for w in _words(n)]
    rng = np.random.Generator(np.random.PCG64(0))  # state replaced before any draw
    for lo in range(0, len(keys), _CHUNK):
        chunk = keys[lo : lo + _CHUNK]
        last = np.arange(chunk.start, chunk.stop, chunk.step, dtype=np.uint32)
        entropy = [np.full(len(last), w, dtype=np.uint32) for w in head] + [last]
        words = _seed_sequence_words(entropy)
        # PCG64 seeding: inc = 2 * seq + 1, then two LCG steps around
        # adding the initial state.
        for w0, w1, w2, w3 in zip(*(w.tolist() for w in words)):
            inc = ((w2 << 64 | w3) << 1 | 1) & _M128
            state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _M128
            yield _stream(rng, state, inc)


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
    present in the per-year view.  A config expecting more than
    ``_MAX_ROWS`` events in all is rejected before any draw.
    """
    seed = _seed(config)
    index = np.arange(1, config.n_years + 1)
    with np.errstate(over="ignore"):  # an infinite total is rejected below
        expected = float(np.sum(rate(config.freq, index)))
    if not expected <= _MAX_ROWS:
        raise ValueError(
            f"expects {expected:.6g} events over {config.n_years} years, "
            f"more than the {_MAX_ROWS} a catalog may hold"
        )
    start, end = config.years
    sev = config.sev
    inverse_cdf = sev.family in _INVERSE_CDF
    years = range(1, config.n_years + 1)
    counts = np.zeros(len(years), dtype=np.int64)
    draws: list[np.ndarray] = []
    for t, rng in zip(years, _streams((seed, _CATALOG), years)):
        n_t = sample_count(config.freq, t, rng)
        if n_t > 0:
            counts[t - 1] = n_t
            if inverse_cdf:
                # marks follow after the loop, one inverse-CDF pass for all
                draws.append(rng.random(n_t))
            else:
                draws.append(sample_intensity(sev, t, rng, size=n_t))
    intensities = np.concatenate(draws) if draws else np.empty(0, dtype=np.float64)
    if inverse_cdf:
        mu = np.repeat(sev.driver(index), counts)
        intensities = _inverse_cdf(sev, intensities, mu)
    event_years = np.repeat(np.arange(start, end + 1, dtype=np.int64), counts)
    return EventCatalog.from_events(event_years, intensities, year_range=(start, end))


def replicate_fixed_year(
    config: SimulationConfig, t: float, replicates: int
) -> FixedYearSample:
    """Draw ``replicates`` independent (N, S) pairs at year ``t``.

    ``t``, a model year index in ``[1, config.n_years]``, and
    ``replicates``, in ``[2, _MAX_ROWS]``, are checked before any
    allocation.  Counts and marks come from separate per-block
    substreams, so results for replicate r do not depend on how many
    replicates follow it.
    """
    seed = _seed(config)
    try:
        replicates = operator.index(replicates)
    except TypeError:
        raise ValueError(f"replicates must be an integer, got {replicates!r}") from None
    if not 2 <= replicates <= _MAX_ROWS:
        raise ValueError(f"replicates must lie in [2, {_MAX_ROWS}], got {replicates}")
    t_int = int(t)
    if t_int != t:
        raise ValueError(f"year index must be an integer, got {t}")
    if not 1 <= t_int <= config.n_years:
        raise ValueError(f"year index t={t_int} must lie in [1, {config.n_years}]")
    counts = np.empty(replicates, dtype=np.int64)
    sums = np.empty(replicates, dtype=np.float64)
    first = np.full(replicates, np.nan)
    blocks = range(-(-replicates // _BATCH))
    counts_streams = _streams((seed, _REPLICATE_COUNTS, t_int), blocks)
    marks_streams = _streams((seed, _REPLICATE_MARKS, t_int), blocks)
    for block, counts_rng, marks_rng in zip(blocks, counts_streams, marks_streams):
        lo = block * _BATCH
        hi = min(lo + _BATCH, replicates)
        n = sample_count(config.freq, t_int, counts_rng, size=hi - lo)
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
