"""Seeded Monte Carlo generation of event catalogs and replicate ensembles.

Reproducibility contract: every draw comes from a substream keyed by
``(seed, domain tag, *index)``, the PCG64 generator that
``numpy.random.default_rng([seed, tag, *index])`` would return, so
identical configurations give bit-identical output regardless of how
the work is ordered or split.

* Catalogs use one substream per year (keyed by the year offset), so
  extending the simulated years never perturbs earlier years.
* Fixed-year ensembles use one pair of substreams (counts, marks) per
  block of ``_BATCH`` replicates, so the first R results are a prefix of
  any longer run and blocks can be generated independently.  They are
  drawn concurrently, one thread per usable CPU, each block in pieces of
  about ``_PIECE`` marks; the bytes depend on neither the CPU count nor
  the pieces, and no flag or variable sets the thread count.

Ensemble blocks, at most 306, each open their two substreams with
``default_rng``.  Catalog years are many, so their keys are hashed
exactly as `numpy.random.SeedSequence` does, and PCG64 seeded,
vectorised in uint64 limb arrays.  Uniform, exponential and GPD
catalog years below rate 10 step as lanes of those arrays, reproducing
``Generator.poisson``'s multiplication method and the following
``Generator.random`` marks from raw PCG64 outputs; other years use one
generator moved to each year's state (cheaper than ``default_rng``).
NEP 19 freezes PCG64 and `SeedSequence`, not `Generator` algorithms;
tests compare states and lane draws bit for bit with ``default_rng``.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import frequency, severity
from .catalog import _INT64_MAX, _INT64_MIN, _MAX_ROWS, EventCatalog, _integer
from .frequency import FrequencyModel, _exp, _poisson, rate, sample_count
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

# Replicates per substream block in fixed-year ensembles, the expected
# marks an ensemble may draw in all, and the marks drawn and aggregated
# at a time within a block, so a thread's arrays stay near its cache.
_BATCH = 32768
_MAX_MARKS = 20 * _MAX_ROWS
_PIECE = 1 << 16


# numpy.random.SeedSequence's hash constants and pool size (uint32
# arithmetic), and the PCG64 multiplier (mod 2**128) as 64-bit limbs.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 2**64 - 1)
_MULT_LO_0, _MULT_LO_1 = np.uint64(_PCG_MULT & _M32), np.uint64(_PCG_MULT >> 32 & _M32)

# Catalog years seeded or stepped as lanes at a time, so memory stays
# flat; lanes cost many numpy calls per chunk.
_CHUNK = 1 << 14


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


def _add(a_hi, a_lo, b_hi, b_lo):
    """``a + b`` mod 2**128, for 128-bit PCG64 states held as (high, low)
    uint64 limb arrays, one element per substream."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _step(hi, lo, inc_hi, inc_lo):
    """One LCG step, ``state * _PCG_MULT + inc`` mod 2**128: the high limb
    of the low limbs' product from 32-bit halves, plus the cross terms."""
    lo_0, lo_1 = lo & _M32, lo >> 32
    p00, p01, p10 = lo_0 * _MULT_LO_0, lo_0 * _MULT_LO_1, lo_1 * _MULT_LO_0
    carry = ((p00 >> 32) + (p01 & _M32) + (p10 & _M32)) >> 32
    top = lo_1 * _MULT_LO_1 + (p01 >> 32) + (p10 >> 32) + carry
    return _add(top + hi * _MULT_LO + lo * _MULT_HI, lo * _MULT_LO, inc_hi, inc_lo)


def _uniform(hi, lo) -> np.ndarray:
    """``Generator.random``'s double from each state's XSL-RR output."""
    x, rot = hi ^ lo, hi >> 58
    x = x >> rot | x << (64 - rot & 63)
    return (x >> 11) * 2.0**-53


def _pcg64_states(prefix: tuple[int, ...], keys) -> tuple[np.ndarray, ...]:
    """``(state_hi, state_lo, inc_hi, inc_lo)`` of the PCG64 generator
    ``default_rng([*prefix, k])`` for each key in ``keys``, which lie in
    ``[0, 2**32)``, one entropy word each."""
    last = np.asarray(keys, dtype=np.uint32)
    head = [w for n in prefix for w in _words(n)]
    entropy = [np.full(len(last), w, dtype=np.uint32) for w in head] + [last]
    w0, w1, w2, w3 = _seed_sequence_words(entropy)
    # PCG64 seeding: inc = 2 * seq + 1, then two LCG steps around adding
    # the initial state.
    inc = (w2 << 1 | w3 >> 63, w3 << 1 | 1)
    return (*_step(*_add(*inc, w0, w1), *inc), *inc)


def _stream(rng: np.random.Generator, state: int, inc: int) -> np.random.Generator:
    """Move ``rng`` to the start of one substream, given its PCG64 state."""
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _streams(prefix: tuple[int, ...], keys) -> Iterator[np.random.Generator]:
    """The substream ``default_rng([*prefix, k])`` for each ``k`` in
    ``keys``, in order, all on one reused generator: use each before
    taking the next."""
    rng = np.random.Generator(np.random.PCG64(0))  # `_stream` replaces its state
    for s_hi, s_lo, i_hi, i_lo in zip(*(w.tolist() for w in _pcg64_states(prefix, keys))):
        yield _stream(rng, s_hi << 64 | s_lo, i_hi << 64 | i_lo)


def _lane_draws(prefix: tuple[int, ...], keys, lam) -> tuple[np.ndarray, np.ndarray]:
    """Counts and uniform marks of the substreams of ``keys``, each
    stepped as one lane: the draws of ``rng.poisson(lam)`` followed by
    ``rng.random(count)``, for rates in ``(0, 10)``, where numpy uses the
    multiplication method (PTRS from 10 on).  Marks come in key order."""
    hi, lo, inc_hi, inc_lo = _pcg64_states(prefix, keys)
    counts = np.empty(len(keys), dtype=np.int64)
    # The multiplication method: multiply uniforms while the product
    # exceeds exp(-lam), with libm's exp as in numpy's C; the count is
    # one less than the uniforms drawn.
    live = np.arange(len(keys))
    h, l, ih, il, limit, prod = hi, lo, inc_hi, inc_lo, _exp(-lam), np.ones(len(keys))
    drawn = 0
    while live.size:
        h, l = _step(h, l, ih, il)
        prod = prod * _uniform(h, l)
        more = prod > limit
        stop = live[~more]
        counts[stop], hi[stop], lo[stop] = drawn, h[~more], l[~more]
        lanes = live, h, l, ih, il, limit, prod
        live, h, l, ih, il, limit, prod = (v[more] for v in lanes)
        drawn += 1
    # The marks: step the lanes in descending count, so the lanes that
    # still draw at step j are a prefix.
    order = np.argsort(-counts)
    n = counts[order]
    at = (np.cumsum(counts) - counts)[order]
    h, l, ih, il = hi[order], lo[order], inc_hi[order], inc_lo[order]
    marks = np.empty(int(counts.sum()))
    for j, m in enumerate(np.searchsorted(-n, -np.arange(n.max(initial=0))).tolist()):
        h, l = _step(h[:m], l[:m], ih[:m], il[:m])
        marks[at[:m] + j] = _uniform(h, l)
    return counts, marks


@dataclass(frozen=True, kw_only=True)
class SimulationConfig:
    """A frequency/severity pair, an inclusive year span and a seed: one
    validated run configuration.

    Year ``y`` maps to the model year index ``t = y - start + 1``.  The
    years are signed 64-bit integers ``start <= end`` spanning at most
    ``_MAX_ROWS`` years, and a given seed an integer in ``[0, 2**64)``,
    both kept as Python ints; then each model's span check runs once over
    ``[1, n_years]``, its error prefixed ``freq:`` or ``sev:``.  ``seed``
    may be None for the closed forms; the simulators require it.
    """

    freq: FrequencyModel
    sev: SeverityModel
    years: tuple[int, int]
    seed: int | None = None

    def __post_init__(self) -> None:
        start, end = (_integer(year, "years") for year in self.years)
        for year in (start, end):
            if not _INT64_MIN <= year <= _INT64_MAX:
                raise ValueError(f"years: must be signed 64-bit integers, got {year}")
        if start > end:
            raise ValueError(f"years: start {start} exceeds end {end}")
        if (n := end - start + 1) > _MAX_ROWS:
            raise ValueError(f"years: span {n} years, more than the {_MAX_ROWS} a run may hold")
        object.__setattr__(self, "years", (start, end))
        if self.seed is not None:
            seed = _integer(self.seed, "seed")
            if not 0 <= seed < 2**64:
                raise ValueError(f"seed: must fit in unsigned 64 bits, got {seed}")
            object.__setattr__(self, "seed", seed)
        for name, check in (("freq", frequency._check_span), ("sev", severity._check_span)):
            try:
                check(getattr(self, name), 1, self.n_years)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None

    @property
    def n_years(self) -> int:
        return self.years[1] - self.years[0] + 1


def _seed(config: SimulationConfig) -> int:
    if config.seed is None:
        raise ValueError("config: has no seed, which simulation needs")
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
        lam = rate(config.freq, index)
        expected = float(np.sum(lam))
    if not expected <= _MAX_ROWS:
        raise ValueError(
            f"freq: expects {expected:.6g} events over {config.n_years} years, "
            f"more than the {_MAX_ROWS} a catalog may hold"
        )
    sev = config.sev
    inverse_cdf = sev.family in _INVERSE_CDF
    prefix = (seed, _CATALOG)
    # Inverse-CDF years below rate 10 are drawn as lanes, the rest one
    # year at a time; runs of each, cut every _CHUNK years, are taken in
    # year order, as are draws.
    lanes = (lam < 10.0) & inverse_cdf
    changes = np.flatnonzero(np.diff(lanes)) + 1
    cuts = np.union1d(changes, np.arange(_CHUNK, config.n_years, _CHUNK)).tolist()
    counts = np.empty(config.n_years, dtype=np.int64)
    draws: list[np.ndarray] = []
    for a, b in zip([0, *cuts], [*cuts, config.n_years]):
        if lanes[a]:
            counts[a:b], marks = _lane_draws(prefix, index[a:b], lam[a:b])
            draws.append(marks)
            continue
        years = zip(range(a + 1, b + 1), lam[a:b].tolist(), _streams(prefix, index[a:b]))
        for t, lam_t, rng in years:
            n_t = counts[t - 1] = _poisson(lam_t, rng)
            if n_t > 0:
                if inverse_cdf:
                    # marks follow after the loop, one inverse-CDF pass for all
                    draws.append(rng.random(n_t))
                else:
                    draws.append(sample_intensity(sev, t, rng, size=n_t))
    intensities = np.concatenate(draws) if draws else np.empty(0, dtype=np.float64)
    if inverse_cdf:
        mu = np.repeat(sev.driver(index), counts)
        intensities = _inverse_cdf(sev, intensities, mu)
    return EventCatalog(start_year=config.years[0], counts=counts, intensities=intensities)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _each_block(draw, n_blocks: int) -> None:
    """Call ``draw(b)`` once for each block index ``b`` in
    ``range(n_blocks)``, on ``min(_usable_cpus(), n_blocks)`` threads, the
    calling one among them, each taking the next index while any is left.
    The first exception of any thread is raised once every thread has
    stopped."""
    todo = iter(range(n_blocks))
    n_threads = min(_usable_cpus(), n_blocks)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def run():
        try:
            while not errors:  # after a failure, take no further block
                with lock:
                    block = next(todo, None)
                if block is None:
                    return
                draw(block)
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(n_threads - 1)]
    for thread in threads:
        thread.start()
    run()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _year_index(config: SimulationConfig, t) -> int:
    """The year rule of an ensemble: ``t`` as an int in ``[1, config.n_years]``."""
    t = _integer(t, "t")
    if not 1 <= t <= config.n_years:
        raise ValueError(f"t: must lie in [1, {config.n_years}], got {t}")
    return t


def replicate_fixed_year(
    config: SimulationConfig, t: int, replicates: int
) -> FixedYearSample:
    """Draw ``replicates`` independent (N, S) pairs at year ``t``.

    ``t``, a model year index in ``[1, config.n_years]``, and
    ``replicates``, in ``[2, _MAX_ROWS]``, are checked before any
    allocation, and so are expected marks past ``_MAX_ROWS`` in a block
    or past ``_MAX_MARKS`` in all.  Counts and marks come from separate
    per-block substreams, so results for replicate r do not depend on
    how many replicates follow it, nor on which thread draws its block.
    Beyond the sample's 24 bytes per replicate, each thread holds one
    block's mark offsets and one piece of at most ``_PIECE`` marks at a
    time, freed before the next is drawn.
    """
    seed = _seed(config)
    replicates = _integer(replicates, "replicates")
    if replicates < 2:
        raise ValueError(f"replicates: need at least 2, got {replicates}")
    if replicates > _MAX_ROWS:
        raise ValueError(f"replicates: at most {_MAX_ROWS} fit the row budget, got {replicates}")
    t_int = _year_index(config, t)
    lam = rate(config.freq, t_int)
    block = min(replicates, _BATCH)
    if not (marks := block * lam) <= _MAX_ROWS:
        raise ValueError(
            f"freq: expects {marks:.6g} marks in a block of {block} replicates at year "
            f"index {t_int}, more than the {_MAX_ROWS} a block may hold"
        )
    if not (marks := replicates * lam) <= _MAX_MARKS:
        raise ValueError(
            f"freq: expects {marks:.6g} marks in {replicates} replicates at year "
            f"index {t_int}, more than the {_MAX_MARKS} an ensemble may draw"
        )
    counts = np.empty(replicates, dtype=np.int64)
    sums = np.empty(replicates, dtype=np.float64)
    first = np.full(replicates, np.nan)

    def draw(b: int) -> None:
        # Blocks write disjoint slices.
        lo = b * _BATCH
        hi = min(lo + _BATCH, replicates)
        counts_rng = np.random.default_rng([seed, _REPLICATE_COUNTS, t_int, b])
        marks_rng = np.random.default_rng([seed, _REPLICATE_MARKS, t_int, b])
        counts[lo:hi] = sample_count(config.freq, t_int, counts_rng, size=hi - lo)
        n = counts[lo:hi]
        before = np.concatenate(([0], np.cumsum(n)))  # marks before each replicate
        # Pieces of whole replicates, in order, draw the block's marks
        # and sum each replicate's left to right, as one call would.
        a = 0
        while a < len(n):
            # the most whole replicates from a within _PIECE marks, at least one
            z = max(a + 1, int(np.searchsorted(before, before[a] + _PIECE, "right")) - 1)
            x = sample_intensity(config.sev, t_int, marks_rng, size=int(before[z] - before[a]))
            m = n[a:z]
            rep = np.repeat(np.arange(z - a), m)
            sums[lo + a : lo + z] = np.bincount(rep, weights=x, minlength=z - a)
            marked = m > 0
            first[lo + a : lo + z][marked] = x[before[a:z][marked] - before[a]]
            del x, rep  # before the next piece is drawn
            a = z

    _each_block(draw, -(-replicates // _BATCH))
    return FixedYearSample(counts=counts, sums=sums, first_marks=first)
