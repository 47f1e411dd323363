"""Yearly event counts as a time-varying Poisson process.

The count in year ``t`` is Poisson with rate ``lambda_t`` given by one
of two links on a linear predictor:

* log link:       lambda_t = exp(alpha0 + alpha1 * t)
* identity link:  lambda_t = alpha0 + alpha1 * t

A model holds no years.  The rate must be positive and finite at every
year where it is used, for either link: the identity rate can go
non-positive or overflow, the log rate can overflow or underflow to 0.
`_check_span` is that rule over a span of years;
`~stormrisk.simulate.SimulationConfig` applies it to a run's years
once, and `rate`, so `sample_count` too, to the years it is given.

Every count is drawn by ``_poisson``, given the rate: `sample_count`
passes ``rate(model, t)``, and a catalog's per-year loop the year's rate
from its one `rate` call.  Catalog lanes (``simulate._lane_draws``)
reproduce those draws from raw PCG64 outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .catalog import _member, _real

__all__ = [
    "RateLink",
    "FrequencyModel",
    "rate",
    "sample_count",
]


class RateLink(str, Enum):
    LOG = "log"
    IDENTITY = "identity"


@dataclass(frozen=True, kw_only=True)
class FrequencyModel:
    """Immutable Poisson count model with a log or identity rate link.
    Construction checks ``link`` and holds ``alpha0`` and ``alpha1`` as
    finite Python floats; the rate is checked where it is used (`_check_span`)."""

    alpha0: float
    alpha1: float
    link: RateLink

    def __post_init__(self) -> None:
        object.__setattr__(self, "link", _member(RateLink, self.link, "link"))
        for name in ("alpha0", "alpha1"):
            object.__setattr__(self, name, _real(getattr(self, name), name))

    def _raw_rate(self, t):
        eta = self.alpha0 + self.alpha1 * t
        return _exp(eta) if self.link is RateLink.LOG else eta


# Elements per chunk in `_each`: the most Python floats it holds at once.
_EACH_CHUNK = 1 << 12


def _each(f, x: np.ndarray) -> np.ndarray:
    """``f``, a function of one Python float, over each element of ``x``."""
    out = np.empty(len(x))
    for lo in range(0, len(x), _EACH_CHUNK):
        out[lo : lo + _EACH_CHUNK] = list(map(f, x[lo : lo + _EACH_CHUNK].tolist()))
    return out


def _exp(x):
    """libm's ``exp`` of a number, or of each element of a 1-D array."""
    return _each(math.exp, x) if isinstance(x, np.ndarray) else math.exp(x)


def _ends(t):
    """The first and last year of ``t``, a year index or a 1-D array of
    them, as Python numbers: ``t`` twice, an array's least and greatest,
    or None for an empty array, which has no year to check."""
    if not isinstance(t, np.ndarray):
        return t, t
    return (t.min().item(), t.max().item()) if t.size else None


def _check_span(model: FrequencyModel, t_min, t_max) -> None:
    """Raise unless the rate is positive and finite at every year of
    ``[t_min, t_max]``.  The linear predictor and exp are monotone in t,
    so a rate that is so at both ends is so on the whole span."""
    raw = model._raw_rate
    if model.link is RateLink.IDENTITY and min(raw(t_min), raw(t_max)) <= 0:
        # name the first non-positive integer year: the rate falls from t_min
        t = t_min
        if raw(t_min) > 0:
            t = max(t_min, math.ceil(-model.alpha0 / model.alpha1))
            while raw(t) > 0 and t <= t_max:
                t += 1
            t = min(t, t_max)
        raise ValueError(
            f"identity-link rate non-positive at t={t}: "
            f"{model.alpha0} + {model.alpha1}*{t} <= 0"
        )
    for t in (t_min, t_max):
        try:
            lam = raw(t)
        except OverflowError:
            lam = math.inf
        if not 0 < lam < math.inf:
            raise ValueError(
                f"{model.link.value}-link rate at t={t} is {lam}, not positive and finite"
            )


def rate(model: FrequencyModel, t):
    """Poisson rate ``lambda_t``; equals both E[N|t] and Var(N|t).

    ``t`` is a year index or a 1-D array of them.  An array gives each
    year the bits of its own scalar call, so the log link applies libm's
    ``exp`` per element: numpy's differs in the last bit on a few percent
    of inputs.  Raises where the rate is not positive and finite
    (`_check_span` over ``t``'s first and last year).
    """
    if (ends := _ends(t)) is not None:
        _check_span(model, *ends)
    return model._raw_rate(t)


def _poisson(lam: float, rng: np.random.Generator, size: int | None = None):
    """``size`` Poisson draws with mean ``lam``, or one int without ``size``."""
    return rng.poisson(lam, size)


def sample_count(model: FrequencyModel, t: float, rng: np.random.Generator, size: int):
    """``size`` Poisson draws with mean ``rate(model, t)``."""
    return _poisson(rate(model, t), rng, int(size))
