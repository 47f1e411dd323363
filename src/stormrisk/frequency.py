"""Yearly event counts as a time-varying Poisson process.

The count in year ``t`` is Poisson with rate ``lambda_t`` given by one
of two links on a linear predictor:

* log link:       lambda_t = exp(alpha0 + alpha1 * t)
* identity link:  lambda_t = alpha0 + alpha1 * t

Construction requires the rate to be positive and finite over the
model's declared horizon, for either link: the identity rate can go
non-positive or overflow, the log rate can overflow or underflow to 0.

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
    """Immutable Poisson count model with a log or identity rate link."""

    alpha0: float
    alpha1: float
    link: RateLink
    horizon: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "link", RateLink(self.link))
        t_min, t_max = _horizon_bounds(self.horizon)

        # The linear predictor and exp are monotone in t, so a rate that is
        # positive and finite at both endpoints is so on the whole horizon.
        if self.link is RateLink.IDENTITY:
            # Report the first non-positive integer year for a usable message.
            if min(self._raw_rate(t_min), self._raw_rate(t_max)) <= 0:
                t_bad = self._first_nonpositive_year()
                raise ValueError(
                    f"identity-link rate non-positive at t={t_bad}: "
                    f"{self.alpha0} + {self.alpha1}*{t_bad} <= 0"
                )
        for t in (t_min, t_max):
            try:
                lam = self._raw_rate(t)
            except OverflowError:
                lam = math.inf
            if not 0 < lam < math.inf:
                raise ValueError(
                    f"{self.link.value}-link rate at t={t} is {lam}, not positive "
                    f"and finite"
                )

    def _raw_rate(self, t):
        eta = self.alpha0 + self.alpha1 * t
        return _exp(eta) if self.link is RateLink.LOG else eta

    def _first_nonpositive_year(self) -> float:
        t_min, t_max = self.horizon
        if self._raw_rate(t_min) <= 0:
            return t_min
        # rate decreasing; first integer year at or past the root
        root = -self.alpha0 / self.alpha1
        t = max(t_min, math.ceil(root))
        while self._raw_rate(t) > 0 and t <= t_max:
            t += 1
        return min(t, t_max)


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


def _horizon_bounds(horizon: tuple[float, float]) -> tuple[float, float]:
    """A model's ``horizon``, checked to be finite and ordered."""
    t_min, t_max = horizon
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise ValueError(f"horizon: bounds must be finite, got {horizon}")
    if t_min > t_max:
        raise ValueError(f"horizon: must satisfy t_min <= t_max, got {horizon}")
    return t_min, t_max


def _check_horizon(horizon: tuple[float, float], t) -> None:
    """Raise naming ``t``, or an array's first year, outside ``horizon``."""
    t_min, t_max = horizon
    if isinstance(t, np.ndarray):
        if t.size == 0 or (t_min <= t.min() and t.max() <= t_max):
            return
        t = t[~((t_min <= t) & (t <= t_max))][0].item()
    if not (t_min <= t <= t_max):
        raise ValueError(f"t: must lie in [{t_min}, {t_max}], got {t}")


def rate(model: FrequencyModel, t):
    """Poisson rate ``lambda_t``; equals both E[N|t] and Var(N|t).

    ``t`` is a year index or a 1-D array of them.  An array gives each
    year the bits of its own scalar call, so the log link applies libm's
    ``exp`` per element: numpy's differs in the last bit on a few percent
    of inputs.
    """
    _check_horizon(model.horizon, t)
    return model._raw_rate(t)


def _poisson(lam: float, rng: np.random.Generator, size: int | None = None):
    """``size`` Poisson draws with mean ``lam``, or one int without ``size``."""
    return rng.poisson(lam, size)


def sample_count(model: FrequencyModel, t: float, rng: np.random.Generator, size: int):
    """``size`` Poisson draws with mean ``rate(model, t)``."""
    return _poisson(rate(model, t), rng, int(size))
