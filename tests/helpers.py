"""Shared helpers: relative error, randomized model generation, extreme
model coefficients and event CSV bytes for property tests, reading back
the series CSV that ``analyze`` writes and strict parsing of the JSON
that the CLI writes."""

from __future__ import annotations

import json
import math

import numpy as np
from hypothesis import strategies as st

import stormrisk as sr

FAMILIES = ("uniform", "gamma", "exponential", "lognormal", "gpd")

# Coefficients at the edges of double arithmetic: exp overflow (709.78)
# and underflow to 0 (-745.13), subnormals, +-1e308 and non-finite values,
# plus ordinary ones.
EXTREME_FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
         709.78, 709.79, -745.13, -745.14, 354.0, -372.0,
         1e308, -1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
    ),
    st.floats(-760.0, 720.0),
    st.floats(-1e-300, 1e-300),
    st.floats(),
)
# Random models below are usable on the year indices 1 to RANDOM_YEARS.
RANDOM_YEARS = 60


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def read_series(path) -> np.ndarray:
    """A series CSV as a structured array with one field per column;
    empty fields read as NaN."""
    return np.genfromtxt(path, delimiter=",", names=True, ndmin=1)


def strict_json(text: str):
    """``json.loads`` that rejects the ``NaN``, ``Infinity`` and
    ``-Infinity`` tokens, which strict JSON parsers refuse."""

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=reject)


def random_severity(rng, family=None) -> sr.SeverityModel:
    """A random severity model, usable on the years 1 to RANDOM_YEARS."""
    if family is None:
        family = FAMILIES[rng.integers(len(FAMILIES))]
    t_max = RANDOM_YEARS
    if family == "lognormal":
        beta0 = rng.uniform(-1.0, 2.0)
        beta1 = rng.uniform(-0.02, 0.02)
        shape = rng.uniform(0.2, 1.5)
    else:
        beta0 = rng.uniform(0.5, 20.0)
        # slope bounded so the driver stays above beta0 / 2 on those years
        beta1 = rng.uniform(-beta0 / (2 * t_max), beta0 / t_max)
        if family == "gamma":
            shape = rng.uniform(0.3, 5.0)
        elif family == "gpd":
            shape = rng.uniform(-1.0, 0.45)
        else:
            shape = None
    return sr.SeverityModel(family=family, beta0=beta0, beta1=beta1, shape=shape)


def random_frequency(rng) -> sr.FrequencyModel:
    """A random frequency model, usable on the years 1 to RANDOM_YEARS."""
    t_max = RANDOM_YEARS
    if rng.random() < 0.5:
        # keep the linear predictor non-negative so the rate stays >= 1,
        # inside the regime where every closed-form identity is in range
        alpha0 = rng.uniform(0.2, 3.0)
        alpha1 = rng.uniform(-alpha0 / (2 * t_max), alpha0 / t_max)
        return sr.FrequencyModel(alpha0=alpha0, alpha1=alpha1, link="log")
    alpha0 = rng.uniform(1.0, 40.0)
    alpha1 = rng.uniform(-alpha0 / (2 * t_max), alpha0 / t_max)
    return sr.FrequencyModel(alpha0=alpha0, alpha1=alpha1, link="identity")


def random_model_pair(rng, family=None):
    """(frequency, severity, year index) with everything in range."""
    freq = random_frequency(rng)
    sev = random_severity(rng, family)
    t = int(rng.integers(1, RANDOM_YEARS + 1))
    return freq, sev, t


def stationary_config(family, *, lam, mu, shape=None, years=(1, 60), seed=0):
    """Simulation config with constant rate and constant severity scale."""
    freq = sr.FrequencyModel(alpha0=lam, alpha1=0.0, link="identity")
    sev = sr.SeverityModel(family=family, beta0=mu, beta1=0.0, shape=shape)
    return sr.SimulationConfig(freq=freq, sev=sev, years=years, seed=seed)


# Years stay small or sit at the int64 limits: a file mixing the two asks
# for a per-year array far beyond any machine, which fails at once, while
# a span of 10^8 to 10^9 years would really be allocated.
CLEAN_YEARS = st.integers(-3, 2100).map(str)
ODD_YEARS = st.sampled_from(
    [
        "+2040",
        "-7",
        "0005",
        "1_0",
        "2040.0",
        "2e3",
        "9223372036854775807",
        "-9223372036854775808",
        "9223372036854775808",
        "99999999999999999999",
        "#2040",
        "",
        "year",
        "\u0663",
    ]
)
CLEAN_INTENSITIES = st.one_of(
    st.floats(min_value=5e-324, max_value=1e308).map(repr),
    st.floats(min_value=0.01, max_value=1e4).map(repr),
    st.integers(1, 500).map(str),
    st.sampled_from([".5", "5.", "+2.5", "1e3", "2.5E-3", "5e-324", "1.7976931348623157e308"]),
)
ODD_INTENSITIES = st.sampled_from(
    [
        "0",
        "-3",
        "-2.5",
        "1e400",
        "1e-400",
        "-0.0",
        "nan",
        "inf",
        "-inf",
        "Infinity",
        "1_0.5",
        "0x10",
        "3#",
        "2.5#note",
        "1e3 # x",
        "#3",
        "",
        "abc",
    ]
)
YEARS = st.one_of(CLEAN_YEARS, ODD_YEARS)
INTENSITIES = st.one_of(CLEAN_INTENSITIES, ODD_INTENSITIES)
PADDING = st.sampled_from(["", "", "", " ", "  ", "\t", "\xa0"])
CLEAN_KINDS = ("row",) * 12 + ("blank",)
ODD_KINDS = ("space", "one", "three")


@st.composite
def fields(draw, token, quoted):
    text = draw(token)
    if quoted and draw(st.booleans()):
        text = f'"{text}"'
    return draw(PADDING) + text + draw(PADDING)


@st.composite
def lines(draw, years, intensities, kinds, quoted=False):
    """One body line of a kind drawn from ``kinds``; fields are padded and,
    if ``quoted``, sometimes quoted."""
    kind = draw(st.sampled_from(kinds))
    if kind == "blank":
        return ""
    if kind == "space":
        return draw(st.sampled_from([" ", "\t", "  \t ", "\xa0"]))
    row = [draw(fields(years, quoted))]
    if kind != "one":
        row.append(draw(fields(intensities, quoted)))
    if kind == "three":
        row.append(draw(fields(intensities, quoted)))
    return ",".join(row)


CLEAN_LINES = lines(CLEAN_YEARS, CLEAN_INTENSITIES, CLEAN_KINDS)
ANY_LINES = lines(YEARS, INTENSITIES, CLEAN_KINDS + ODD_KINDS, quoted=True)
ODD_LINES = st.one_of(
    lines(ODD_YEARS, INTENSITIES, ("row",)),
    lines(YEARS, ODD_INTENSITIES, ("row",)),
    lines(CLEAN_YEARS, CLEAN_INTENSITIES, ("row",), quoted=True),
    lines(YEARS, INTENSITIES, ODD_KINDS, quoted=True),
)


@st.composite
def event_csvs(draw) -> bytes:
    """The bytes of an event CSV, with any line ends and an optional BOM:
    clean throughout, clean but for one odd line, or arbitrary."""
    mode = draw(st.sampled_from(["clean", "one odd line", "one odd line", "arbitrary"]))
    headers = ["year,intensity", " Year , INTENSITY "]
    if mode == "arbitrary":
        headers += ['"year","intensity"', "yr,intensity", "year", ""]
    header = draw(st.sampled_from(headers))
    body = draw(st.lists(ANY_LINES if mode == "arbitrary" else CLEAN_LINES, max_size=12))
    if mode == "one odd line":
        body.insert(draw(st.integers(0, len(body))), draw(ODD_LINES))
    rows = [header] + body
    eol = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    if eol == "mixed":
        ends = draw(
            st.lists(
                st.sampled_from(["\n", "\r\n", "\r"]),
                min_size=len(rows),
                max_size=len(rows),
            )
        )
    else:
        ends = [eol] * len(rows)
    if not draw(st.booleans()):
        ends[-1] = ""
    text = "".join(row + end for row, end in zip(rows, ends))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + text).encode("utf-8")
