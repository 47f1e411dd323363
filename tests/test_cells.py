"""The array encoder of CSV cells against the per-cell reference: ``repr``
for every double, ``str`` for every int64, NaN as the missing-value text."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stormrisk._cells import column_words

INT64 = np.iinfo(np.int64)


def cells(values, na_rep: str = "") -> list[str]:
    """The text of each cell of one column chunk, NULs dropped."""
    rows = np.ascontiguousarray(column_words(values, na_rep).T).view(np.uint8)
    return [row[row != 0].tobytes().decode() for row in rows]


def reference(values, na_rep: str = "") -> list[str]:
    return [na_rep if math.isnan(v) else repr(v) for v in values.tolist()]


def assert_reprs(values) -> None:
    values = np.asarray(values, np.float64)
    for signed in (values, -values):
        assert cells(signed) == reference(signed)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_every_bit_pattern_is_written_as_repr(patterns):
    values = np.array(patterns, np.uint64).view(np.float64)
    assert cells(values, "nan") == reference(values, "nan")


def neighbours(values) -> np.ndarray:
    values = np.asarray(values, np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


def test_powers_of_ten_and_their_neighbours():
    assert_reprs(neighbours([float(f"1e{e}") for e in range(-323, 309)]))


def test_subnormals_zeros_infinities_and_the_largest_double():
    smallest_normal = 2.2250738585072014e-308
    steps = np.arange(1, 200, dtype=np.uint64)
    values = [
        5e-324,
        1e-323,
        1.5e-323,
        np.nextafter(smallest_normal, 0.0),
        smallest_normal,
        0.0,
        -0.0,
        math.inf,
        -math.inf,
        1.7976931348623157e308,
        *steps.view(np.float64),
        *(np.uint64(2**52) - steps).view(np.float64),
    ]
    assert_reprs(values)
    assert cells(np.array([0.0, -0.0, 5e-324, -1e-323])) == ["0.0", "-0.0", "5e-324", "-1e-323"]


def test_fifty_steps_around_the_layout_switches():
    for x in (1e-4, 1e-5, 1e16, 1e17):
        bits = np.float64(x).view(np.int64) + np.arange(-50, 51)
        assert_reprs(bits.view(np.float64))


def test_integers_near_two_to_the_53():
    assert_reprs(2.0**53 + np.arange(-60, 61, dtype=np.float64))
    assert_reprs(np.arange(0, 200, dtype=np.float64) * 1e14)


def test_every_power_of_two_and_its_neighbours():
    # c = 2^52 at every exponent: the narrower gap below a power of two
    assert_reprs(neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_nan_is_the_missing_value_text():
    values = np.array([math.nan, 1.5, -math.nan, math.inf])
    assert cells(values, "") == ["", "1.5", "", "inf"]
    assert cells(values, "nan") == ["nan", "1.5", "nan", "inf"]
    assert cells(values, "not a number") == ["not a number", "1.5", "not a number", "inf"]


def test_int64_columns_are_written_as_str():
    rng = np.random.default_rng(5)
    values = np.concatenate(
        [
            [INT64.min, INT64.min + 1, -(10**18), -1, 0, 1, 9999, 10000, 10**18, INT64.max],
            rng.integers(INT64.min, INT64.max, size=500),
            rng.integers(-20000, 20000, size=500),
        ]
    ).astype(np.int64)
    assert cells(values) == [str(v) for v in values.tolist()]
    assert cells(np.zeros(3, np.int64)) == ["0", "0", "0"]


def test_an_unsigned_column_is_written_as_str():
    values = np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 1], np.uint64)
    assert cells(values) == [str(v) for v in values.tolist()]


def test_a_constant_column_keeps_its_sign_and_bits():
    assert cells(np.full(5, 0.1 + 0.2)) == ["0.30000000000000004"] * 5
    assert cells(np.full(3, -0.0)) == ["-0.0"] * 3
    assert cells(np.array([0.0, -0.0, 0.0])) == ["0.0", "-0.0", "0.0"]
    assert cells(np.full(2, math.nan), "nan") == ["nan", "nan"]
