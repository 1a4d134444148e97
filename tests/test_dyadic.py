"""Exact dyadic arithmetic, cross-checked against stdlib fractions."""

import random
from enum import IntEnum
from fractions import Fraction

import pytest

from odofull import Dyadic


def as_fraction(d: Dyadic) -> Fraction:
    return Fraction(*d.as_integer_ratio())


def test_canonical_form():
    assert Dyadic(6, 3) == Dyadic(3, 2)
    assert Dyadic(0, 7) == Dyadic(0, 0)
    assert Dyadic(4, 0).num == 4 and Dyadic(4, 0).exp2 == 0
    assert Dyadic(-8, 2) == Dyadic(-2, 0)


def test_zero_and_one():
    assert not Dyadic(0)
    assert Dyadic(1)
    assert Dyadic(2, 1) == 1
    assert Dyadic(0, 0) == 0


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Dyadic(1, -1)


def test_non_integer_arguments_rejected():
    # a bool is an int, but it prints as "True/2^0" or "1/2^True"
    bools = ((True, 0), (False, 0), (1, True), (3, False))
    for num, exp2 in ((3, 1.5), (0.5, 0), (Fraction(1, 2), 0), ("3", 1), (3, None), *bools):
        with pytest.raises(TypeError):
            Dyadic(num, exp2)
    for num in (0.5, True):
        with pytest.raises(TypeError):
            Dyadic(num)

    class Level(IntEnum):
        THREE = 3
        TWO = 2

    assert Dyadic(Level.THREE, Level.TWO) == Dyadic(3, 2)
    assert str(Dyadic(6, Level.THREE)) == "3/2^2"


def test_string_round_trip():
    for value in [Dyadic(3, 2), Dyadic(-5, 7), Dyadic(0), Dyadic(1023, 11)]:
        assert Dyadic.from_string(str(value)) == value
    assert str(Dyadic(3, 2)) == "3/2^2"
    assert Dyadic.from_string("7") == Dyadic(7)
    with pytest.raises(ValueError):
        Dyadic.from_string("3/5")


def test_arithmetic_matches_fractions():
    rng = random.Random(7)
    for _ in range(500):
        a = Dyadic(rng.randint(-999, 999), rng.randint(0, 12))
        b = Dyadic(rng.randint(-999, 999), rng.randint(0, 12))
        fa, fb = as_fraction(a), as_fraction(b)
        assert as_fraction(a + b) == fa + fb
        assert as_fraction(a - b) == fa - fb
        assert as_fraction(a * b) == fa * fb
        assert as_fraction(abs(a)) == abs(fa)
        assert as_fraction(-a) == -fa
        assert (a < b) == (fa < fb)
        assert (a <= b) == (fa <= fb)
        assert (a == b) == (fa == fb)


def test_int_mixing():
    assert Dyadic(1, 1) + 1 == Dyadic(3, 1)
    assert 1 - Dyadic(1, 2) == Dyadic(3, 2)
    assert 3 * Dyadic(1, 2) == Dyadic(3, 2)
    assert Dyadic(1, 1) < 1
    assert Dyadic(5, 1) >= 2


def test_hash_consistency():
    assert hash(Dyadic(6, 3)) == hash(Dyadic(3, 2))
    assert len({Dyadic(1, 1), Dyadic(2, 2), Dyadic(4, 3)}) == 1


def test_integer_values_hash_like_ints():
    for n in (0, 1, -1, 2**70, -(2**70)):
        assert hash(Dyadic(n)) == hash(n)
    assert len({Dyadic(1), 1}) == 1
    assert {Dyadic(2): "x"}.get(2) == "x"
    assert hash(Dyadic(3, 2)) == hash(Dyadic(6, 3))


def test_float_is_approximate_view_only():
    assert float(Dyadic(1, 2)) == 0.25
    assert float(Dyadic(-3, 1)) == -1.5
