"""Half-integer Laurent polynomials: arithmetic, grammar, round trips."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tanglejones import ONE, ZERO, HalfLaurent, monomial, parse, render

polys = st.builds(
    HalfLaurent,
    st.dictionaries(st.integers(-12, 12), st.integers(-9, 9), max_size=6),
)


def test_zero_and_one():
    assert not ZERO
    assert ONE
    assert ZERO == 0
    assert ONE == 1
    assert HalfLaurent({3: 0}) == ZERO


def test_monomial_signs_and_exponents():
    assert monomial(0, 0) == ONE
    assert monomial(1, 0) == -ONE
    assert monomial(2, 3) == HalfLaurent({6: 1})
    assert monomial(1, Fraction(5, 2)) == HalfLaurent({5: -1})
    assert monomial(0, Fraction(-1, 2)) == HalfLaurent({-1: 1})
    with pytest.raises(ValueError):
        monomial(0, Fraction(1, 3))


def test_coefficient_lookup():
    a = HalfLaurent({4: 2, -1: -3})
    assert a.coefficient(4) == 2
    assert a.coefficient(-1) == -3
    assert a.coefficient(0) == 0
    assert a.support() == {4, -1}
    assert a.sorted_terms() == ((4, 2), (-1, -3))


def test_render_grammar():
    assert render(ZERO) == "0"
    assert render(ONE) == "1"
    assert render(HalfLaurent({2: 1})) == "q"
    assert render(HalfLaurent({6: 1})) == "q^3"
    assert render(HalfLaurent({-2: 1})) == "q^(-1)"
    assert render(HalfLaurent({3: 1})) == "q^(3/2)"
    assert render(HalfLaurent({-3: 1})) == "q^(-3/2)"
    assert render(HalfLaurent({4: 2})) == "2*q^2"
    assert render(HalfLaurent({0: -5})) == "-5"
    assert render(HalfLaurent({2: 1, 0: 1, -2: -1})) == "q + 1 - q^(-1)"
    assert render(HalfLaurent({12: 1, 8: 1, 4: 1, 0: 1})) == "q^6 + q^4 + q^2 + 1"
    assert render(HalfLaurent({1: 1, -1: 2})) == "q^(1/2) + 2*q^(-1/2)"


def test_parse_grammar():
    assert parse("0") == ZERO
    assert parse("1") == ONE
    assert parse("-1") == -ONE
    assert parse("q + 1 - q^(-1)") == HalfLaurent({2: 1, 0: 1, -2: -1})
    assert parse("3*q^(5/2)") == HalfLaurent({5: 3})
    assert parse("-q^9 + q^5 + q^3 + q") == HalfLaurent({18: -1, 10: 1, 6: 1, 2: 1})
    with pytest.raises(ValueError):
        parse("q^(4/2)")
    with pytest.raises(ValueError):
        parse("q +")
    with pytest.raises(ValueError):
        parse("2q")


def test_pow():
    weight = HalfLaurent({2: 1, -2: 1})
    assert weight**0 == ONE
    assert weight**2 == HalfLaurent({4: 1, 0: 2, -4: 1})
    with pytest.raises(ValueError):
        weight ** (-1)


def test_int_coercion():
    a = HalfLaurent({2: 1})
    assert a + 1 == HalfLaurent({2: 1, 0: 1})
    assert 1 + a == a + 1
    assert 2 * a == HalfLaurent({2: 2})
    assert a - 1 == HalfLaurent({2: 1, 0: -1})
    assert 1 - a == HalfLaurent({0: 1, 2: -1})


@given(polys, polys)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(polys)
def test_additive_inverse(a):
    assert a + (-a) == ZERO
    assert a - a == ZERO


@given(polys)
def test_multiplicative_identity(a):
    assert a * ONE == a
    assert a * ZERO == ZERO


@given(polys)
def test_render_parse_round_trip(a):
    assert parse(render(a)) == a
