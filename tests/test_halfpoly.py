"""Half-integer Laurent polynomials: arithmetic, grammar, round trips."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tanglejones import ONE, ZERO, HalfLaurent, parse

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


def test_coefficient_lookup():
    a = HalfLaurent({4: 2, -1: -3})
    assert a.support() == {4, -1}
    assert a.sorted_terms() == ((4, 2), (-1, -3))


def test_render_grammar():
    assert ZERO.render() == "0"
    assert ONE.render() == "1"
    assert HalfLaurent({2: 1}).render() == "q"
    assert HalfLaurent({6: 1}).render() == "q^3"
    assert HalfLaurent({-2: 1}).render() == "q^(-1)"
    assert HalfLaurent({3: 1}).render() == "q^(3/2)"
    assert HalfLaurent({-3: 1}).render() == "q^(-3/2)"
    assert HalfLaurent({4: 2}).render() == "2*q^2"
    assert HalfLaurent({0: -5}).render() == "-5"
    assert HalfLaurent({2: 1, 0: 1, -2: -1}).render() == "q + 1 - q^(-1)"
    assert HalfLaurent({12: 1, 8: 1, 4: 1, 0: 1}).render() == "q^6 + q^4 + q^2 + 1"
    assert HalfLaurent({1: 1, -1: 2}).render() == "q^(1/2) + 2*q^(-1/2)"


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


@pytest.mark.parametrize("terms", [{True: 1}, {0: True}, {1.0: 1}, {1: 1.0}, {"1": 1}])
def test_terms_must_be_plain_integers(terms):
    # a bool is an int subclass, but q^(True/2) is no exponent to print
    with pytest.raises(TypeError):
        HalfLaurent(terms)


def test_bool_operands_act_as_integers():
    assert ONE == True  # noqa: E712
    assert (ONE + True).render() == "2"


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
    assert parse(a.render()) == a
