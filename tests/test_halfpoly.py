"""Half-integer Laurent polynomials: ring laws and canonical text."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglejones import ZERO, HalfLaurent

ONE = HalfLaurent({0: 1})

polys = st.builds(
    HalfLaurent,
    st.dictionaries(st.integers(-12, 12), st.integers(-9, 9), max_size=6),
)


@st.composite
def poly_pairs(draw):
    """Two polynomials: equal, unrelated, or apart in one coefficient or
    one exponent.  A coefficient moves by 1 or 2 and an exponent by 1 or 2
    or to its negative, the edits a careless render could hide."""
    small = st.dictionaries(st.integers(-6, 6), st.integers(-3, 3), max_size=4)
    terms = draw(small)
    other = dict(terms)
    kind = draw(st.sampled_from(["equal", "unrelated", "coefficient", "exponent"]))
    if kind == "unrelated":
        other = draw(small)
    elif kind != "equal" and other:
        e2 = draw(st.sampled_from(sorted(other)))
        if kind == "coefficient":
            other[e2] += draw(st.sampled_from([-2, -1, 1, 2]))
        else:
            moved = draw(st.sampled_from([-e2, e2 - 2, e2 - 1, e2 + 1, e2 + 2]))
            c = other.pop(e2)
            other[moved] = other.get(moved, 0) + c
    return HalfLaurent(terms), HalfLaurent(other)


def test_zero_and_one():
    assert not ZERO
    assert ONE
    assert HalfLaurent({3: 0}) == ZERO
    assert ONE != ZERO


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


def test_int_and_bool_operands_are_refused():
    # + and * of two polynomials are the whole ring interface: an int or a
    # bool is never coerced, and there is no negation, subtraction or power.
    q = HalfLaurent({2: 1})
    for op in (
        lambda: ONE + True,
        lambda: q + 1,
        lambda: 1 + q,
        lambda: 2 * q,
        lambda: q * 2,
    ):
        with pytest.raises(TypeError):
            op()
    assert ONE != 1 and ONE != True  # noqa: E712
    for name in ("__neg__", "__sub__", "__rsub__", "__pow__", "__radd__", "__rmul__"):
        assert not hasattr(HalfLaurent, name), name


@pytest.mark.parametrize("terms", [{True: 1}, {0: True}, {1.0: 1}, {1: 1.0}, {"1": 1}])
def test_terms_must_be_plain_integers(terms):
    # a bool is an int subclass, but q^(True/2) is no exponent to print
    with pytest.raises(TypeError):
        HalfLaurent(terms)


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
    assert a + HalfLaurent({0: -1}) * a == ZERO


@given(polys)
def test_multiplicative_identity(a):
    assert a * ONE == a
    assert a * ZERO == ZERO


@settings(max_examples=400, derandomize=True)
@given(poly_pairs())
def test_render_tells_polynomials_apart(pair):
    a, b = pair
    assert (a.render() == b.render()) == (a == b)
