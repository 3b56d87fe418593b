"""Decorated cleaved links: circles, keys, enumeration."""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tanglejones import (
    CleavedGen,
    Matching,
    basis_count,
    circles_of,
    enumerate_matchings,
)
from tanglejones.cleaved import _key_blocks

from .helpers import _cut_circles, cleaved_basis

small_gens = st.integers(1, 3).flatmap(lambda n: st.sampled_from(cleaved_basis(n)))


def test_basis_counts():
    assert len(cleaved_basis(0)) == 1
    assert len(cleaved_basis(1)) == 2
    assert len(cleaved_basis(2)) == 12
    assert len(cleaved_basis(3)) == 104


def test_empty_generator():
    (g,) = cleaved_basis(0)
    assert g.n == 0
    assert circles_of(g.inside, g.outside) == ()
    assert g.key() == "[||]"


def test_circle_structure_n2():
    nested, parallel = Matching.decode((4, 2)), Matching.decode((2, 4))
    assert circles_of(nested, parallel) == ((1, 2, 3, 4),)
    assert circles_of(parallel, nested) == ((1, 2, 3, 4),)
    assert circles_of(nested, nested) == ((1, 4), (2, 3))
    assert circles_of(parallel, parallel) == ((1, 2), (3, 4))


@pytest.mark.parametrize("n", range(6))
def test_circles_agree_with_a_union_find_of_points(n):
    matchings = enumerate_matchings(n)
    for inside in matchings:
        for outside in matchings:
            assert circles_of(inside, outside) == _cut_circles(inside, outside), (inside, outside)


def test_circles_are_ordered_by_smallest_point():
    # Walking from the odd points only would list (3, 4) before (2, 5).
    m = Matching.decode((6, 4, 2))
    assert circles_of(m, m) == _cut_circles(m, m) == ((1, 6), (2, 5), (3, 4))


def test_keys_n2():
    keys = [g.key() for g in cleaved_basis(2)]
    assert keys == [
        "[2,4|2,4|++]",
        "[2,4|2,4|+-]",
        "[2,4|2,4|-+]",
        "[2,4|2,4|--]",
        "[2,4|4,2|+]",
        "[2,4|4,2|-]",
        "[4,2|2,4|+]",
        "[4,2|2,4|-]",
        "[4,2|4,2|++]",
        "[4,2|4,2|+-]",
        "[4,2|4,2|-+]",
        "[4,2|4,2|--]",
    ]


def test_decoration_validation():
    nested = Matching.decode((4, 2))
    with pytest.raises(ValueError):
        CleavedGen(nested, nested, (1,))  # two circles need two signs
    with pytest.raises(ValueError):
        CleavedGen(nested, nested, (1, 0))  # signs are +1 or -1
    for bad in [2, None, "+", 1.5, [1]]:  # [1] is unhashable and still a ValueError
        with pytest.raises(ValueError, match="decorations must be"):
            CleavedGen(nested, nested, (1, bad))
    with pytest.raises(ValueError):
        CleavedGen(nested, Matching(()), ())  # n mismatch
    with pytest.raises(ValueError, match="must pair the same points"):
        circles_of(nested, Matching(()))
    # values equal to +1 or -1 pass, as they always have
    assert CleavedGen(nested, nested, (True, -1)) == CleavedGen(nested, nested, (1, -1))
    assert CleavedGen(nested, nested, (1.0, -1)) == CleavedGen(nested, nested, (1, -1))


@given(small_gens)
def test_circles_partition_the_points(g):
    seen = sorted(p for circle in circles_of(g.inside, g.outside) for p in circle)
    assert seen == list(range(1, 2 * g.n + 1))


@given(small_gens)
def test_circles_alternate_between_sides(g):
    for circle in circles_of(g.inside, g.outside):
        pts = set(circle)
        for p in circle:
            assert g.inside.pairs[p - 1] in pts
            assert g.outside.pairs[p - 1] in pts


@given(small_gens)
def test_key_identifies_generator(g):
    matches = [h for h in cleaved_basis(g.n) if h.key() == g.key()]
    assert matches == [g]


def test_enumeration_distinct_keys():
    for n in range(4):
        keys = [g.key() for g in cleaved_basis(n)]
        assert len(set(keys)) == len(keys)


def test_streamed_keys_and_count_follow_the_generators():
    for n in range(6):
        gens = cleaved_basis(n)
        keys = [head + tail for head, tails in _key_blocks(n) for tail in tails]
        assert keys == [g.key() for g in gens]
        assert basis_count(n) == len(gens)
    with pytest.raises(ValueError):
        basis_count(-1)
    with pytest.raises(ValueError):
        list(_key_blocks(-1))


@pytest.mark.parametrize("n", [2.0, "3", True, None, 1.5])
def test_basis_wants_a_plain_int(n):
    message = f"^n must be an integer, got {re.escape(repr(n))}$"
    with pytest.raises(ValueError, match=message):
        basis_count(n)
    with pytest.raises(ValueError, match=message):
        list(_key_blocks(n))
