"""Non-crossing matchings: enumeration, codes, rotation."""

from __future__ import annotations

import time
from dataclasses import fields
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tanglejones import (
    CleavedGen,
    Matching,
    circles_of,
    enumerate_matchings,
    rotate_matching,
)
from tanglejones.planar import _MAX_STATES, _catalans, _matchings, _rotate_point

CATALAN = [1, 1, 2, 5, 14, 42, 132]

small_matchings = st.integers(0, 5).flatmap(
    lambda n: st.sampled_from(enumerate_matchings(n))
)


def test_counts_are_catalan():
    for n, c in enumerate(CATALAN):
        assert len(enumerate_matchings(n)) == c


def test_empty_matching():
    m = Matching(())
    assert m.n == 0
    assert m.pairs == ()
    assert m.encode() == ()
    assert str(m) == ""


def test_negative_sizes_are_rejected_and_not_cached():
    before = _matchings.cache_info().currsize
    for n in (-1, -7):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            enumerate_matchings(n)
    assert _matchings.cache_info().currsize == before


def test_sizes_over_the_limit_are_rejected_at_once_and_not_cached():
    # Catalan(9) x 2^9 = 2,489,344 decorated matchings are the last within
    # the limit; the guard stops at Catalan(10) x 2^10 and never forms
    # Catalan(n) for a huge n
    assert list(_catalans(10))[-2:] == [(9, 4862), (10, 16796)]
    assert 4862 * 2**9 <= _MAX_STATES < 16796 * 2**10
    before = _matchings.cache_info()
    tail = f"= {16796 * 2**10} decorated matchings, over the limit of {_MAX_STATES}"
    for n, bound in [(10, ""), (40, " >= Catalan(10) x 2^10"), (10**9, " >= Catalan(10) x 2^10")]:
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            enumerate_matchings(n)
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == f"{2 * n} points have Catalan({n}) x 2^{n}{bound} {tail}"
    assert _matchings.cache_info() == before


def test_decode_encode():
    m = Matching.decode((4, 2))
    assert m.pairs[1 - 1] == 4
    assert m.pairs[4 - 1] == 1
    assert m.pairs[2 - 1] == 3
    assert m.pairs == (4, 3, 2, 1)
    assert str(m) == "4,2"
    assert Matching.decode(m.encode()) == m


def test_invalid_matchings_rejected():
    with pytest.raises(ValueError):
        Matching.decode((2, 2, 2))  # not a permutation of the evens
    with pytest.raises(ValueError):
        Matching.decode((2, 6))  # 6 is outside 2..4
    with pytest.raises(ValueError):
        Matching.decode((4, 4))  # reuses 4
    with pytest.raises(ValueError, match="^arcs interleave at point 3$"):
        Matching((3, 4, 1, 2))  # arcs 1-3 and 2-4 interleave, and break parity
    with pytest.raises(ValueError, match="interleave"):
        Matching((4, 5, 6, 1, 2, 3))  # arcs 1-4, 3-6, 5-2: 1-4 and 3-6 interleave
    with pytest.raises(ValueError, match="^point 1 pairs with 3, outside 1..2$"):
        Matching((3, 1))
    with pytest.raises(ValueError, match="^point 1 pairs with itself$"):
        Matching((1, 2))
    with pytest.raises(ValueError, match="^pairing is not an involution at point 1$"):
        Matching((2, 3, 4, 1))
    # an odd number of points has no fixed-point-free involution
    with pytest.raises(ValueError, match="^pairing is not an involution at point 3$"):
        Matching((2, 1, 2))
    # nesting is fine
    assert Matching((4, 3, 2, 1, 6, 5)).encode() == (4, 2, 6)


def _involutions(points: tuple[int, ...]):
    """Every fixed-point-free involution of the points, as (p, q) arcs."""
    if not points:
        yield []
        return
    for j in range(1, len(points)):
        for rest in _involutions(points[1:j] + points[j + 1 :]):
            yield [(points[0], points[j]), *rest]


def test_exactly_the_non_interleaving_involutions_are_matchings():
    # every pairing of up to 12 points, (total - 1)!! for each total,
    # against the definition checked arc pair by arc pair
    seen = accepted = 0
    for total in range(0, 13, 2):
        for arcs in _involutions(tuple(range(1, total + 1))):
            seen += 1
            pairs = [0] * total
            for p, q in arcs:
                pairs[p - 1], pairs[q - 1] = q, p
            crossing = any(a < c < b < d or c < a < d < b for (a, b), (c, d) in combinations(arcs, 2))
            try:
                Matching(tuple(pairs))
            except ValueError as err:
                assert crossing and str(err).startswith("arcs interleave at point "), arcs
                continue
            assert not crossing, arcs
            assert all((p + q) % 2 == 1 for p, q in arcs), arcs
            accepted += 1
    assert seen == 1 + 1 + 3 + 15 + 105 + 945 + 10395
    assert accepted == sum(CATALAN)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Matching((2.0, 1)),
        lambda: Matching((2, True)),
        lambda: Matching.decode((2.0,)),
        lambda: Matching.decode((4.0, 2)),
        lambda: Matching([2, 1]),
        lambda: Matching(None),
    ],
    ids=[
        "float-partner",
        "bool-partner",
        "float-code",
        "float-nested-code",
        "list-pairs",
        "none-pairs",
    ],
)
def test_entries_must_be_plain_ints(build):
    # 2.0 == 2 and True == 1, so only the type check tells them apart; a
    # list would fail only when hashed, and None when measured
    with pytest.raises(ValueError, match="expected an integer|not a permutation|must be a tuple"):
        build()


def test_rotate_point_wraps():
    assert _rotate_point(1, 1, 2) == 4
    assert _rotate_point(2, 1, 2) == 1
    assert _rotate_point(4, 1, 2) == 3
    assert _rotate_point(1, -1, 2) == 2
    assert [_rotate_point(p, 2, 2) for p in (1, 2, 3, 4)] == [3, 4, 1, 2]


@given(small_matchings)
def test_partner_is_fixed_point_free_involution(m):
    for p in range(1, 2 * m.n + 1):
        q = m.pairs[p - 1]
        assert q != p
        assert m.pairs[q - 1] == p
        assert (p + q) % 2 == 1


@given(small_matchings)
def test_arcs_never_interleave(m):
    spans = [(p, q) for p, q in enumerate(m.pairs, start=1) if p < q]
    for lo1, hi1 in spans:
        for lo2, hi2 in spans:
            if (lo1, hi1) != (lo2, hi2):
                assert not (lo1 < lo2 < hi1 < hi2)


@given(small_matchings, st.integers(-6, 6))
def test_rotation_is_a_matching_bijection(m, steps):
    rotated = rotate_matching(m, steps)
    assert rotated.n == m.n
    assert rotate_matching(rotated, -steps) == m
    for p in range(1, 2 * m.n + 1):
        image = _rotate_point(p, steps, m.n)
        assert _rotate_point(m.pairs[p - 1], steps, m.n) == rotated.pairs[image - 1]


@given(small_matchings)
def test_full_turn_is_identity(m):
    assert rotate_matching(m, 2 * m.n) == m


def test_enumeration_is_sorted_and_distinct():
    for n in range(5):
        codes = [m.encode() for m in enumerate_matchings(n)]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)


SMALL_MATCHINGS = [m for n in range(6) for m in enumerate_matchings(n)]


def _fresh_copies(m):
    """Never-printed copies of m from each constructor, plus its rotations."""
    return [
        Matching(m.pairs),
        Matching.decode(m.encode()),
        *(rotate_matching(m, steps) for steps in range(1, 2 * m.n + 1)),
    ]


def test_encoding_and_text_form_follow_the_arcs():
    for m in SMALL_MATCHINGS:
        for built in [m, *_fresh_copies(m)]:
            assert built.encode() == tuple(built.pairs[p - 1] for p in range(1, 2 * built.n, 2))
            text = ",".join(map(str, built.encode()))
            assert str(built) == text
            assert str(built) == text
            assert f"{built}" == text


def test_rendering_leaves_fields_equality_and_hash_alone():
    assert [f.name for f in fields(Matching)] == ["pairs"]
    for m in SMALL_MATCHINGS:
        rendered, plain = Matching(m.pairs), Matching(m.pairs)
        str(rendered)
        assert rendered == plain
        assert plain == rendered
        assert hash(rendered) == hash(plain)
        assert repr(rendered) == repr(plain)
        assert len({rendered, plain}) == 1


def test_equal_matchings_from_every_constructor_are_one_key():
    # The hash is stored at construction, so it must not depend on which
    # constructor built the matching, alone or inside a cleaved generator.
    for n in range(5):
        listed = enumerate_matchings(n)
        index = {m: i for i, m in enumerate(listed)}
        gens = {}
        for a in listed:
            for b in listed:
                gens[CleavedGen(a, b, (-1,) * len(circles_of(a, b)))] = (a, b)
        for m in listed:
            decoded = Matching.decode(m.encode())
            turns = (rotate_matching(rotate_matching(m, s), -s) for s in range(2 * n + 1))
            copies = [decoded, *turns]
            for copy in copies:
                assert copy is not m
                assert copy == m and hash(copy) == hash(m)
                assert listed[index[copy]] is m
            for b in listed:
                turned = rotate_matching(b, 1)
                decs = (-1,) * len(circles_of(decoded, turned))
                g = CleavedGen(decoded, turned, decs)
                assert gens[g] == (m, listed[index[turned]])
                assert hash(g) == hash(CleavedGen(m, listed[index[turned]], decs))
