"""Decorated cleaved links: the basis of the invariant module.

A cleaved link on 2n points is a pair of non-crossing matchings, one drawn
inside the equator and one outside.  Following inside and outside arcs
alternately traces out circles, each crossing the equator; a decoration
assigns + or - to every circle.  Circles are ordered by their smallest
point label, and the decoration tuple follows that order, which makes the
triple (inside, outside, decorations) a complete combinatorial normal form.

The n = 0 case has a single empty generator, so closed diagrams flow
through the same machinery as genuine tangles.

>>> circles_of(Matching.decode((4, 2)), Matching.decode((4, 2)))
((1, 4), (2, 3))
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .planar import _MAX_STATES, Matching, _catalans, enumerate_matchings

__all__ = ["CleavedGen", "basis_count", "circles_of"]

_SIGNS = {1: "+", -1: "-"}


def circles_of(inside: Matching, outside: Matching) -> tuple[tuple[int, ...], ...]:
    """The circles of a cleaved link, each as a sorted point tuple.

    Circles are the orbits of alternately following the inside and the
    outside matching; they partition 1..2n.  The returned tuple is ordered
    by the smallest point of each circle.

    >>> circles_of(Matching.decode((2, 4)), Matching.decode((4, 2)))
    ((1, 2, 3, 4),)
    """
    if inside.n != outside.n:
        raise ValueError("inside and outside matchings must pair the same points")
    ins, outs = inside.pairs, outside.pairs
    seen: set[int] = set()
    circles: list[tuple[int, ...]] = []
    for start in range(1, 2 * inside.n + 1):
        if start in seen:
            continue
        # One inside arc then one outside arc per step; a circle alternates
        # the two kinds, so it closes after an outside arc.
        orbit: list[int] = []
        p = start
        while True:
            mate = ins[p - 1]
            orbit += (p, mate)
            p = outs[mate - 1]
            if p == start:
                break
        seen.update(orbit)
        circles.append(tuple(sorted(orbit)))
    return tuple(circles)


@dataclass(frozen=True)
class CleavedGen:
    """A decorated cleaved link: one basis element of the invariant module.

    ``decs`` holds one sign (+1 or -1) per circle, in circle order.
    """

    inside: Matching
    outside: Matching
    decs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "decs", tuple(self.decs))
        if self.inside.n != self.outside.n:
            raise ValueError("inside and outside matchings must pair the same points")
        k = _circle_count(self.inside, self.outside)
        if len(self.decs) != k:
            raise ValueError(f"expected {k} decorations, got {len(self.decs)}")
        # count compares with ==, so True and 1.0 pass and [1] or None fail
        decs = self.decs
        if decs.count(1) + decs.count(-1) != len(decs):
            raise ValueError("decorations must be +1 or -1")

    @property
    def n(self) -> int:
        return self.inside.n

    def key(self) -> str:
        """Canonical text key "[<inside>|<outside>|<decorations>]".

        >>> CleavedGen(Matching.decode((4, 2)), Matching.decode((4, 2)), (-1, 1)).key()
        '[4,2|4,2|-+]'
        """
        signs = "".join(map(_SIGNS.__getitem__, self.decs))
        return f"[{self.inside}|{self.outside}|{signs}]"


def _circle_count(inside: Matching, outside: Matching) -> int:
    # Every arc joins an odd point to an even one, so an inside arc followed
    # by an outside arc leads from an odd point to an odd point, and each
    # circle is one orbit of that step on the odd points.
    ins, outs = inside.pairs, outside.pairs
    unseen = set(range(1, 2 * inside.n, 2))
    count = 0
    while unseen:
        start = unseen.pop()
        count += 1
        p = outs[ins[start - 1] - 1]
        while p != start:
            unseen.remove(p)
            p = outs[ins[p - 1] - 1]
    return count


def _blocks(n: int) -> Iterator[tuple[Matching, Matching, int]]:
    # One (inside, outside, circle count) per cleaved link, in basis order.
    # A non-int n, or a basis whose Catalan(n)^2 pairs pass _MAX_STATES (from
    # n = 9 on), raises before the first; the walk stops at the first
    # Catalan number over, so a huge n costs nothing.
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    for k, catalan in _catalans(n):
        if catalan * catalan > _MAX_STATES:
            at_least = "" if k == n else f" >= Catalan({k})^2"
            raise ValueError(
                f"basis {n} walks Catalan({n})^2{at_least} = {catalan * catalan} "
                f"(inside, outside) pairs, over the limit of {_MAX_STATES}"
            )
    matchings = enumerate_matchings(n)
    for inside in matchings:
        for outside in matchings:
            yield inside, outside, _circle_count(inside, outside)


def basis_count(n: int) -> int:
    """The number of decorated cleaved links on 2n points.

    Raises ``ValueError`` from n = 9 on, where the Catalan(n)^2 matching
    pairs to walk pass ``_MAX_STATES``.

    >>> [basis_count(n) for n in range(5)]
    [1, 2, 12, 104, 1092]
    """
    return sum(2**k for _, _, k in _blocks(n))


def _key_blocks(n: int) -> Iterator[tuple[str, list[str]]]:
    # One block per (inside, outside) pair: the head "[inside|outside|" its
    # keys share, and the 2^k decoration tails "signs]" of its k circles, a
    # list built once per k and shared.  Head + tail is a key; keys come in
    # basis order: inside encoding, outside encoding, then + before -.
    tails: dict[int, list[str]] = {}
    for inside, outside, k in _blocks(n):
        if k not in tails:
            tails[k] = ["".join(signs) + "]" for signs in product("+-", repeat=k)]
        yield f"[{inside}|{outside}|", tails[k]
