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
>>> len(enumerate_cleaved(2))
12
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator

from .planar import Matching, enumerate_matchings

__all__ = ["CleavedGen", "basis_count", "basis_keys", "circles_of", "enumerate_cleaved"]

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
        if any(d not in (1, -1) for d in self.decs):
            raise ValueError("decorations must be +1 or -1")

    @property
    def n(self) -> int:
        return self.inside.n

    def circles(self) -> tuple[tuple[int, ...], ...]:
        return circles_of(self.inside, self.outside)

    def key(self) -> str:
        """Canonical text key "[<inside>|<outside>|<decorations>]".

        >>> CleavedGen(Matching.decode((4, 2)), Matching.decode((4, 2)), (-1, 1)).key()
        '[4,2|4,2|-+]'
        """
        signs = "".join(map(_SIGNS.__getitem__, self.decs))
        return f"[{self.inside}|{self.outside}|{signs}]"

    def flip(self, circle_index: int) -> CleavedGen:
        """The same cleaved link with the decoration on one circle negated.

        Circles are numbered from 1 in circle order.
        """
        if not 1 <= circle_index <= len(self.decs):
            raise IndexError(f"circle index {circle_index} out of range 1..{len(self.decs)}")
        decs = list(self.decs)
        decs[circle_index - 1] = -decs[circle_index - 1]
        return replace(self, decs=tuple(decs))


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
    matchings = enumerate_matchings(n)
    for inside in matchings:
        for outside in matchings:
            yield inside, outside, _circle_count(inside, outside)


def enumerate_cleaved(n: int) -> list[CleavedGen]:
    """All decorated cleaved links on 2n points, in deterministic order.

    Ordered lexicographically by inside encoding, then outside encoding,
    then decorations with + before -.  The counts for n = 1, 2, 3 are
    2, 12 and 104.
    """
    return [
        CleavedGen(inside, outside, decs)
        for inside, outside, k in _blocks(n)
        for decs in product((1, -1), repeat=k)
    ]


def basis_count(n: int) -> int:
    """The number of decorated cleaved links on 2n points.

    >>> [basis_count(n) for n in range(5)]
    [1, 2, 12, 104, 1092]
    """
    return sum(2**k for _, _, k in _blocks(n))


def basis_keys(n: int) -> Iterator[str]:
    """The keys of :func:`enumerate_cleaved`, in its order, one at a time.

    Keys are rendered straight from the matchings, so listing the basis
    builds no :class:`CleavedGen` and keeps no key once it is yielded.

    >>> list(basis_keys(1))
    ['[2|2|+]', '[2|2|-]']
    """
    for inside, outside, k in _blocks(n):
        head = f"[{inside}|{outside}|"
        for signs in product("+-", repeat=k):
            yield head + "".join(signs) + "]"
