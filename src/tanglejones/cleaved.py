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
from functools import lru_cache
from itertools import product

from .planar import Matching, enumerate_matchings

__all__ = ["CleavedGen", "circles_of", "enumerate_cleaved"]

_SIGNS = {1: "+", -1: "-"}


@lru_cache(maxsize=None)
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
    seen: set[int] = set()
    circles: list[tuple[int, ...]] = []
    for start in range(1, 2 * inside.n + 1):
        if start in seen:
            continue
        orbit: list[int] = []
        p = start
        follow_inside = True
        while True:
            orbit.append(p)
            seen.add(p)
            p = inside.partner(p) if follow_inside else outside.partner(p)
            follow_inside = not follow_inside
            if p == start:
                break
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
        k = len(circles_of(self.inside, self.outside))
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


@lru_cache(maxsize=None)
def _cleaved(n: int) -> tuple[CleavedGen, ...]:
    out: list[CleavedGen] = []
    matchings = enumerate_matchings(n)
    for inside in matchings:
        for outside in matchings:
            k = len(circles_of(inside, outside))
            for decs in product((1, -1), repeat=k):
                out.append(CleavedGen(inside, outside, decs))
    return tuple(out)


def enumerate_cleaved(n: int) -> list[CleavedGen]:
    """All decorated cleaved links on 2n points, in deterministic order.

    Ordered lexicographically by inside encoding, then outside encoding,
    then decorations with + before -.  The counts for n = 1, 2, 3 are
    2, 12 and 104.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_cleaved(n))
