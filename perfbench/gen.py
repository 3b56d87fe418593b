"""Seeded input generators.

Every diagram is drawn in Morse position: strands run up through a strip,
and each event is a crossing of two neighbouring strands, a cup that starts
two strands, or a cap that ends two.  Such a drawing is planar by
construction.  Strands entering from below and leaving at the top are the
boundary points, numbered counterclockwise from the bottom-left corner.
Signs are never chosen: a random orientation is traced and each crossing
gets the sign that orientation gives (``diagrams.orient``).  Edge labels and
crossing order are then shuffled, so equal shapes still give distinct files.

T(2, m) closures use the labelling of ``corpus/trefoil.tangle`` instead:
crossing j = 0..m-1 is ``+ 2j-1 2j+1 2j+2 2j`` with labels mod 2m in 1..2m.
"""

from __future__ import annotations

import random
from itertools import count

from .diagrams import Diagram, glue, orient, orientation, with_orientation


class Strip:
    """A diagram under construction, bottom to top."""

    def __init__(self, bottom: int):
        self._fresh = count(1)
        self.strands = [next(self._fresh) for _ in range(bottom)]
        self.bottom = list(self.strands)
        self.crossings: list[tuple[int, int, int, int]] = []
        self.loops = 0
        self._parent: dict[int, int] = {}

    def _find(self, x: int) -> int:
        while self._parent.get(x, x) != x:
            x = self._parent[x]
        return x

    def cross(self, i: int, over_rises: bool) -> None:
        """Cross the strands at positions i and i+1.

        ``over_rises`` puts the strand from bottom-left to top-right on top.
        Slots are stored counterclockwise starting on the under-strand.
        """
        bl, br = self.strands[i], self.strands[i + 1]
        tl, tr = next(self._fresh), next(self._fresh)
        ccw = (bl, br, tr, tl)
        self.crossings.append(ccw[1:] + ccw[:1] if over_rises else ccw)
        self.strands[i : i + 2] = [tl, tr]

    def cup(self, i: int) -> None:
        e = next(self._fresh)
        self.strands[i:i] = [e, e]

    def cap(self, i: int) -> None:
        x, y = self._find(self.strands[i]), self._find(self.strands[i + 1])
        del self.strands[i : i + 2]
        if x == y:
            self.loops += 1
        else:
            self._parent[y] = x

    def diagram(self, name: str, side: str = "inside") -> Diagram:
        """The finished drawing; signs are placeholders until ``orient``."""
        top = list(reversed(self.strands))
        points = [self._find(e) for e in self.bottom + top]
        crossings = tuple((1, tuple(self._find(e) for e in c)) for c in self.crossings)
        if side == "outside":
            # seen from the outside disk the plane is mirrored: slot order reverses
            crossings = tuple((s, (c[0], c[3], c[2], c[1])) for s, c in crossings)
        return Diagram(
            name,
            side,
            len(points),
            crossings,  # type: ignore[arg-type]
            self.loops,
            {p: e for p, e in enumerate(points, start=1)},
        )


def shuffled(d: Diagram, rng: random.Random) -> Diagram:
    """Relabel edges 1..E at random and shuffle the crossing order."""
    labels = sorted({e for _, s in d.crossings for e in s} | set(d.boundary.values()))
    new = list(range(1, len(labels) + 1))
    rng.shuffle(new)
    to = dict(zip(labels, new))
    crossings = [(sign, tuple(to[e] for e in slots)) for sign, slots in d.crossings]
    rng.shuffle(crossings)
    return Diagram(
        d.name,
        d.side,
        d.endpoints,
        tuple(crossings),  # type: ignore[arg-type]
        d.loops,
        {p: to[e] for p, e in d.boundary.items()},
    )


def torus(m: int, name: str | None = None) -> Diagram:
    """T(2, m) in the corpus labelling, all crossings positive."""

    def lab(x: int) -> int:
        return (x - 1) % (2 * m) + 1

    crossings = tuple(
        (1, (lab(2 * j - 1), lab(2 * j + 1), lab(2 * j + 2), lab(2 * j))) for j in range(m)
    )
    return Diagram(name or f"t2_{m}", "inside", 0, crossings, 0, {})  # type: ignore[arg-type]


def braid_closure(strands: int, word: list[tuple[int, bool]]) -> Strip:
    """Closure of a braid word; each letter is (generator index, over_rises)."""
    s = Strip(0)
    for i in range(strands):
        s.cup(i)
    for i, over in word:
        s.cross(i, over)
    for j in range(strands):
        s.cap(strands - 1 - j)
    return s


def pretzel_closure(twists: list[int]) -> Strip:
    """The pretzel link P(t1, ..., tr): r vertical twist regions side by side."""
    s = Strip(0)
    s.cup(0)
    for j in range(1, len(twists)):
        s.cup(2 * j - 1)
    for j, t in enumerate(twists):
        for _ in range(abs(t)):
            s.cross(2 * j, t > 0)
    for _ in range(len(twists) - 1):
        s.cap(1)
    s.cap(0)
    return s


def _split(total: int, parts: int, rng: random.Random) -> list[int]:
    """A random composition of total into parts positive summands."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def closed_knot(family: str, crossings: int, rng: random.Random, name: str) -> Diagram:
    """One closed diagram of the family with exactly that many crossings."""
    if family == "torus":
        return shuffled(torus(crossings, name), rng)
    if family == "braid":
        strands = rng.choice((3, 4))
        word = [(rng.randrange(strands - 1), rng.random() < 0.5) for _ in range(crossings)]
        s = braid_closure(strands, word)
    elif family == "pretzel":
        sizes = _split(crossings, 3, rng)
        s = pretzel_closure([t if rng.random() < 0.5 else -t for t in sizes])
    else:
        raise ValueError(f"unknown family {family!r}")
    return shuffled(orient(s.diagram(name), rng), rng)


def _random_strip(endpoints: int, crossings: int, rng: random.Random) -> Strip:
    """A random tangle drawing with the given boundary size and crossings.

    Half the points enter from below; the strip starts and ends with as
    many strands as that leaves, and cups and caps in between vary the
    boundary matching.
    """
    bottom = endpoints // 2
    top = endpoints - bottom
    s = Strip(bottom)
    placed = 0
    while placed < crossings or len(s.strands) != top:
        width = len(s.strands)
        need = crossings - placed
        roll = rng.random()
        if width < 2 or (roll < 0.15 and width < endpoints + 2 and need):
            s.cup(rng.randrange(width + 1))
        elif need and (roll < 0.85 or width == top):
            s.cross(rng.randrange(width - 1), rng.random() < 0.5)
            placed += 1
        elif width > top:
            s.cap(rng.randrange(width - 1))
        else:
            s.cup(rng.randrange(width + 1))
    return s


def tangle_pair(
    endpoints: int, crossings: int, outside_crossings: int, rng: random.Random, name: str
) -> tuple[Diagram, Diagram]:
    """An inside tangle and a seeded outside complement, oriented together.

    Drawings with crossingless loops are redrawn, so every closed component
    runs through a crossing.  The orientation is chosen on the glued link, so each half carries signs
    that one orientation of the whole link gives.
    """
    inside = _random_strip(endpoints, crossings, rng).diagram(name, "inside")
    outside = _random_strip(endpoints, outside_crossings, rng).diagram(name + "_out", "outside")
    while inside.loops:
        inside = _random_strip(endpoints, crossings, rng).diagram(name, "inside")
    while outside.loops:
        outside = _random_strip(endpoints, outside_crossings, rng).diagram(name + "_out", "outside")
    choice = orientation(glue(inside, outside), rng)
    k = len(inside.crossings)
    inside = with_orientation(inside, choice[:k])
    outside = with_orientation(outside, choice[k:])
    return shuffled(inside, rng), shuffled(outside, rng)
