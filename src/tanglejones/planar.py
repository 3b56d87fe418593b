"""Non-crossing perfect matchings of 2n cyclically ordered boundary points.

Boundary points are labeled 1..2n counterclockwise starting at the marked
point.  A matching pairs the points with disjoint arcs in the disk, which is
possible exactly when no two arcs interleave in the cyclic order.  Every arc
of a non-crossing perfect matching joins an odd point to an even point, so a
matching is determined by the tuple listing, for k = 1..n, the even point
paired with point 2k-1.  That tuple is the matching's encoding and doubles
as its text form ("4,2" for the nested pair of arcs 1-4, 3-2).

>>> Matching.decode((4, 2)).pairs
(4, 3, 2, 1)
>>> len(enumerate_matchings(3))
5
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

__all__ = [
    "Matching",
    "enumerate_matchings",
    "rotate_matching",
]


@dataclass(frozen=True)
class Matching:
    """A non-crossing perfect matching of the points 1..2n.

    ``pairs[p - 1]`` is the partner of point ``p``, and ``n`` is half the
    number of points, set on construction.  Construction validates that
    every partner is a plain int and that the pairing is a fixed-point-free
    involution, joins odd points to even points, and has no interleaved
    arcs, then computes the hash once: matchings are dictionary keys, alone
    and inside every cleaved generator, so each lookup returns the stored
    value instead of hashing the fields again.  Equality still compares the
    fields.
    """

    pairs: tuple[int, ...]

    def __post_init__(self) -> None:
        total = len(self.pairs)
        for p in range(1, total + 1):
            mate = self.pairs[p - 1]
            if type(mate) is not int:
                raise ValueError(f"point {p} pairs with {mate!r}, expected an integer")
            if not 1 <= mate <= total:
                raise ValueError(f"point {p} pairs with {mate}, outside 1..{total}")
            if mate == p:
                raise ValueError(f"point {p} pairs with itself")
            if self.pairs[mate - 1] != p:
                raise ValueError(f"pairing is not an involution at point {p}")
            if (p + mate) % 2 == 0:
                raise ValueError(f"arc {p}-{mate} joins two points of the same parity")
        # Arcs nest or are disjoint exactly when a left-to-right sweep can
        # close each arc against the most recently opened one.
        stack: list[int] = []
        for p in range(1, total + 1):
            mate = self.pairs[p - 1]
            if mate > p:
                stack.append(p)
            else:
                if not stack or stack[-1] != mate:
                    raise ValueError(f"arcs interleave at point {p}")
                stack.pop()
        # not fields: equality, repr and fields() see only pairs
        object.__setattr__(self, "n", total // 2)
        object.__setattr__(self, "_hash", hash(self.pairs))

    def __hash__(self) -> int:
        return self._hash

    def encode(self) -> tuple[int, ...]:
        """The even partners of points 1, 3, ..., 2n-1 in order.

        >>> Matching.decode((2, 4)).encode()
        (2, 4)
        """
        return self.pairs[::2]

    @classmethod
    def decode(cls, code: Sequence[int]) -> Matching:
        """The matching whose arc from point 2k-1 ends at code[k-1].

        Rejects codes whose entries are not plain ints forming a
        permutation of the even numbers, and encodings whose arcs would
        cross.
        """
        code = tuple(code)
        n = len(code)
        if any(type(e) is not int for e in code) or sorted(code) != list(range(2, 2 * n + 1, 2)):
            raise ValueError(f"encoding {code} is not a permutation of the even numbers 2..{2 * n}")
        pairs = [0] * (2 * n)
        for k, even in enumerate(code):
            odd = 2 * k + 1
            pairs[odd - 1] = even
            pairs[even - 1] = odd
        return cls(tuple(pairs))

    @cached_property
    def _text(self) -> str:
        # Rendered on first use only: most matchings are never printed.
        return ",".join(map(str, self.encode()))

    def __str__(self) -> str:
        return self._text


def _arc_sets(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    # The first point must pair within its segment at odd distance; the arc
    # then splits the rest into independent inner and outer segments.
    if not points:
        yield ()
        return
    first = points[0]
    for j in range(1, len(points), 2):
        for inner in _arc_sets(points[1:j]):
            for outer in _arc_sets(points[j + 1 :]):
                yield ((first, points[j]),) + inner + outer


@lru_cache(maxsize=None)
def _matchings(n: int) -> tuple[Matching, ...]:
    ms = []
    for arcs in _arc_sets(tuple(range(1, 2 * n + 1))):
        pairs = [0] * (2 * n)
        for a, b in arcs:
            pairs[a - 1], pairs[b - 1] = b, a
        ms.append(Matching(tuple(pairs)))
    return tuple(sorted(ms, key=Matching.encode))


def enumerate_matchings(n: int) -> list[Matching]:
    """All non-crossing perfect matchings of 1..2n, sorted by encoding.

    The count is the n-th Catalan number.

    >>> [str(m) for m in enumerate_matchings(2)]
    ['2,4', '4,2']
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_matchings(n))


def _rotate_point(p: int, steps: int, n: int) -> int:
    """Relabel point p after moving the marked point by the given steps.

    One step moves the marked point one boundary segment counterclockwise,
    which decrements every label by one: the old point 2 becomes the new
    point 1.  Callers pass n >= 1.
    """
    return (p - steps - 1) % (2 * n) + 1


def rotate_matching(m: Matching, steps: int) -> Matching:
    """The same arcs after moving the marked point by the given steps.

    The new point p was the old point p + steps (cyclically), and its
    partner is that point's old partner, relabeled.  Rotation preserves the
    cyclic order, so the result is non-crossing; construction checks it.

    >>> str(rotate_matching(Matching.decode((4, 2)), 1))
    '2,4'
    """
    total = 2 * m.n
    pairs = tuple(_rotate_point(m.pairs[(i + steps) % total], steps, m.n) for i in range(total))
    return Matching(pairs)
