"""State sums over the resolution cube.

Every resolution of a tangle, glued along a matching on the far side of the
equator and decorated on all of its circles, contributes one signed monomial
to the coefficient of one decorated cleaved link.  Summing those monomials
gives a vector over the cleaved-link basis: for an inside tangle this is the
invariant class, for an outside tangle the coefficient table of a functional
on the same basis.  Pairing the two recovers the unnormalized Jones
polynomial of the glued link, and a closed diagram (n = 0) collapses to a
single coefficient, the Jones polynomial itself.

Gradings of a decorated resolution with resolution bits rho:

    h = (number of 1-smoothings) - (negative crossings)
    i = h + (sum of free-circle signs)
          + (sum of cut-circle signs) / 2
          + (positive crossings - negative crossings)

and the contribution is (-1)^h * q^i on the boundary generator obtained by
deleting the free circles.

One engine walks the resolution cube.  A free circle summed over its two
decorations contributes q + q^(-1), so a resolution needs only three
facts: its number of 1-smoothings, its number of free circles and its
boundary matching.  Each state is counted on the index arrays the diagram
compiled when it was built, with a list union-find and without building its
circles.  The cube is walked depth first, one crossing per level, so states
that share their first j smoothings share the unions of those j crossings:
each level joins its crossing's two pairs once for every state below it.
The 2^(c+1) - 2 branches of the walk make about four unions per state, where
joining each state from scratch takes two per crossing.  What is left per
state is its bookkeeping: one walk of the boundary ends to their roots, and
for each far matching one circle trace and one generator built and counted
per cut-circle decoration.  The decorations, the side and the matchings'
hashes are worked out once, not per state.  The counts then expand into
polynomials with binomial coefficients.
``decat_vector`` and ``bracket`` both read that engine.  The only other
state sums are the test suite's oracles, which list every decorated
resolution one by one or rebuild the counts from
:func:`~tanglejones.diagram.resolve`.

A process remembers the walk's counts for its last ``_CLOSED_MEMO`` (32)
closed diagrams, so ``jones``, ``bracket`` and ``decat_vector`` on a closed
diagram evaluated a moment before skip the cube.  The key is all the walk
reads, the loop count and the compiled arrays; the name and the crossing
signs enter only after the walk, so they stay out of it.  A closed result
is one generator with O(c^2) (ones, free) pairs.  A tangle's counts can
cover tens of thousands of generators, so tangles are always walked afresh.

The positive Hopf link, glued from two one-crossing tangles:

>>> from tanglejones.cli import parse_tangle
>>> hopf = parse_tangle("tangle hopf\\nside inside\\nendpoints 0\\n"
...                     "cross + 2 3 4 1\\ncross + 1 4 3 2\\n")
>>> print(bracket(hopf))
q^4 + q^2 + 1 + q^(-2)
>>> print(jones(hopf))
q^6 + q^4 + q^2 + 1
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping

from .cleaved import CleavedGen, circles_of
from .diagram import (
    _MAX_STATES,
    DiagramError,
    TangleDiagram,
    _Compiled,
    _partners,
)
# Unused here: perfbench/trace.py wraps decat.resolve and its self-test reads it.
from .diagram import resolve  # noqa: F401
from .halfpoly import ZERO, HalfLaurent
from .planar import Matching, enumerate_matchings

__all__ = [
    "DecatVector",
    "decat_vector",
    "pair",
    "jones",
    "bracket",
]

_EMPTY_GEN = CleavedGen(Matching(()), Matching(()), ())
# Closed-diagram state sums a process remembers, least recently used first out.
_CLOSED_MEMO = 32


class DecatVector:
    """A sparse vector over the decorated cleaved links on 2n points.

    Every coefficient is a :class:`HalfLaurent`, and generators with zero
    coefficient are never stored.  For vectors arising from tangles, every
    exponent of the coefficient of a generator g is congruent to (sum of
    g's decorations) / 2 modulo 1.
    """

    __slots__ = ("n", "_coeffs")

    def __init__(self, n: int, coeffs: Mapping[CleavedGen, HalfLaurent]):
        self.n = n
        clean: dict[CleavedGen, HalfLaurent] = {}
        for g, poly in coeffs.items():
            if g.n != n:
                raise ValueError(f"generator {g.key()} does not live on {2 * n} points")
            if not isinstance(poly, HalfLaurent):
                raise TypeError(f"coefficient of {g.key()} is {poly!r}, not a HalfLaurent")
            if poly:
                clean[g] = poly
        self._coeffs = clean

    def get(self, g: CleavedGen) -> HalfLaurent:
        return self._coeffs.get(g, ZERO)

    def items(self) -> list[tuple[CleavedGen, HalfLaurent]]:
        """The (generator, coefficient) pairs in storage order, unsorted.

        Sums and maps over a vector do not depend on the order, so no key is
        rendered here; :meth:`render_text` and :meth:`to_json` sort by key.
        """
        return list(self._coeffs.items())

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecatVector):
            return NotImplemented
        return self.n == other.n and self._coeffs == other._coeffs

    def _by_key(self) -> list[tuple[str, HalfLaurent]]:
        # Each key is rendered once, for the sort and the output alike.
        return sorted(((g.key(), poly) for g, poly in self._coeffs.items()), key=itemgetter(0))

    def render_text(self) -> str:
        """One "<key> : <polynomial>" line per generator, sorted by key."""
        return "\n".join(f"{key} : {poly.render()}" for key, poly in self._by_key())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "generators": [
                {"key": key, "terms": [list(term) for term in poly.sorted_terms()]}
                for key, poly in self._by_key()
            ],
        }

    def __repr__(self) -> str:
        return f"<DecatVector n={self.n}, {len(self._coeffs)} generators>"


def _state_counts(
    compiled: _Compiled, loops: int, n: int, inside: bool
) -> dict[CleavedGen, dict[tuple[int, int], int]]:
    """How many resolutions reach each boundary cleaved link, and how.

    The one loop over the resolution cube.  It reads a diagram's compiled
    arrays, loop count, n and side ``inside`` and nothing else.  Each
    resolution, glued along every far-side matching and decorated on its
    cut circles, reaches one boundary generator; it is counted there under
    the pair (number of 1-smoothings, number of free circles), which is all
    its contribution depends on once the free circles are summed over their
    decorations.
    A diagram whose 2^crossings x Catalan(n) x 2^n decorated resolutions
    exceed ``_MAX_STATES`` raises :class:`DiagramError` before any is
    visited: each of the Catalan(n) far matchings meets at most n cut
    circles.

    The cube is walked depth first over the compiled crossings in order,
    0 before 1, so the states come in the order of
    ``product((0, 1), repeat=crossings)``.  Each level copies its parent's
    union-find for the 1-branch, reuses it for the 0-branch, and applies
    that crossing's two unions once for every state below it, so states
    that share their first j smoothings share the union work of those j
    crossings.  A state's union-find has len(labels) - merges components;
    n of them are strands, one per pair of boundary ends, so the rest,
    with the loops, are its free circles.  ``_partners`` walks each
    boundary end to its root, and the matching is looked up by partner
    tuple, so at most Catalan(n) matchings are built per call.

    Each state then costs, per far matching, one ``circles_of`` call and,
    per decoration of its k cut circles, one :class:`CleavedGen` and one
    dictionary lookup, whose hash reads the two matchings' stored hashes.
    The 2^k decorations come from a list built once per call for each
    k = 0..n, in ``product((1, -1), repeat=k)`` order, and a generator's
    count dictionary is made only the first time it is reached.
    """
    labels, smoothings, ends = compiled
    visits = 2 ** len(smoothings) * (comb(2 * n, n) // (n + 1)) * 2**n
    if visits > _MAX_STATES:
        raise DiagramError(
            f"the state sum visits 2^{len(smoothings)} x Catalan({n}) x 2^{n} = {visits} "
            f"states, over the limit of {_MAX_STATES}"
        )
    free0 = len(labels) - n + loops
    far_matchings = enumerate_matchings(n)
    # every cut-circle decoration of k circles, built once per call
    decorations = [list(product((1, -1), repeat=k)) for k in range(n + 1)]
    lams: dict[tuple[int, ...], Matching] = {}
    counts: dict[CleavedGen, dict[tuple[int, int], int]] = {}
    depth = len(smoothings)
    # (level, parent, merges, ones): the union-find once the first `level`
    # crossings are smoothed, its merge count and its 1-smoothings
    stack = [(0, list(range(len(labels))), 0, 0)]
    while stack:
        level, parent, merges, ones = stack.pop()
        if level < depth:
            pair = smoothings[level]
            # the 1-branch copies the list before the 0-branch joins it in
            # place; pushed first, the 1-branch is walked second
            for bit in (1, 0):
                child = parent[:] if bit else parent
                w, x, y, z = pair[bit]
                joined = merges
                while child[w] != w:
                    w = child[w]
                while child[x] != x:
                    x = child[x]
                if w < x:
                    child[x] = w
                    joined += 1
                elif x < w:
                    child[w] = x
                    joined += 1
                while child[y] != y:
                    y = child[y]
                while child[z] != z:
                    z = child[z]
                if y < z:
                    child[z] = y
                    joined += 1
                elif z < y:
                    child[y] = z
                    joined += 1
                stack.append((level + 1, child, joined, ones + bit))
            continue
        how = (ones, free0 - merges)
        partners = _partners(parent, ends)
        lam = lams.get(partners)
        if lam is None:
            lam = lams[partners] = Matching(partners)
        for far in far_matchings:
            ins, outs = (lam, far) if inside else (far, lam)
            for cut_decs in decorations[len(circles_of(ins, outs))]:
                g = CleavedGen(ins, outs, cut_decs)
                by_how = counts.get(g)
                if by_how is None:
                    counts[g] = {how: 1}
                else:
                    by_how[how] = by_how.get(how, 0) + 1
    return counts


@lru_cache(maxsize=_CLOSED_MEMO)
def _closed_counts(loops: int, compiled: _Compiled) -> Mapping[tuple[int, int], int]:
    """The (ones, free) counts of a closed diagram, remembered per process.

    Keyed on all the walk reads, so diagrams that differ only in their name
    or crossing signs share one entry.  The counts come back read-only,
    because every later caller is handed the same mapping.  A diagram over
    the state limit raises from the walk, and nothing is stored for it.
    """
    return MappingProxyType(_state_counts(compiled, loops, 0, True)[_EMPTY_GEN])


def _state_sum(
    counts: Mapping[tuple[int, int], int], h0: int, e0: int, half2: int
) -> HalfLaurent:
    """Sum count * (-1)^(ones + h0) * q^(ones + e0 + half2/2) * (q + q^(-1))^free.

    ``counts`` maps (ones, free) to a number of resolutions; the free-circle
    weight is expanded by binomial coefficients.
    """
    terms: dict[int, int] = {}
    for (ones, free), count in counts.items():
        signed = -count if (ones + h0) % 2 else count
        base2 = 2 * (ones + e0 + free) + half2
        for j in range(free + 1):
            e2 = base2 - 4 * j
            terms[e2] = terms.get(e2, 0) + signed * comb(free, j)
    return HalfLaurent(terms)


def decat_vector(t: TangleDiagram) -> DecatVector:
    """The invariant vector of a tangle.

    Each boundary generator collects (-1)^h * q^i from every decorated
    resolution that reaches it, the free circles summed over their
    decorations as powers of q + q^(-1).
    """
    n = t.endpoints // 2
    if n:
        counts = _state_counts(t._compiled, t.loops, n, t.side == "inside")
    else:
        counts = {_EMPTY_GEN: _closed_counts(t.loops, t._compiled)}
    n_plus = sum(1 for cr in t.crossings if cr.sign > 0)
    n_minus = len(t.crossings) - n_plus
    h0, e0 = -n_minus, n_plus - 2 * n_minus
    return DecatVector(
        n,
        {g: _state_sum(by_how, h0, e0, sum(g.decs)) for g, by_how in counts.items()},
    )


def pair(a: DecatVector, d: DecatVector) -> HalfLaurent:
    """The coefficient-wise dot product of two vectors over the same basis.

    For the class of an inside tangle paired against the functional of the
    complementary outside tangle, this is the unnormalized Jones polynomial
    of the glued link.
    """
    if a.n != d.n:
        raise ValueError(f"cannot pair vectors on {2 * a.n} and {2 * d.n} points")
    total = ZERO
    for g, poly in a.items():
        other = d.get(g)
        if other:
            total = total + poly * other
    return total


def jones(t: TangleDiagram) -> HalfLaurent:
    """The unnormalized Jones polynomial of a closed diagram.

    This is the coefficient of the unique empty generator in the diagram's
    invariant vector.
    """
    if t.endpoints != 0:
        raise DiagramError(f"jones needs a closed diagram, got {t.endpoints} endpoints")
    return decat_vector(t).get(_EMPTY_GEN)


def bracket(t: TangleDiagram) -> HalfLaurent:
    """The unnormalized state sum of a closed diagram, ignoring signs.

    Each resolution contributes (-q)^(number of 1-smoothings) times
    (q + q^(-1)) raised to the number of its circles.  The Jones polynomial
    is (-1)^(n-) * q^(n+ - 2n-) times this bracket.
    """
    if t.endpoints != 0:
        raise DiagramError(f"bracket needs a closed diagram, got {t.endpoints} endpoints")
    return _state_sum(_closed_counts(t.loops, t._compiled), 0, 0, 0)
