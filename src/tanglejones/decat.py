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
compiled when it was built, by the union-find behind
:func:`~tanglejones.diagram.resolve`, without building its circles; the
counts then expand into polynomials with binomial coefficients.
``decat_vector`` and ``bracket`` both read that engine.  The only other
state sum is the test suite's oracle, which lists every decorated
resolution one by one.

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

from itertools import product
from math import comb
from operator import itemgetter
from typing import Mapping

from .cleaved import CleavedGen, circles_of
from .diagram import DiagramError, TangleDiagram, _join, _partners, crossing_counts
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

_EMPTY_GEN = CleavedGen(Matching.empty(), Matching.empty(), ())


class DecatVector:
    """A sparse vector over the decorated cleaved links on 2n points.

    Generators with zero coefficient are never stored.  For vectors arising
    from tangles, every exponent of the coefficient of a generator g is
    congruent to (sum of g's decorations) / 2 modulo 1.
    """

    __slots__ = ("n", "_coeffs")

    def __init__(self, n: int, coeffs: Mapping[CleavedGen, HalfLaurent]):
        self.n = n
        clean: dict[CleavedGen, HalfLaurent] = {}
        for g, poly in coeffs.items():
            if g.n != n:
                raise ValueError(f"generator {g.key()} does not live on {2 * n} points")
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


def _state_counts(t: TangleDiagram) -> dict[CleavedGen, dict[tuple[int, int], int]]:
    """How many resolutions reach each boundary cleaved link, and how.

    The one loop over the resolution cube.  Each resolution, glued along
    every far-side matching and decorated on its cut circles, reaches one
    boundary generator; it is counted there under the pair (number of
    1-smoothings, number of free circles), which is all its contribution
    depends on once the free circles are summed over their decorations.

    Each state is joined on the compiled arrays into len(labels) - merges
    components.  n of them are strands, one per pair of boundary ends, so
    the rest, with the loops, are its free circles.  Its matching is looked
    up by partner tuple, so at most Catalan(n) matchings are built per call.
    """
    labels, smoothings, ends = t._compiled
    n = t.endpoints // 2
    free0 = len(labels) - n + t.loops
    far_matchings = enumerate_matchings(n)
    lams: dict[tuple[int, ...], Matching] = {}
    counts: dict[CleavedGen, dict[tuple[int, int], int]] = {}
    for rho in product((0, 1), repeat=len(smoothings)):
        parent, merges = _join(smoothings, len(labels), rho)
        how = (sum(rho), free0 - merges)
        partners = _partners(parent, ends)
        lam = lams.get(partners)
        if lam is None:
            lam = lams[partners] = Matching(n, partners)
        for far in far_matchings:
            if t.side == "inside":
                ins, outs = lam, far
            else:
                ins, outs = far, lam
            k = len(circles_of(ins, outs))
            for cut_decs in product((1, -1), repeat=k):
                by_how = counts.setdefault(CleavedGen(ins, outs, cut_decs), {})
                by_how[how] = by_how.get(how, 0) + 1
    return counts


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
    counts = _state_counts(t)
    n_plus, n_minus = crossing_counts(t)
    h0, e0 = -n_minus, n_plus - 2 * n_minus
    return DecatVector(
        t.endpoints // 2,
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
    return _state_sum(_state_counts(t)[_EMPTY_GEN], 0, 0, 0)
