"""Checks against answers that no state sum computes.

Jones's formula for torus knots gives the Jones polynomial of every braid
closure (sigma_1 ... sigma_(p-1))^q in closed form, the determinant of a
knot's colouring matrix gives |V(-1)|, and the exhaustive enumeration of
``tests/helpers.py`` checks the state sum on braid tangles with up to 8
endpoints, where the induced matchings are the least regular.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from tanglejones import TangleDiagram, decat_vector, jones

from .helpers import (
    _find,
    braid_closure,
    corpus_names,
    corpus_tangle,
    exhaustive_vector,
    random_braid_tangle,
    shuffled,
)

SEED = 20141

# Knots only: the formula needs gcd(p, q) = 1.
TORUS_KNOTS = [(2, m) for m in range(3, 14, 2)] + [(3, 4), (3, 5), (3, 7), (4, 5)]


def torus_jones(p: int, q: int) -> dict[int, int]:
    """The unnormalized Jones polynomial (q + 1/q) V(q^2) of T(p, q), as a
    map from doubled exponent to coefficient.

    V(t) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)
    (Jones, Ann. of Math. 126, 1987), with the quotient found by exact
    division: its coefficients c satisfy c[k] - c[k-2] = numerator[k].
    """
    num = Counter({0: 1, p + 1: -1, q + 1: -1, p + q: 1})
    top = p + q - 2
    quot: dict[int, int] = {}
    for k in range(top + 1):
        quot[k] = num[k] + quot.get(k - 2, 0)
    assert [num[k] + quot[k - 2] for k in (top + 1, top + 2)] == [0, 0], "inexact division"
    shift = (p - 1) * (q - 1) // 2
    out: Counter = Counter()
    for k, c in quot.items():
        out[4 * (shift + k) + 2] += c
        out[4 * (shift + k) - 2] += c
    return {e2: c for e2, c in out.items() if c}


def torus_knot(p: int, q: int) -> TangleDiagram:
    """The closure of (sigma_1 ... sigma_(p-1))^q, with seeded labels and
    crossing order."""
    word = [(i, 1) for i in range(p - 1)] * q
    return shuffled(braid_closure(f"t{p}_{q}", p, word), random.Random(SEED + 100 * p + q))


def test_torus_formula_is_the_trefoil():
    assert torus_jones(2, 3) == {2: 1, 6: 1, 10: 1, 18: -1}  # q + q^3 + q^5 - q^9


@pytest.mark.parametrize("p, q", TORUS_KNOTS, ids=[f"T({p},{q})" for p, q in TORUS_KNOTS])
def test_jones_of_torus_knots(p, q):
    knot = torus_knot(p, q)
    assert len(knot.crossings) == (p - 1) * q
    assert dict(jones(knot).sorted_terms()) == torus_jones(p, q)


def _components(t: TangleDiagram) -> int:
    """Closed components of a closed diagram: strands joined straight
    through every crossing, plus the crossingless loops."""
    parent: dict[int, int] = {}
    for a, b, c, d in (cr.slots for cr in t.crossings):
        parent[_find(parent, a)] = _find(parent, c)
        parent[_find(parent, b)] = _find(parent, d)
    return len({_find(parent, e) for e in list(parent)}) + t.loops


def _bareiss(rows: list[list[int]]) -> int:
    """The determinant, up to sign, of a square integer matrix by
    fraction-free elimination; every division is exact."""
    m = [list(row) for row in rows]
    prev = 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1] if m else 1


def colouring_determinant(t: TangleDiagram) -> int:
    """The determinant of a knot diagram, from its diagram alone.

    The over-arcs are the classes of edge labels joined through slots b and
    d of every crossing.  Crossing (a, b, c, d) gives the row
    2[b] - [a] - [c] over the arcs, and the determinant is the absolute
    value of any first minor of that square matrix.
    """
    parent: dict[int, int] = {}
    for _, b, _, d in (cr.slots for cr in t.crossings):
        parent[_find(parent, b)] = _find(parent, d)
    column: dict[int, int] = {}
    for e in sorted(t.edge_labels()):
        column.setdefault(_find(parent, e), len(column))
    assert len(column) == len(t.crossings), "a knot has one over-arc per crossing"
    rows = []
    for a, b, c, _ in (cr.slots for cr in t.crossings):
        row = [0] * len(column)
        row[column[_find(parent, b)]] += 2
        row[column[_find(parent, a)]] -= 1
        row[column[_find(parent, c)]] -= 1
        rows.append(row)
    return abs(_bareiss([row[1:] for row in rows[1:]]))


def jones_at_minus_one(t: TangleDiagram) -> int:
    """|V(-1)| for the Jones polynomial V of a knot, read off ``jones``.

    ``jones`` gives (q + 1/q) V(q^2).  Times q it is (1 + q^2) V(q^2) in
    integer powers of q, divided exactly by 1 + q^2 from the lowest power
    up, and V(-1) is that quotient at q = i.
    """
    num = {e2 // 2 + 1: c for e2, c in jones(t).sorted_terms()}
    lo, hi = min(num), max(num)
    quot: dict[int, int] = {}
    for k in range(lo, hi - 1):
        quot[k] = num.get(k, 0) - quot.get(k - 2, 0)
    assert [num.get(k, 0) - quot.get(k - 2, 0) for k in (hi - 1, hi)] == [0, 0], "inexact"
    assert all(k % 2 == 0 for k, c in quot.items() if c), "a knot's V has integer powers"
    return abs(sum(c if k % 4 == 0 else -c for k, c in quot.items()))


def _one_cycle_braid_closures(rng: random.Random, count: int) -> list[TangleDiagram]:
    """Seeded braid closures whose permutation is a single cycle, so each
    is a knot, with 3 to 14 crossings on 2 to 4 strands."""
    out = []
    while len(out) < count:
        strands = rng.randint(2, 4)
        word = [
            (rng.randrange(strands - 1), rng.choice((1, -1))) for _ in range(rng.randint(3, 14))
        ]
        perm = list(range(strands))
        for i, _ in word:
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        p, length = perm[0], 1
        while p != 0:
            p, length = perm[p], length + 1
        if length == strands:
            name = f"closure{len(out)}"
            out.append(shuffled(braid_closure(name, strands, word), rng))
    return out


def test_colouring_determinant_of_known_knots():
    # det T(p, q) is 1 for p, q both odd, else the odd one of the two
    for p, q in TORUS_KNOTS:
        assert colouring_determinant(torus_knot(p, q)) == (q if p % 2 == 0 else p if q % 2 == 0 else 1)
    assert colouring_determinant(corpus_tangle("unknot")) == 1
    assert colouring_determinant(corpus_tangle("trefoil")) == 3
    assert colouring_determinant(corpus_tangle("kt_closed")) == 45
    assert colouring_determinant(corpus_tangle("conway_closed")) == 45


def test_determinant_is_jones_at_minus_one():
    """The colouring determinant of a knot is |V(-1)|.

    It checks the state sum with no state sum of its own, on torus knots,
    seeded braid closures and the closed corpus knots.  A value that
    q + 1/q does not divide, or whose V has half-integer powers of t,
    fails on the way.  |V(-1)| itself ignores a unit factor +-t^k, so
    crossing signs that shift V by whole powers of t go unseen, and a
    mirror, as from swapping every crossing's two smoothings, has the same
    |V(-1)|; the torus-knot test catches both.
    """
    knots = [torus_knot(p, q) for p, q in TORUS_KNOTS]
    knots += _one_cycle_braid_closures(random.Random(SEED + 2), 6)
    closed = (corpus_tangle(name) for name in corpus_names())
    knots += [t for t in closed if t.endpoints == 0 and _components(t) == 1]
    assert all(_components(t) == 1 for t in knots)
    for t in knots:
        assert colouring_determinant(t) == jones_at_minus_one(t), t.name


def test_state_sum_matches_the_oracle_on_braid_tangles():
    """decat_vector equals the exhaustive enumeration on random braid
    tangles with 4, 6 and 8 endpoints, on both sides of the equator."""
    rng = random.Random(SEED)
    tangles = [random_braid_tangle(rng) for _ in range(30)]
    assert {(t.endpoints, t.side) for t in tangles} == {
        (e, s) for e in (4, 6, 8) for s in ("inside", "outside")
    }
    for t in tangles:
        assert decat_vector(t) == exhaustive_vector(t), (t.name, t.side)
