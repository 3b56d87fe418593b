"""Checks against answers that no state sum computes.

Jones's formula for torus knots gives the Jones polynomial of every braid
closure (sigma_1 ... sigma_(p-1))^q in closed form, and the exhaustive
enumeration of ``tests/helpers.py`` checks the state sum on braid tangles
with up to 8 endpoints, where the induced matchings are the least regular.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from tanglejones import decat_vector, jones

from .helpers import braid_closure, exhaustive_vector, random_braid_tangle, shuffled

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


def test_torus_formula_is_the_trefoil():
    assert torus_jones(2, 3) == {2: 1, 6: 1, 10: 1, 18: -1}  # q + q^3 + q^5 - q^9


@pytest.mark.parametrize("p, q", TORUS_KNOTS, ids=[f"T({p},{q})" for p, q in TORUS_KNOTS])
def test_jones_of_torus_knots(p, q):
    word = [(i, 1) for i in range(p - 1)] * q
    knot = shuffled(braid_closure(f"t{p}_{q}", p, word), random.Random(SEED + 100 * p + q))
    assert len(knot.crossings) == (p - 1) * q
    assert dict(jones(knot).sorted_terms()) == torus_jones(p, q)


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
