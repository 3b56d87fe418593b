"""Checks against answers that no state sum computes.

Jones's formula for torus knots gives the Jones polynomial of every braid
closure (sigma_1 ... sigma_(p-1))^q in closed form, the determinant of a
knot's colouring matrix gives |V(-1)| and the sign of V(i), V is 1 at a
primitive cube root of unity, a mirror image inverts q, a connected sum
multiplies, Reidemeister moves I, II and III (the last as
braid relations) and Conway mutation change no invariant, a pretzel link's
bracket is a product over its twist columns, and the exhaustive
enumeration of ``tests/helpers.py`` checks the state sum on braid tangles
with up to 8 endpoints, where the induced matchings are the least regular.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, count

import pytest

from tanglejones import (
    ZERO,
    Crossing,
    HalfLaurent,
    TangleDiagram,
    bracket,
    decat_vector,
    jones,
)
from tanglejones.cli import parse_tangle

from .helpers import (
    _find,
    braid_closure,
    braid_tangle,
    corpus_names,
    corpus_tangle,
    edge_labels,
    exhaustive_vector,
    glue,
    random_braid_tangle,
    random_braid_word,
    shuffled,
    tangle_text,
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
    for e in sorted(edge_labels(t)):
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


def jones_v(t: TangleDiagram) -> dict[int, int]:
    """The Jones polynomial V of a knot, read off ``jones``, as a map from
    power of t to coefficient.

    ``jones`` gives (q + 1/q) V(q^2).  Times q it is (1 + q^2) V(q^2) in
    integer powers of q, divided exactly by 1 + q^2 from the lowest power
    up; the quotient is V(q^2).
    """
    num = {e2 // 2 + 1: c for e2, c in jones(t).sorted_terms()}
    lo, hi = min(num), max(num)
    quot: dict[int, int] = {}
    for k in range(lo, hi - 1):
        quot[k] = num.get(k, 0) - quot.get(k - 2, 0)
    assert [num.get(k, 0) - quot.get(k - 2, 0) for k in (hi - 1, hi)] == [0, 0], "inexact"
    assert all(k % 2 == 0 for k, c in quot.items() if c), "a knot's V has integer powers"
    return {k // 2: c for k, c in quot.items() if c}


def _residue_sums(v: dict[int, int], m: int) -> list[int]:
    """The sums of V's coefficients by power of t mod m."""
    sums = [0] * m
    for k, c in v.items():
        sums[k % m] += c
    return sums


def jones_at_minus_one(t: TangleDiagram) -> int:
    """|V(-1)| for the Jones polynomial V of a knot."""
    even, odd = _residue_sums(jones_v(t), 2)
    return abs(even - odd)


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


def _generated_knots() -> list[TangleDiagram]:
    """The ten torus knots and six seeded one-cycle braid closures."""
    knots = [torus_knot(p, q) for p, q in TORUS_KNOTS]
    return knots + _one_cycle_braid_closures(random.Random(SEED + 2), 6)


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
    knots = _generated_knots()
    closed = (corpus_tangle(name) for name in corpus_names())
    knots += [t for t in closed if t.endpoints == 0 and _components(t) == 1]
    assert all(_components(t) == 1 for t in knots)
    for t in knots:
        assert colouring_determinant(t) == jones_at_minus_one(t), t.name


def test_jones_at_roots_of_unity_sees_the_crossing_signs():
    """V(w) = 1 at w = e^(2 pi i/3), and V(i) is +1 when det = +-1 (mod 8)
    and -1 when det = +-3 (mod 8) (Lickorish, GTM 175; Levine 1966).

    Both values are exact.  With s_r the sum of V's coefficients on powers
    r mod 3, V(w) = (s_0 - s_2) + (s_1 - s_2) w, as 1 + w + w^2 = 0; with
    r_j the sums mod 4, V(i) = (r_0 - r_2) + (r_1 - r_3) i.  Crossing signs
    that shift V by t^k fail the first unless 3 divides k and the second
    unless 4 does, where |V(-1)| never sees a shift.  It runs on the
    generated knots, whose signs come from the geometry, and on 30 more
    seeded one-cycle braid closures.
    """
    knots = _generated_knots() + _one_cycle_braid_closures(random.Random(SEED + 3), 30)
    for t in knots:
        v = jones_v(t)
        s = _residue_sums(v, 3)
        assert (s[0] - s[2], s[1] - s[2]) == (1, 0), t.name
        det = colouring_determinant(t) % 8
        r = _residue_sums(v, 4)
        assert (r[0] - r[2], r[1] - r[3]) == ({1: 1, 7: 1, 3: -1, 5: -1}[det], 0), t.name


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


def _terms(t: TangleDiagram) -> dict[int, int]:
    """``jones`` as a map from doubled exponent to coefficient."""
    return dict(jones(t).sorted_terms())


def _times(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: Counter = Counter()
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] += ca * cb
    return {e2: c for e2, c in out.items() if c}


def mirror(t: TangleDiagram) -> TangleDiagram:
    """The mirror image: every crossing swaps its over- and under-strand,
    so its sign flips and its slots (a, b, c, d) become (b, c, d, a)."""
    crossings = tuple(Crossing(-cr.sign, cr.slots[1:] + cr.slots[:1]) for cr in t.crossings)
    return TangleDiagram(f"{t.name}*", t.side, t.endpoints, crossings, t.loops, dict(t.boundary))


def connected_sum(k1: TangleDiagram, k2: TangleDiagram) -> TangleDiagram:
    """K1 # K2: cut one edge of each knot and reconnect the ends crosswise.

    K2's labels move above K1's.  The second end of K1's first edge takes
    K2's cut label and the second end of K2's cut edge takes K1's, so each
    new edge runs from one knot to the other.  Construction runs the
    planarity check on the result.
    """
    shift = max(edge_labels(k1))
    moved = [Crossing(cr.sign, tuple(e + shift for e in cr.slots)) for cr in k2.crossings]
    e1, e2 = k1.crossings[0].slots[0], moved[0].slots[0]
    crossings, seen = [], set()
    for cr in list(k1.crossings) + moved:
        slots = []
        for e in cr.slots:
            if e in (e1, e2) and e in seen:
                slots.append(e1 + e2 - e)
            else:
                seen.add(e)
                slots.append(e)
        crossings.append(Crossing(cr.sign, tuple(slots)))
    return TangleDiagram(f"{k1.name}#{k2.name}", "inside", 0, tuple(crossings))


def test_mirror_inverts_q():
    """Flipping every sign and rotating every crossing's slots by one maps
    the unnormalized Jones polynomial J(q) to J(1/q)."""
    for k in _generated_knots():
        assert _terms(mirror(k)) == {-e2: c for e2, c in _terms(k).items()}, k.name


def test_connected_sum_multiplies():
    """J(K1 # K2) (q + 1/q) = J(K1) J(K2) for the unnormalized J, on every
    pair of generated knots with at most 14 crossings in all."""
    knots = _generated_knots()
    terms = {k.name: _terms(k) for k in knots}
    pairs = [(a, b) for a, b in combinations(knots, 2) if len(a.crossings) + len(b.crossings) <= 14]
    assert len(pairs) == 26
    for k1, k2 in pairs:
        total = _times(_terms(connected_sum(k1, k2)), {2: 1, -2: 1})
        assert total == _times(terms[k1.name], terms[k2.name]), (k1.name, k2.name)


def _enters(cr: Crossing, slot: int) -> bool:
    """Whether the strand at ``slot`` runs into the crossing: slot a, and
    the over-strand's entry, d for a positive crossing and b for a
    negative one."""
    return slot == 0 or slot == (3 if cr.sign > 0 else 1)


def _oriented(ring: list[int], under_in: int, over_in: int) -> Crossing:
    """The crossing whose slots run counterclockwise around ``ring``,
    starting at the incoming under-strand; positive when the over-strand
    enters at the fourth slot."""
    k = ring.index(under_in)
    slots = tuple(ring[k:] + ring[:k])
    return Crossing(1 if slots[3] == over_in else -1, slots)


def kink(t: TangleDiagram, e: int, sign: int, flip: bool = False) -> TangleDiagram:
    """Reidemeister I: a curl of the given sign on edge e, where e runs in.

    The head end of e takes a fresh label f, and the curl crossing joins e
    to f: (g, g, f, e) when positive, (e, g, g, f) when negative, with g the
    curl.  ``flip`` writes the opposite sign on the same curl, which no
    orientation can produce.
    """
    top = max(edge_labels(t))
    f, g = top + 1, top + 2
    crossings, boundary = list(t.crossings), dict(t.boundary)
    heads = [
        (i, k)
        for i, cr in enumerate(crossings)
        for k, label in enumerate(cr.slots)
        if label == e and _enters(cr, k)
    ]
    if heads:
        i, k = heads[0]
        slots = list(crossings[i].slots)
        slots[k] = f
        crossings[i] = Crossing(crossings[i].sign, tuple(slots))
    else:  # e runs into the boundary
        boundary[max(p for p, label in boundary.items() if label == e)] = f
    curl = (g, g, f, e) if sign > 0 else (e, g, g, f)
    crossings.append(Crossing(-sign if flip else sign, curl))
    return TangleDiagram(t.name, t.side, t.endpoints, tuple(crossings), t.loops, boundary)


def bigon(t: TangleDiagram, i: int, k: int, x_over: bool) -> TangleDiagram:
    """Reidemeister II at a corner of crossing i: the strand y at slot k + 1
    is pushed across the strand x at slot k, through the face between them.

    Seen with x leaving crossing i eastward and y northward, y crosses x
    southward at P and back northward at Q, further east.  x splits into
    x0 (to P), x1 (P to Q) and x, y into y0, y1 and y; counterclockwise,
    P reads x1, y0, x0, y1 and Q reads x, y, x1, y1.  Each new crossing's
    slots and sign follow the orientation the strands already carry.
    """
    cr = t.crossings[i]
    nxt = (k + 1) % 4
    x, y = cr.slots[k], cr.slots[nxt]
    top = max(edge_labels(t))
    x0, x1, y0, y1 = top + 1, top + 2, top + 3, top + 4
    slots = list(cr.slots)
    slots[k], slots[nxt] = x0, y0
    # the labels running into P and into Q along each strand
    x_in = (x1, x) if _enters(cr, k) else (x0, x1)
    y_in = (y1, y) if _enters(cr, nxt) else (y0, y1)
    under, over = (y_in, x_in) if x_over else (x_in, y_in)
    crossings = list(t.crossings)
    crossings[i] = Crossing(cr.sign, tuple(slots))
    crossings.append(_oriented([x1, y0, x0, y1], under[0], over[0]))
    crossings.append(_oriented([x, y, x1, y1], under[1], over[1]))
    return TangleDiagram(t.name, t.side, t.endpoints, tuple(crossings), t.loops, dict(t.boundary))


def _moved(t: TangleDiagram, rng: random.Random, most: int) -> TangleDiagram:
    """Random kinks and bigons on t until one more bigon would take it over
    ``most`` crossings, round-tripped through the file text."""
    while len(t.crossings) + 2 <= most:
        corners = [
            (i, k)
            for i, cr in enumerate(t.crossings)
            for k in range(4)
            if cr.slots[k] != cr.slots[(k + 1) % 4]
        ]
        if corners and rng.random() < 0.5:
            t = bigon(t, *rng.choice(corners), rng.random() < 0.5)
        else:
            t = kink(t, rng.choice(sorted(edge_labels(t))), rng.choice((1, -1)))
    return parse_tangle(tangle_text(t))


def _move_cases() -> list[tuple[TangleDiagram, int, int, list[tuple[int, int]]]]:
    """(diagram, crossing cap, strands, braid word): seeded braid closures,
    knots and links, up to 14 crossings, and braid tangles with 4-8
    endpoints up to 10, each drawn from its word with shuffled labels."""
    rng = random.Random(SEED + 3)
    cases = []
    for n in range(8):
        strands = rng.randint(2, 4)
        word = [(rng.randrange(strands - 1), rng.choice((1, -1))) for _ in range(rng.randint(3, 9))]
        cases.append((shuffled(braid_closure(f"closure{n}", strands, word), rng), 14, strands, word))
    for _ in range(8):
        strands, side, word = random_braid_word(rng, 5)
        cases.append((shuffled(braid_tangle(strands, word, side), rng), 10, strands, word))
    return cases


def _value(t: TangleDiagram):
    return jones(t) if t.endpoints == 0 else decat_vector(t)


def test_reidemeister_moves_keep_the_invariant():
    """Kinks of either sign and bigons with either strand on top, written
    into the crossing code and read back from text, keep ``jones`` of a
    closed diagram and ``decat_vector`` of a tangle."""
    rng = random.Random(SEED + 4)
    for t, most, _, _ in _move_cases():
        moved = _moved(t, rng, most)
        assert most - 2 < len(moved.crossings) <= most
        assert _value(moved) == _value(t), t.name


def test_a_kink_of_the_wrong_sign_changes_the_invariant():
    """The move check has teeth: a curl carrying the opposite sign shifts
    every value by -q^(+-3)."""
    rng = random.Random(SEED + 5)
    for t, *_ in _move_cases():
        e = rng.choice(sorted(edge_labels(t)))
        sign = rng.choice((1, -1))
        assert _value(kink(t, e, sign)) == _value(t), t.name
        assert _value(kink(t, e, sign, flip=True)) != _value(t), t.name


def _braided(t: TangleDiagram, strands: int, word: list[tuple[int, int]], rng: random.Random):
    """``word`` drawn as t was, a closure or a tangle on t's side, with
    shuffled labels."""
    if t.endpoints == 0:
        return shuffled(braid_closure(t.name, strands, word), rng)
    return shuffled(braid_tangle(strands, word, t.side), rng)


def test_braid_relations_keep_the_invariant():
    """Reidemeister III as the braid relation s_i s_(i+1) s_i = s_(i+1) s_i
    s_(i+1), its three letters of one sign, and far commutation s_i s_j =
    s_j s_i for |i - j| >= 2, each inserted at a random place in the braid
    word of every move case with room for it.  Both sides are drawn with
    ``braid``.  On a tangle, a letter of the rewritten side that carries
    the other sign must change the value.  On a closure it need not: a
    letter whose index occurs nowhere else in the word, for one, is a
    nugatory crossing, and flipping it is itself an isotopy."""
    rng = random.Random(SEED + 6)
    moves = Counter()
    for t, _, strands, word in _move_cases():
        rewrites = []
        for i in range(strands - 2):
            s = rng.choice((1, -1))
            rewrites.append(("R3", [(i, s), (i + 1, s), (i, s)], [(i + 1, s), (i, s), (i + 1, s)]))
        for i, j in combinations(range(strands - 1), 2):
            if j - i >= 2:
                left = [(i, rng.choice((1, -1))), (j, rng.choice((1, -1)))]
                rewrites.append(("far", left, left[::-1]))
        for kind, left, right in rewrites:
            at = rng.randint(0, len(word))
            k = rng.randrange(len(right))
            wrong = right[:k] + [(right[k][0], -right[k][1])] + right[k + 1 :]
            before, after, flipped = (
                _value(_braided(t, strands, word[:at] + side + word[at:], rng))
                for side in (left, right, wrong)
            )
            assert after == before, (t.name, kind)
            assert flipped != before or t.endpoints == 0, (t.name, kind)
            moves[kind, t.endpoints == 0] += 1
    assert all(moves[kind, closed] >= 2 for kind in ("R3", "far") for closed in (True, False)), moves


def rotated(t: TangleDiagram, steps: int) -> TangleDiagram:
    """t with its boundary relabelled ``steps`` points round: point p
    becomes point p - steps, modulo the endpoint count."""
    boundary = {(p - 1 - steps) % t.endpoints + 1: e for p, e in t.boundary.items()}
    return TangleDiagram(t.name, t.side, t.endpoints, t.crossings, t.loops, boundary)


def _two_strand_tangle(rng: random.Random, side: str) -> TangleDiagram:
    word = [(0, rng.choice((1, -1))) for _ in range(rng.randint(3, 7))]
    return shuffled(braid_tangle(2, word, side), rng)


def test_conway_mutation_keeps_the_bracket():
    """Turning a 4-point inside tangle two steps round and gluing it back
    is a Conway mutation, which keeps the bracket.  The bracket, not
    ``jones``: the turned tangle keeps its crossings' signs from the file,
    and nothing ties them to an orientation of the mutant.  A one-step
    turn is no mutation, and it must change the bracket of some pair."""
    rng = random.Random(SEED + 7)
    pairs = [(_two_strand_tangle(rng, "inside"), _two_strand_tangle(rng, "outside")) for _ in range(30)]
    pairs.append((corpus_tangle("kt_inside"), corpus_tangle("kt_outside")))
    one_step_changed = False
    for inside, outside in pairs:
        knot = bracket(glue(inside, outside))
        assert bracket(glue(rotated(inside, 2), outside)) == knot, (inside.name, outside.name)
        one_step_changed |= bracket(glue(rotated(inside, 1), outside)) != knot
    assert one_step_changed


def pretzel(twists: list[int]) -> TangleDiagram:
    """The pretzel link P(t_1, ..., t_r), r >= 2 and every t_j nonzero.

    Column j is a vertical twist region of |t_j| crossings.  Cups below join
    each column's lower right end to the next column's lower left end, caps
    above do the same for the upper ends, and the last pair runs round the
    outside to the first column.  Counterclockwise, a crossing's ends are
    lower left, lower right, upper right, upper left, and its slots start at
    the incoming under-strand: the lower right end when t_j > 0, the lower
    left end when t_j < 0.  Bottom arcs are labels 1..r, top arcs r+1..2r.
    """
    r = len(twists)
    fresh = count(2 * r + 1)
    crossings = []
    for j, t in enumerate(twists):
        left, right = j + 1, (j + 1) % r + 1
        for k in range(abs(t)):
            last = k == abs(t) - 1
            upper_left = r + j + 1 if last else next(fresh)
            upper_right = r + (j + 1) % r + 1 if last else next(fresh)
            ring = (left, right, upper_right, upper_left)
            slots = ring[1:] + ring[:1] if t > 0 else ring
            crossings.append(Crossing(1 if t > 0 else -1, slots))
            left, right = upper_left, upper_right
    return TangleDiagram(f"P{tuple(twists)}", "inside", 0, tuple(crossings))


def pretzel_bracket(twists: list[int]) -> HalfLaurent:
    """``bracket`` of :func:`pretzel`, column by column, by Kauffman's state
    model in the Temperley-Lieb algebra (see Landvoy, *The Jones polynomial
    of pretzel knots and links*, Topology Appl. 83, 1998).

    A column is a 4-ended tangle alpha * V + beta * U, starting at V, where
    V is two vertical strands and U joins the two upper ends to each other
    and the two lower ends to each other.  A crossing is x * V + y * U:
    when t > 0 its slots start at the lower right end, so the 0-smoothing
    (weight 1) joins (a, b) and (c, d) into V and (x, y) = (1, -q); when
    t < 0 they start at the lower left end, the 0-smoothing is U and
    (x, y) = (-q, 1).  Stacking uses VV = V, VU = UV = U and UU = delta * U,
    delta = q + 1/q.  Closing, the columns in U form a set S: a proper S
    leaves r - |S| circles and S = all columns leaves two, hence
    Prod(alpha_j delta + beta_j) + (delta^2 - 1) Prod(beta_j).
    """
    one, minus_q = HalfLaurent({0: 1}), HalfLaurent({2: -1})
    delta = HalfLaurent({2: 1, -2: 1})
    closed, all_u = one, one
    for t in twists:
        x, y = (one, minus_q) if t > 0 else (minus_q, one)
        alpha, beta = one, ZERO
        for _ in range(abs(t)):
            alpha, beta = alpha * x, alpha * y + beta * (x + y * delta)
        closed = closed * (alpha * delta + beta)
        all_u = all_u * beta
    return closed + HalfLaurent({4: 1, 0: 1, -4: 1}) * all_u


def test_pretzel_bracket_is_a_product_over_columns():
    """40 seeded pretzel links of 2-4 columns with 1-4 crossings each, in
    either hand, their labels and crossing order shuffled."""
    rng = random.Random(SEED + 11)
    for _ in range(40):
        twists = [rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        link = shuffled(pretzel(twists), rng)
        assert bracket(link) == pretzel_bracket(twists), twists
