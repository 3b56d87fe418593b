"""Shared test machinery: corpus access, an exhaustive oracle, diagram
surgery, random tangles.

Everything here is deliberately independent of the library internals it is
used to check.  ``generators`` lists every decorated resolution with its own
union-find, sharing no code with the library's state sum or ``resolve``, and
``cleaved_basis`` counts circles with ``_cut_circles``, sharing none with
``basis_count`` and the key blocks ``basis`` writes.  ``tangle_text`` writes
the file format that ``parse_tangle`` reads.  Polynomials are written as
``HalfLaurent`` term maps; no text is parsed back into one.
``glue`` and ``smooth_crossing`` rebuild diagrams by edge relabeling alone,
so pairing and skein identities compare the library against plain
combinatorics rather than against itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from pathlib import Path
from typing import Iterator

from tanglejones import (
    CleavedGen,
    Crossing,
    DecatVector,
    HalfLaurent,
    Matching,
    TangleDiagram,
    decat_vector,
    enumerate_matchings,
)
from tanglejones.cli import load_tangle

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_path(name: str) -> Path:
    return CORPUS / f"{name}.tangle"


def corpus_names() -> list[str]:
    return sorted(p.stem for p in CORPUS.glob("*.tangle"))


@lru_cache(maxsize=None)
def corpus_tangle(name: str) -> TangleDiagram:
    return load_tangle(corpus_path(name))


@lru_cache(maxsize=None)
def decat_of(name: str) -> DecatVector:
    return decat_vector(corpus_tangle(name))


def edge_labels(t: TangleDiagram) -> set[int]:
    """Every edge label of t, from its crossing slots and boundary."""
    return {e for c in t.crossings for e in c.slots} | set(t.boundary.values())


def _find(parent: dict[int, int], x: int) -> int:
    parent.setdefault(x, x)
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def joined_edges(t: TangleDiagram, rho: tuple[int, ...]) -> dict[int, int]:
    """A union-find over every edge label, joined as rho smooths each crossing.

    Two labels lie on one component of the resolution exactly when
    ``_find`` gives them the same root.
    """
    parent: dict[int, int] = {}
    for e in t.boundary.values():
        _find(parent, e)
    for cr, bit in zip(t.crossings, rho):
        a, b, c, d = cr.slots
        for x, y in ((a, b), (c, d)) if bit == 0 else ((a, d), (b, c)):
            parent[_find(parent, x)] = _find(parent, y)
    return parent


def _smooth(t: TangleDiagram, rho: tuple[int, ...]) -> tuple[int, Matching]:
    """(free circles, induced boundary matching) of one resolution."""
    parent = joined_edges(t, rho)
    ends: dict[int, list[int]] = {}
    for p in sorted(t.boundary):
        ends.setdefault(_find(parent, t.boundary[p]), []).append(p)
    roots = {_find(parent, e) for e in parent}
    pairs = [0] * t.endpoints
    for a, b in ends.values():
        pairs[a - 1], pairs[b - 1] = b, a
    return len(roots - ends.keys()) + t.loops, Matching(tuple(pairs))


def _cut_circles(inside: Matching, outside: Matching) -> tuple[tuple[int, ...], ...]:
    """The circles of a cleaved link, by a union-find of points.

    Each circle is a sorted point tuple, and the circles are sorted by
    their smallest points.
    """
    parent: dict[int, int] = {}
    for m in (inside, outside):
        for a, b in enumerate(m.pairs, start=1):
            parent[_find(parent, a)] = _find(parent, b)
    classes: dict[int, list[int]] = {}
    for p in sorted(parent):
        classes.setdefault(_find(parent, p), []).append(p)
    return tuple(sorted(tuple(c) for c in classes.values()))


def cleaved_basis(n: int) -> list[CleavedGen]:
    """Every decorated cleaved link on 2n points, in basis order.

    Ordered by inside encoding, then outside encoding, then decorations
    with + before -.  The counts for n = 0..3 are 1, 2, 12 and 104.
    """
    matchings = enumerate_matchings(n)
    return [
        CleavedGen(inside, outside, decs)
        for inside in matchings
        for outside in matchings
        for decs in product((1, -1), repeat=len(_cut_circles(inside, outside)))
    ]


@dataclass(frozen=True)
class Generator:
    """One decorated resolution glued along a far-side matching.

    ``boundary`` is the cleaved link left when the free circles are
    deleted: the resolution's own matching fills the slot named by the
    tangle's side, the far matching fills the other, and the cut circles
    keep their decorations.  ``h`` and ``i`` are the homological and
    quantum gradings of the contribution.
    """

    rho: tuple[int, ...]
    boundary: CleavedGen
    free_decs: tuple[int, ...]
    h: int
    i: Fraction


def generators(t: TangleDiagram) -> Iterator[Generator]:
    """Every decorated, glued resolution of the diagram, one at a time.

    The iteration order is deterministic: resolution bits lexicographically
    with 0 before 1, then far matchings by encoding, then free and cut
    decorations with + before -.
    """
    n_minus = sum(1 for cr in t.crossings if cr.sign < 0)
    shift = len(t.crossings) - 2 * n_minus
    far_matchings = enumerate_matchings(t.endpoints // 2)
    for rho in product((0, 1), repeat=len(t.crossings)):
        free, lam = _smooth(t, rho)
        h = sum(rho) - n_minus
        for far in far_matchings:
            ins, outs = (lam, far) if t.side == "inside" else (far, lam)
            cuts = [
                CleavedGen(ins, outs, cut_decs)
                for cut_decs in product((1, -1), repeat=len(_cut_circles(ins, outs)))
            ]
            for free_decs in product((1, -1), repeat=free):
                for b in cuts:
                    i = Fraction(2 * (h + shift + sum(free_decs)) + sum(b.decs), 2)
                    yield Generator(rho, b, free_decs, h, i)


def exhaustive_vector(t: TangleDiagram) -> DecatVector:
    """The invariant vector by enumerating every decorated resolution.

    Folds (-1)^h * q^i over ``generators(t)`` into the coefficient of each
    generator's boundary cleaved link, one monomial per decoration of the
    free circles.  This is the reference that ``decat_vector``, which sums
    free circles as (q + q^(-1)) powers, is checked against.
    """
    acc: dict[CleavedGen, dict[int, int]] = {}
    for g in generators(t):
        terms = acc.setdefault(g.boundary, {})
        e2 = int(2 * g.i)
        terms[e2] = terms.get(e2, 0) + (-1 if g.h % 2 else 1)
    return DecatVector(t.endpoints // 2, {b: HalfLaurent(terms) for b, terms in acc.items()})


def tangle_text(t: TangleDiagram) -> str:
    """The diagram in the tangle file format, which ``parse_tangle`` reads."""
    lines = [f"tangle {t.name}", f"side {t.side}", f"endpoints {t.endpoints}"]
    for cr in t.crossings:
        lines.append("cross {} {} {} {} {}".format("+" if cr.sign > 0 else "-", *cr.slots))
    if t.loops:
        lines.append(f"loop {t.loops}")
    lines += [f"boundary {p} {e}" for p, e in sorted(t.boundary.items())]
    return "\n".join(lines) + "\n"


def with_extra_loop(t: TangleDiagram) -> TangleDiagram:
    """The same diagram with one more crossingless closed component."""
    return TangleDiagram(
        t.name, t.side, t.endpoints, t.crossings, t.loops + 1, dict(t.boundary)
    )


def glue(inside: TangleDiagram, outside: TangleDiagram) -> TangleDiagram:
    """Close a split pair into one boundary-free diagram.

    Boundary arcs fuse across the equator into single edges; a chain of
    arcs that closes up without meeting any crossing becomes a loop.
    """
    if inside.side != "inside" or outside.side != "outside":
        raise ValueError("glue wants an inside tangle then an outside tangle")
    if inside.endpoints != outside.endpoints:
        raise ValueError("glue wants matching endpoint counts")
    offset = max(edge_labels(inside), default=0)

    parent: dict[int, int] = {}
    for p in range(1, inside.endpoints + 1):
        root_in = _find(parent, inside.boundary[p])
        root_out = _find(parent, outside.boundary[p] + offset)
        if root_in != root_out:
            parent[root_out] = root_in

    crossings = list(inside.crossings)
    crossings += [
        Crossing(c.sign, tuple(e + offset for e in c.slots)) for c in outside.crossings
    ]
    crossings = [Crossing(c.sign, tuple(_find(parent, e) for e in c.slots)) for c in crossings]
    used = {e for c in crossings for e in c.slots}
    closed_chains = sum(1 for r in {_find(parent, x) for x in list(parent)} if r not in used)
    return TangleDiagram(
        f"{inside.name}.{outside.name}",
        "inside",
        0,
        tuple(crossings),
        inside.loops + outside.loops + closed_chains,
        {},
    )


def smooth_crossing(t: TangleDiagram, idx: int, bit: int) -> TangleDiagram:
    """Replace crossing ``idx`` by its 0- or 1-smoothing, as a new diagram.

    Joining a pair of slots that carry the same edge label closes that edge
    into a loop; otherwise the two edges merge into one.
    """
    a, b, c, d = t.crossings[idx].slots
    pairs = [(a, b), (c, d)] if bit == 0 else [(a, d), (b, c)]
    crossings = [x for i, x in enumerate(t.crossings) if i != idx]
    boundary = dict(t.boundary)
    loops = t.loops
    while pairs:
        x, y = pairs.pop(0)
        if x == y:
            loops += 1
            continue
        crossings = [
            Crossing(c2.sign, tuple(x if e == y else e for e in c2.slots))
            for c2 in crossings
        ]
        boundary = {p: (x if e == y else e) for p, e in boundary.items()}
        pairs = [(x if u == y else u, x if v == y else v) for u, v in pairs]
    return TangleDiagram(
        f"{t.name}.s{idx}{bit}", t.side, t.endpoints, tuple(crossings), loops, boundary
    )


def random_strand_tangle(rng: random.Random, max_kinks: int = 5) -> TangleDiagram:
    """A random diagram of the trivial 2-endpoint inside tangle.

    Built as a chain of signed kinks on one strand, so every output is a
    valid inside tangle with between 1 and ``max_kinks`` crossings.
    """
    kinks = rng.randint(1, max_kinks)
    crossings = []
    edge = 1
    fresh = 2
    for _ in range(kinks):
        curl, ahead = fresh, fresh + 1
        fresh += 2
        if rng.random() < 0.5:
            crossings.append(Crossing(1, (curl, curl, ahead, edge)))
        else:
            crossings.append(Crossing(-1, (edge, curl, curl, ahead)))
        edge = ahead
    return TangleDiagram(
        f"kinks{kinks}", "inside", 2, tuple(crossings), 0, {1: 1, 2: edge}
    )


def braid(
    strands: int, word: list[tuple[int, int]], side: str
) -> tuple[list[Crossing], list[int], list[int]]:
    """(crossings, bottom edges, top edges) of a braid drawn in a strip.

    Strands run upward, and letter (i, +1) or (i, -1) crosses the strands
    at positions i and i+1 (0-based) as sigma_(i+1) or its inverse: in
    sigma_i the over-strand rises from bottom-left to top-right.  Slots run
    counterclockwise from the incoming under-strand as seen from the disk
    named by ``side``; the outside disk sees the strip mirrored.  Each sign
    follows the upward orientation: +1 exactly when the over-strand enters
    at the fourth slot.  Both edge lists run left to right.
    """
    fresh = count(1)
    bottom = [next(fresh) for _ in range(strands)]
    now = list(bottom)
    crossings = []
    for i, power in word:
        bl, br = now[i], now[i + 1]
        tl, tr = next(fresh), next(fresh)
        ring = [bl, br, tr, tl]
        if side == "outside":
            ring.reverse()
        under_in = br if power > 0 else bl
        start = ring.index(under_in)
        slots = tuple(ring[start:] + ring[:start])
        crossings.append(Crossing(1 if slots[3] in (bl, br) else -1, slots))
        now[i : i + 2] = [tl, tr]
    return crossings, bottom, now


def shuffled(t: TangleDiagram, rng: random.Random) -> TangleDiagram:
    """The same diagram with edge labels permuted and crossings reordered."""
    labels = sorted(edge_labels(t))
    fresh = rng.sample(range(1, len(labels) + 1), len(labels))
    to = dict(zip(labels, fresh))
    crossings = [Crossing(c.sign, tuple(to[e] for e in c.slots)) for c in t.crossings]
    rng.shuffle(crossings)
    boundary = {p: to[e] for p, e in t.boundary.items()}
    return TangleDiagram(t.name, t.side, t.endpoints, tuple(crossings), t.loops, boundary)


def braid_tangle(strands: int, word: list[tuple[int, int]], side: str) -> TangleDiagram:
    """A braid word read as a tangle on the given side.

    Points 1..k are the bottom ends from left to right and k+1..2k the top
    ends from right to left, counterclockwise from the bottom-left corner,
    so k strands give 2k endpoints.
    """
    crossings, bottom, top = braid(strands, word, side)
    boundary = dict(enumerate(bottom + top[::-1], start=1))
    name = f"braid{strands}_{len(word)}"
    return TangleDiagram(name, side, 2 * strands, tuple(crossings), 0, boundary)


def random_braid_word(
    rng: random.Random, most: int = 8
) -> tuple[int, str, list[tuple[int, int]]]:
    """(strands, side, word): 2-4 strands, a random side and 3 to ``most``
    letters."""
    strands = rng.randint(2, 4)
    side = rng.choice(("inside", "outside"))
    word = [
        (rng.randrange(strands - 1), rng.choice((1, -1))) for _ in range(rng.randint(3, most))
    ]
    return strands, side, word


def random_braid_tangle(rng: random.Random, most: int = 8) -> TangleDiagram:
    """A random braid on 2-4 strands with 3 to ``most`` crossings, read as a
    tangle by :func:`braid_tangle` on a random side, with shuffled labels."""
    strands, side, word = random_braid_word(rng, most)
    return shuffled(braid_tangle(strands, word, side), rng)


def braid_closure(name: str, strands: int, word: list[tuple[int, int]]) -> TangleDiagram:
    """The closed diagram of a braid word: each top end joins the bottom end
    below it along an arc around the right of the strip, and a strand that
    no letter crosses closes into a loop."""
    crossings, bottom, top = braid(strands, word, "inside")
    to = dict(zip(top, bottom))
    crossings = [Crossing(c.sign, tuple(to.get(e, e) for e in c.slots)) for c in crossings]
    loops = sum(1 for b, t in zip(bottom, top) if b == t)
    return TangleDiagram(name, "inside", 0, tuple(crossings), loops)


def random_partial_resolutions(
    rng: random.Random, base: TangleDiagram, count: int, min_smoothed: int
) -> list[TangleDiagram]:
    """Distinct diagrams built by smoothing random crossing subsets of base."""
    out: list[TangleDiagram] = []
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    total = len(base.crossings)
    while len(out) < count:
        k = rng.randint(min_smoothed, total)
        idxs = tuple(sorted(rng.sample(range(total), k)))
        bits = tuple(rng.randint(0, 1) for _ in idxs)
        if (idxs, bits) in seen:
            continue
        seen.add((idxs, bits))
        t = base
        for removed, (i, b) in enumerate(zip(idxs, bits)):
            t = smooth_crossing(t, i - removed, b)
        out.append(t)
    return out
