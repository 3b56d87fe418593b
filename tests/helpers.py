"""Shared test machinery: corpus access, diagram surgery, random tangles.

Everything here is deliberately independent of the library internals it is
used to check.  ``glue`` and ``smooth_crossing`` rebuild diagrams by edge
relabeling alone, so pairing and skein identities compare the library
against plain combinatorics rather than against itself.
"""

from __future__ import annotations

import random
from functools import lru_cache
from pathlib import Path

from tanglejones import (
    CleavedGen,
    Crossing,
    DecatVector,
    HalfLaurent,
    TangleDiagram,
    boundary,
    decat_vector,
    ensure_valid,
    generators,
    resolve,
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


def exhaustive_vector(t: TangleDiagram) -> DecatVector:
    """The invariant vector by enumerating every decorated resolution.

    Folds (-1)^h * q^i over ``generators(t)`` into the coefficient of each
    generator's boundary cleaved link, one monomial per decoration of the
    free circles.  This is the reference that ``decat_vector``, which sums
    free circles as (q + q^(-1)) powers, is checked against.
    """
    acc: dict[CleavedGen, dict[int, int]] = {}
    rho = state = None
    for g in generators(t):
        if g.rho != rho:
            rho, state = g.rho, resolve(t, g.rho)
        terms = acc.setdefault(boundary(state, g.far_matching, g.cut_decs, t.side), {})
        e2 = int(2 * g.i)
        terms[e2] = terms.get(e2, 0) + (-1 if g.h % 2 else 1)
    return DecatVector(t.endpoints // 2, {b: HalfLaurent(terms) for b, terms in acc.items()})


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
    inside_labels = [e for c in inside.crossings for e in c.slots]
    inside_labels += list(inside.boundary.values())
    offset = max(inside_labels, default=0)

    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in range(1, inside.endpoints + 1):
        root_in, root_out = find(inside.boundary[p]), find(outside.boundary[p] + offset)
        if root_in != root_out:
            parent[root_out] = root_in

    crossings = list(inside.crossings)
    crossings += [
        Crossing(c.sign, tuple(e + offset for e in c.slots)) for c in outside.crossings
    ]
    crossings = [Crossing(c.sign, tuple(find(e) for e in c.slots)) for c in crossings]
    used = {e for c in crossings for e in c.slots}
    closed_chains = sum(1 for r in {find(x) for x in list(parent)} if r not in used)
    glued = TangleDiagram(
        f"{inside.name}.{outside.name}",
        "inside",
        0,
        tuple(crossings),
        inside.loops + outside.loops + closed_chains,
        {},
    )
    ensure_valid(glued)
    return glued


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
    out = TangleDiagram(
        f"{t.name}.s{idx}{bit}", t.side, t.endpoints, tuple(crossings), loops, boundary
    )
    ensure_valid(out)
    return out


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
    t = TangleDiagram(
        f"kinks{kinks}", "inside", 2, tuple(crossings), 0, {1: 1, 2: edge}
    )
    ensure_valid(t)
    return t


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
