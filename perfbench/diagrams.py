"""Tangle diagrams as the benchmark sees them: the file format, gluing, and
the two honesty checks every generated input must pass.

Nothing here imports the library.  The benchmark writes and reads the
tangle file format itself, so its reference answers never come from the
code they check.

A crossing is ``(sign, (a, b, c, d))`` with the slots counterclockwise from
the incoming under-strand: the under-strand runs a-c, the over-strand b-d,
the 0-smoothing joins (a, b) and (c, d), the 1-smoothing (a, d) and (b, c).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

Crossing = tuple[int, tuple[int, int, int, int]]


@dataclass(frozen=True)
class Diagram:
    name: str
    side: str
    endpoints: int
    crossings: tuple[Crossing, ...]
    loops: int = 0
    boundary: dict[int, int] = field(default_factory=dict)

    def counts(self) -> tuple[int, int]:
        """(positive, negative) crossing counts."""
        plus = sum(1 for sign, _ in self.crossings if sign > 0)
        return plus, len(self.crossings) - plus


def serialize(d: Diagram) -> str:
    lines = [f"tangle {d.name}", f"side {d.side}", f"endpoints {d.endpoints}"]
    for sign, slots in d.crossings:
        lines.append("cross {} {} {} {} {}".format("+" if sign > 0 else "-", *slots))
    if d.loops:
        lines.append(f"loop {d.loops}")
    for p in sorted(d.boundary):
        lines.append(f"boundary {p} {d.boundary[p]}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> Diagram:
    """Read a well-formed tangle file; raises ValueError on anything else."""
    head: dict[str, str] = {}
    crossings: list[Crossing] = []
    loops = 0
    boundary: dict[int, int] = {}
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        word, args = tokens[0], tokens[1:]
        if word in ("tangle", "side", "endpoints") and len(args) == 1:
            head[word] = args[0]
        elif word == "cross" and len(args) == 5 and args[0] in "+-":
            slots = tuple(int(x) for x in args[1:])
            crossings.append((1 if args[0] == "+" else -1, slots))  # type: ignore[arg-type]
        elif word == "loop" and len(args) == 1:
            loops = int(args[0])
        elif word == "boundary" and len(args) == 2:
            boundary[int(args[0])] = int(args[1])
        else:
            raise ValueError(f"unexpected line {raw!r}")
    return Diagram(
        head["tangle"], head["side"], int(head["endpoints"]), tuple(crossings), loops, boundary
    )


def _edge_ends(d: Diagram) -> dict[int, list[tuple]]:
    """Each edge label's two ends: ("x", crossing, slot) or ("b", point)."""
    ends: dict[int, list[tuple]] = {}
    for ci, (_, slots) in enumerate(d.crossings):
        for k, e in enumerate(slots):
            ends.setdefault(e, []).append(("x", ci, k))
    for p, e in d.boundary.items():
        ends.setdefault(e, []).append(("b", p))
    for e, where in ends.items():
        if len(where) != 2:
            raise ValueError(f"edge {e} has {len(where)} ends")
    return ends


def glue(inside: Diagram, outside: Diagram) -> Diagram:
    """The closed diagram obtained by joining the two halves point by point.

    Crossing order is kept (inside first) and slot positions are kept, so a
    property found per crossing of the result maps back to the halves.
    """
    if inside.endpoints != outside.endpoints:
        raise ValueError("halves have different endpoint counts")
    offset = max([e for _, s in inside.crossings for e in s] + list(inside.boundary.values()) + [0])
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in range(1, inside.endpoints + 1):
        a, b = find(inside.boundary[p]), find(outside.boundary[p] + offset)
        if a != b:
            parent[b] = a
    crossings = list(inside.crossings)
    crossings += [(s, tuple(e + offset for e in slots)) for s, slots in outside.crossings]
    crossings = [(s, tuple(find(e) for e in slots)) for s, slots in crossings]
    used = {e for _, slots in crossings for e in slots}
    closed = len({find(x) for x in list(parent)} - used)
    return Diagram(
        f"{inside.name}.{outside.name}",
        "inside",
        0,
        tuple(crossings),  # type: ignore[arg-type]
        inside.loops + outside.loops + closed,
        {},
    )


def _components(d: Diagram, rng: random.Random | None = None) -> list[set[tuple[int, int]]]:
    """Trace every component that meets a crossing or the boundary.

    Returns, per component, the set of (crossing, slot) pairs its chosen
    direction enters through.  With an ``rng`` each component's direction
    is random; without one it follows the first slot found.
    """
    ends = _edge_ends(d)
    seen: set[tuple[int, int]] = set()
    comps: list[set[tuple[int, int]]] = []

    def walk(edge: int, came_from: tuple, entered: set, closed_start: tuple | None) -> None:
        while True:
            a, b = ends[edge]
            there = b if a == came_from else a
            if there[0] == "b":
                return
            _, ci, k = there
            if (ci, k) == closed_start:
                return
            entered.add((ci, k))
            out = (k + 2) % 4
            seen.update({(ci, k), (ci, out)})
            edge = d.crossings[ci][1][out]
            came_from = ("x", ci, out)

    starts: list[tuple] = [("b", p) for p in sorted(d.boundary)]
    starts += [("x", ci, k) for ci in range(len(d.crossings)) for k in range(4)]
    for start in starts:
        if start[0] == "b":
            edge = d.boundary[start[1]]
            a, b = ends[edge]
            first = b if a == start else a
            if first[0] == "x" and (first[1], first[2]) in seen:
                continue
            if first[0] == "b" and first[1] < start[1]:
                continue
            entered: set = set()
            walk(edge, start, entered, None)
        else:
            _, ci, k = start
            if (ci, k) in seen:
                continue
            # leave crossing ci through slot k; we entered through k + 2
            entered = {(ci, (k + 2) % 4)}
            seen.update({(ci, k), (ci, (k + 2) % 4)})
            walk(d.crossings[ci][1][k], start, entered, (ci, (k + 2) % 4))
        comps.append(entered)
    if rng is not None:
        # the reverse direction enters every strand at the opposite slot
        comps = [{(ci, (k + 2) % 4) for ci, k in c} if rng.random() < 0.5 else c for c in comps]
    return comps


def _strand_direction(entered: set, ci: int) -> tuple[int, int]:
    """(under, over) directions at crossing ci: +1 when the under-strand runs
    a->c, respectively the over-strand d->b."""
    under = 1 if (ci, 0) in entered else -1 if (ci, 2) in entered else 0
    over = 1 if (ci, 3) in entered else -1 if (ci, 1) in entered else 0
    return under, over


def orientation(d: Diagram, rng: random.Random) -> list[tuple[bool, int]]:
    """A random orientation, as (rotate slots by two, sign) per crossing.

    Rotating puts the incoming under-strand in slot ``a``; the sign is the
    one the orientation gives.  Existing signs are ignored.
    """
    entered = set().union(*_components(d, rng))
    out = []
    for ci in range(len(d.crossings)):
        under, over = _strand_direction(entered, ci)
        out.append((under < 0, under * over))
    return out


def with_orientation(d: Diagram, choice: list[tuple[bool, int]]) -> Diagram:
    crossings = tuple(
        (sign, slots[2:] + slots[:2] if rotate else slots)
        for (_, slots), (rotate, sign) in zip(d.crossings, choice)
    )
    return Diagram(d.name, d.side, d.endpoints, crossings, d.loops, dict(d.boundary))


def orient(d: Diagram, rng: random.Random) -> Diagram:
    """The diagram with the signs and slot order of a random orientation."""
    return with_orientation(d, orientation(d, rng))


def orientable(d: Diagram) -> bool:
    """Whether some orientation of the components gives every crossing its sign.

    A crossing's sign is (under direction) * (over direction); reversing a
    component flips the directions of its strands.  Self-crossings therefore
    fix nothing and mixed crossings give a 2-colouring problem.
    """
    comps = _components(d)
    owner: dict[tuple[int, int], int] = {}
    for idx, comp in enumerate(comps):
        for ci, k in comp:
            owner[(ci, k)] = owner[(ci, (k + 2) % 4)] = idx
    entered = set().union(*comps)
    parity: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(comps))}
    for ci, (sign, _) in enumerate(d.crossings):
        under, over = _strand_direction(entered, ci)
        need = sign * under * over  # product of the two components' flips
        cu, co = owner[(ci, 0)], owner[(ci, 1)]
        if cu == co:
            if need != 1:
                return False
        else:
            parity[cu].append((co, need))
            parity[co].append((cu, need))
    flip: dict[int, int] = {}
    for root in parity:
        if root in flip:
            continue
        flip[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            for v, need in parity[u]:
                want = flip[u] * need
                if v not in flip:
                    flip[v] = want
                    stack.append(v)
                elif flip[v] != want:
                    return False
    return True


def planar(d: Diagram) -> bool:
    """Face-counting Euler test: V - E + F = 2 for every connected piece.

    The boundary circle counts as one extra vertex whose ports are the
    boundary points.  Seen from that vertex the points run clockwise for an
    inside tangle and counterclockwise for an outside one.
    """
    ends = _edge_ends(d)
    rotation: dict[tuple, tuple] = {}
    for ci in range(len(d.crossings)):
        for k in range(4):
            rotation[("x", ci, k)] = ("x", ci, (k + 1) % 4)
    points = list(range(1, d.endpoints + 1))
    if d.side == "inside":
        points.reverse()
    for i, p in enumerate(points):
        rotation[("b", p)] = ("b", points[(i + 1) % len(points)])
    other = {}
    for a, b in ends.values():
        other[a], other[b] = b, a
    faces = 0
    done: set = set()
    for dart in other:
        if dart in done:
            continue
        faces += 1
        while dart not in done:
            done.add(dart)
            dart = rotation[other[dart]]
    # connected pieces through edges and vertices
    parent: dict = {}

    def vertex(port: tuple) -> tuple:
        return ("B",) if port[0] == "b" else ("X", port[1])

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in ends.values():
        parent[find(vertex(a))] = find(vertex(b))
    vertices = {vertex(p) for p in other}
    pieces = len({find(v) for v in vertices})
    return len(vertices) - len(ends) + faces == 2 * pieces
