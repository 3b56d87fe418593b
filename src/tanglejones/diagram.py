"""Tangle diagrams as signed planar-diagram codes, and their resolutions.

A diagram lives in a marked disk with 2n boundary points and records each
crossing as four edge labels (a, b, c, d) read counterclockwise from the
incoming under-strand, together with an explicit sign.  Crossingless closed
components cannot be expressed by crossing slots, so a separate loop count
carries them.  The boundary map sends each point label to the edge ending
there; every edge label must occur exactly twice across crossing slots and
boundary entries.  A diagram checks all of this, and that its code has a
planar drawing, when it is built, so no invalid diagram exists.  A sound
code passes the per-crossing checks in one bulk test over its signs and
slots, and only a code that fails it is walked crossing by crossing for
the messages; the planarity check reuses the slot list that test built:

>>> TangleDiagram("x", "inside", 0, (Crossing(1, (1, 2, 1, 2)),))  # doctest: +ELLIPSIS
Traceback (most recent call last):
    ...
tanglejones.diagram.DiagramError: crossing code is not planar: ...

Resolving a diagram replaces each crossing by one of its two planar
smoothings: the 0-smoothing joins the slot pairs (a, b) and (c, d), the
1-smoothing joins (a, d) and (b, c).  The resulting components split into
free circles, which miss the boundary, and boundary-to-boundary strands,
which induce a non-crossing matching of the 2n points.

A state sum resolves one diagram 2^c times, so a valid diagram also
compiles itself once, on construction, into flat index arrays: its edge
labels numbered 0..E-1 in increasing order, each crossing's two smoothings
as index 4-tuples, and the boundary points with the index of their edge.
The state sum in :mod:`tanglejones.decat` walks the whole cube on those
arrays, sharing work between states.  :func:`resolve`, the readable view
of one state, joins one chosen smoothing per crossing and returns the
state's free circles and boundary matching as a pair.  Both keep a list
union-find that no pass compresses: each index that is read is walked to
its root with :func:`_root`, the boundary ends by :func:`_partners`, which
both share, and every index by :func:`resolve`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Iterable, Mapping, NamedTuple

from .planar import Matching

__all__ = [
    "Crossing",
    "TangleDiagram",
    "DiagramError",
    "validate",
    "resolve",
]


# Missing boundary points named one by one before the rest are counted.
_LISTED_POINTS = 5
# Each loop multiplies every state by q + q^(-1); far more never finish.
_MAX_LOOPS = 1000
# The state sum visits up to 2^crossings x Catalan(n) x 2^n decorated
# resolutions, each far matching meeting at most n cut circles, at a few
# microseconds each: 2^24 take minutes.
_MAX_STATES = 2**24


class DiagramError(ValueError):
    """A diagram violates a structural invariant."""


@dataclass(frozen=True)
class Crossing:
    """One signed crossing; slots run counterclockwise from the incoming
    under-strand."""

    sign: int
    slots: tuple[int, int, int, int]


class _Compiled(NamedTuple):
    """A valid diagram as flat index arrays, built once per diagram.

    ``labels`` lists the edge labels in increasing order, so index i stands
    for ``labels[i]``.  ``smoothings[c]`` holds crossing c's 0- and
    1-smoothing, each as an index 4-tuple (w, x, y, z) that joins w to x
    and y to z.  ``ends`` lists (point, index) for the boundary points in
    increasing order.
    """

    labels: tuple[int, ...]
    smoothings: tuple[tuple[tuple[int, int, int, int], tuple[int, int, int, int]], ...]
    ends: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class TangleDiagram:
    """A planar-diagram code for a tangle in a marked disk.

    ``side`` records which disk of the split sphere the tangle occupies,
    which determines whether its invariant fills the inside or the outside
    slot of the boundary generators.  The instance is treated as immutable;
    ``boundary`` maps each point 1..2n to the edge ending there.
    Construction raises :class:`DiagramError` listing every violation that
    :func:`validate` finds; a valid diagram then compiles the private
    ``_compiled`` arrays that the state sum and :func:`resolve` read, which
    take no part in construction, repr or equality.
    """

    name: str
    side: str
    endpoints: int
    crossings: tuple[Crossing, ...]
    loops: int = 0
    boundary: Mapping[int, int] = field(default_factory=dict)
    _compiled: _Compiled = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        errors = validate(self)
        if errors:
            raise DiagramError("; ".join(errors))
        object.__setattr__(self, "_compiled", _compile(self))


def validate(t: TangleDiagram) -> list[str]:
    """All invariant violations, empty when the diagram is well formed.

    Every diagram runs this once, on construction, so the list of a built
    diagram is always empty.

    A code that passes the structural checks must also have a planar
    drawing in its disk; see :func:`_euler_characteristic`.
    """
    errors: list[str] = []
    if t.side not in ("inside", "outside"):
        errors.append(f"side must be 'inside' or 'outside', got {t.side!r}")
    # A value that is not a plain int is reported once and never compared.
    if type(t.endpoints) is not int:
        errors.append(f"endpoints must be an integer, got {t.endpoints!r}")
    elif t.endpoints < 0:
        errors.append(f"endpoints must be nonnegative, got {t.endpoints}")
    elif t.endpoints % 2:
        errors.append(f"endpoints must be even, got {t.endpoints}")
    if type(t.loops) is not int:
        errors.append(f"loop count must be an integer, got {t.loops!r}")
    elif t.loops < 0:
        errors.append(f"loop count must be nonnegative, got {t.loops}")
    elif t.loops > _MAX_LOOPS:
        errors.append(f"loop count {t.loops} exceeds the limit of {_MAX_LOOPS}")
    signs = [cr.sign for cr in t.crossings]
    slots = [cr.slots for cr in t.crossings]
    tuples = set(map(type, slots)) <= {tuple}
    flat = [e for s in slots for e in s] if tuples else []
    # One bulk test passes a sound code's crossings; only a code that fails
    # it is walked crossing by crossing, for the messages.
    if (
        tuples
        and set(map(len, slots)) <= {4}
        and set(map(type, signs + flat)) <= {int}
        and set(signs) <= {1, -1}
        and min(flat, default=1) >= 1
    ):
        labels = flat + list(t.boundary.values())
    else:
        labels = list(t.boundary.values())
        for idx, cr in enumerate(t.crossings, start=1):
            if type(cr.sign) is not int or cr.sign not in (1, -1):
                errors.append(f"crossing {idx} has sign {cr.sign!r}, expected +1 or -1")
            if type(cr.slots) is not tuple:
                errors.append(f"crossing {idx} has slots {cr.slots!r}, expected a tuple")
                labels.append(cr.slots)  # not an int: the edge count below is skipped
                continue
            if len(cr.slots) != 4:
                errors.append(f"crossing {idx} has {len(cr.slots)} slots, expected 4")
            elif any(type(e) is int and e < 1 for e in cr.slots):
                errors.append(f"crossing {idx} has a non-positive edge label")
            for e in cr.slots:
                if type(e) is not int:
                    errors.append(f"crossing {idx} has edge label {e!r}, expected an integer")
            labels += cr.slots
    for p, e in t.boundary.items():
        if type(p) is not int:
            errors.append(f"boundary names point {p!r}, expected an integer")
        if type(e) is not int:
            errors.append(f"boundary point {p!r} has edge label {e!r}, expected an integer")
        elif e < 1:
            errors.append(f"boundary point {p!r} has a non-positive edge label")
    if type(t.endpoints) is int and set(map(type, t.boundary)) <= {int}:
        # The point count comes from the file, so missing points are
        # counted, never listed in full.
        outside = sorted([p for p in t.boundary if not 1 <= p <= t.endpoints])
        missing = max(t.endpoints, 0) - len(t.boundary) + len(outside)
        if missing:
            unmatched = (p for p in count(1) if p not in t.boundary)
            for p in islice(unmatched, min(missing, _LISTED_POINTS)):
                errors.append(f"boundary point {p} has no edge")
        if missing > _LISTED_POINTS:
            errors.append(f"and {missing - _LISTED_POINTS} more boundary points have no edge")
        for p in outside:
            errors.append(f"boundary names point {p}, outside 1..{t.endpoints}")
    if set(map(type, labels)) <= {int}:
        usage = Counter(labels)
        if set(usage.values()) != {2}:
            for e in sorted(usage):
                if usage[e] != 2:
                    errors.append(f"edge {e} has {usage[e]} ends, expected exactly 2")
    if not errors:
        pieces, euler = _euler_characteristic(t, flat)
        if euler != 2 * pieces:
            errors.append(
                f"crossing code is not planar: V - E + F = {euler} over {pieces} "
                f"connected piece(s), expected {2 * pieces}"
            )
    return errors


def _euler_characteristic(t: TangleDiagram, flat: list[int]) -> tuple[int, int]:
    """(connected pieces, V - E + F) of a well-formed diagram on the sphere.

    ``flat`` lists the crossings' slots in order.  Vertices are the
    crossings plus, when there are endpoints, the boundary circle collapsed
    to one vertex whose ports are the boundary points.  Port 4c + k is slot
    k of crossing c, and port 4C + p - 1 is point p.  Sorting the ports by
    edge label puts the two ends of each edge side by side.  Each face is
    traced by leaving a port along its edge and turning to the next port
    counterclockwise around the vertex reached.  Seen from the collapsed
    boundary the points run clockwise for an inside tangle and
    counterclockwise for an outside one.  The code is planar exactly when
    V - E + F = 2 for every connected piece.
    """
    crossings = len(t.crossings)
    base = 4 * crossings
    ports = flat + [t.boundary[p] for p in range(1, t.endpoints + 1)]
    vertices = crossings + (1 if t.endpoints else 0)
    parent = list(range(vertices))
    pieces = vertices
    other = [0] * len(ports)
    by_edge = sorted(range(len(ports)), key=ports.__getitem__)
    for port, mate in zip(by_edge[::2], by_edge[1::2]):
        other[port], other[mate] = mate, port
        # join the edge's two vertices, each walked to its root here: a
        # _root call per end costs more than the rest of the loop
        a = port >> 2 if port < base else crossings
        b = mate >> 2 if mate < base else crossings
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[a] = b
            pieces -= 1

    # around a crossing, slot k turns to slot k + 1 and slot 3 to slot 0
    turn = list(range(1, base + 1))
    turn[3::4] = range(0, base, 4)
    points = list(range(base, len(ports)))
    turn += points[-1:] + points[:-1] if t.side == "inside" else points[1:] + points[:1]
    faces = 0
    seen = [False] * len(ports)
    for start in range(len(ports)):
        if seen[start]:
            continue
        faces += 1
        port = start
        while not seen[port]:
            seen[port] = True
            port = turn[other[port]]
    return pieces, vertices - len(ports) // 2 + faces


def _compile(t: TangleDiagram) -> _Compiled:
    flat = [e for cr in t.crossings for e in cr.slots]
    labels = tuple(sorted({*flat, *t.boundary.values()}))
    index = dict(zip(labels, range(len(labels))))
    # one iterator read four at a time: a crossing's slots as indices
    slots = map(index.__getitem__, flat)
    smoothings = tuple([((a, b, c, d), (a, d, b, c)) for a, b, c, d in zip(slots, slots, slots, slots)])
    ends = tuple([(p, index[t.boundary[p]]) for p in sorted(t.boundary)])
    return _Compiled(labels, smoothings, ends)


def _root(parent: list[int], x: int) -> int:
    """The root of index x in a list union-find."""
    while parent[x] != x:
        x = parent[x]
    return x


def _partners(parent: list[int], ends: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """The partner of each boundary point 1..2n: the other end of its strand.

    Each end is walked to its root in ``parent``, as the union-find left it.
    """
    pairs = [0] * len(ends)
    first: dict[int, int] = {}
    for p, i in ends:
        root = _root(parent, i)
        mate = first.pop(root, 0)
        if mate:
            pairs[p - 1], pairs[mate - 1] = mate, p
        else:
            first[root] = p
    return tuple(pairs)


def resolve(t: TangleDiagram, rho: Iterable[int]) -> tuple[tuple[frozenset[int], ...], Matching]:
    """Smooth every crossing according to rho and trace the components.

    Returns the pair ``(free_circles, lam)``: the edge labels of each
    component that misses the boundary, with crossingless loops as empty
    sets at the end, and the non-crossing matching that the
    boundary-to-boundary strands induce on the 2n points.

    ``rho`` is any iterable of one 0/1 bit per crossing; anything else
    raises :class:`ValueError`.  The bits choose one smoothing per
    crossing, a list union-find joins each, and every index is then walked
    to its root.  The circles collect their labels in increasing order, so
    they come out ordered by smallest label.  The diagram is valid by
    construction, so every component is a closed loop or a strand with two
    boundary ends, and the planarity check makes the strands' matching
    non-crossing.  No verb calls this: tests check the state sum against
    it, and ``perfbench``'s tracer wraps it and reads ``decat.resolve``.

    The Hopf link has two free circles when both crossings smooth alike
    and one otherwise:

    >>> hopf = TangleDiagram("hopf", "inside", 0,
    ...                      (Crossing(1, (2, 3, 4, 1)), Crossing(1, (1, 4, 3, 2))))
    >>> [len(resolve(hopf, rho)[0]) for rho in ((0, 0), (0, 1), (1, 0), (1, 1))]
    [2, 1, 1, 2]
    """
    labels, smoothings, ends = t._compiled
    bits = tuple(rho)
    if len(bits) != len(smoothings):
        raise ValueError(f"expected {len(smoothings)} resolution bits, got {len(bits)}")
    if any(bit not in (0, 1) for bit in bits):
        raise ValueError("resolution bits must be 0 or 1")
    parent = list(range(len(labels)))
    for pair, bit in zip(smoothings, bits):
        w, x, y, z = pair[bit == 1]
        parent[_root(parent, w)] = _root(parent, x)
        parent[_root(parent, y)] = _root(parent, z)
    roots = [_root(parent, i) for i in range(len(labels))]
    on_boundary = {roots[i] for _, i in ends}
    circles: dict[int, list[int]] = {}
    for label, root in zip(labels, roots):
        if root not in on_boundary:
            circles.setdefault(root, []).append(label)
    free = [frozenset(edges) for edges in circles.values()]
    free.extend(frozenset() for _ in range(t.loops))
    return tuple(free), Matching(_partners(parent, ends))
