"""Reference answers, computed without the library.

The library sums over all 2^crossings resolutions and every decoration.
This module contracts the diagram one crossing at a time instead, keeping a
map from the connectivity of the open strand ends to a polynomial in q, and
closing each loop into a factor (q + 1/q) as soon as it forms.  For a tangle
the end states are the boundary matchings, and

    B(lam) = sum over resolutions inducing lam of (-q)^ones (q + 1/q)^free.

Every coefficient of the tangle's vector is then
q^(sum of decorations / 2) * (-1)^n- * q^(n+ - 2n-) * B(lam), where lam is
the generator's matching on the tangle's own side.  Rendering follows the
output format documented in the README, again without the library.

Polynomials are dicts from exponent to coefficient; doubled exponents
(``e2``) are used wherever half-integer powers can occur.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import product

from .diagrams import Diagram, glue

Poly = dict[int, int]


def _mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


@lru_cache(maxsize=None)
def _circle_power(k: int) -> tuple[tuple[int, int], ...]:
    poly: Poly = {0: 1}
    for _ in range(k):
        poly = _mul(poly, {1: 1, -1: 1})
    return tuple(poly.items())


def _join(pm: dict[int, int], x: int, y: int) -> int:
    """Add an arc between one end of edge x and one end of edge y.

    ``pm`` pairs the open ends of the partial strands: a label in it is an
    edge with one end processed.  Returns 1 when the arc closes a loop.
    """
    if x == y or pm.get(x) == y:
        pm.pop(x, None)
        pm.pop(y, None)
        return 1
    u = pm.pop(x, x)
    v = pm.pop(y, y)
    pm[u] = v
    pm[v] = u
    return 0


def _contract(d: Diagram, one, weigh, add) -> dict[tuple[int, ...], object]:
    """Sum over resolutions, grouped by boundary matching.

    ``weigh(value, bit, loops)`` extends a partial state's value by one
    smoothing that closed ``loops`` loops; ``add`` merges two values of the
    same state.  A matching is the tuple of partners of points 1..2n.
    """
    start: dict[int, int] = {}
    for p in sorted(d.boundary):
        _join(start, -p, d.boundary[p])
    states: dict[tuple, object] = {tuple(sorted(start.items())): one}
    todo = list(range(len(d.crossings)))
    open_edges = {e for e in start if e > 0}
    while todo:
        # greedy order: the crossing sharing most edges with the frontier
        ci = max(todo, key=lambda i: sum(e in open_edges for e in d.crossings[i][1]))
        todo.remove(ci)
        a, b, c, dd = d.crossings[ci][1]
        for e in (a, b, c, dd):
            open_edges ^= {e}
        nxt: dict[tuple, object] = {}
        for key, value in states.items():
            for bit, arcs in ((0, ((a, b), (c, dd))), (1, ((a, dd), (b, c)))):
                pm = dict(key)
                loops = sum(_join(pm, x, y) for x, y in arcs)
                new = weigh(value, bit, loops)
                k = tuple(sorted(pm.items()))
                nxt[k] = add(nxt[k], new) if k in nxt else new
        states = nxt
    return {tuple(-dict(k)[-p] for p in range(1, d.endpoints + 1)): v for k, v in states.items()}


def _weigh_poly(poly: Poly, bit: int, loops: int) -> Poly:
    weight = dict(_circle_power(loops))
    if bit:
        weight = {e + 1: -c for e, c in weight.items()}
    return _mul(poly, weight)


def _add_poly(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def boundary_sums(d: Diagram) -> dict[tuple[int, ...], Poly]:
    """B(lam) for every boundary matching lam with a nonzero sum.

    Exponents are powers of q; crossingless loops are included.
    """
    sums = _contract(d, {0: 1}, _weigh_poly, _add_poly)
    loop_factor = dict(_circle_power(d.loops))
    return {lam: _mul(p, loop_factor) for lam, p in sums.items() if p}  # type: ignore[arg-type]


def state_sum_size(d: Diagram) -> int:
    """How many signed monomials the exhaustive state sum folds.

    Every resolution meets every far-side matching and is decorated on all
    of its free and cut circles: the sum over (resolution, far matching) of
    2^(free + cut).  The workloads use it to draw inputs of a stated size.
    """
    counts = _contract(d, 1, lambda v, bit, loops: v << loops, int.__add__)
    n = d.endpoints // 2
    total = 0
    for lam, count in counts.items():
        total += count * sum(2 ** circle_count(lam, far) for far in matchings(n))  # type: ignore[operator]
    return total << d.loops


def _normalize(d: Diagram, poly: Poly) -> Poly:
    """(-1)^n- q^(n+ - 2 n-) times poly, with doubled exponents."""
    plus, minus = d.counts()
    sign = -1 if minus % 2 else 1
    return {2 * (e + plus - 2 * minus): sign * c for e, c in poly.items()}


def bracket(d: Diagram) -> Poly:
    """The library's bracket of a closed diagram, doubled exponents."""
    return {2 * e: c for e, c in boundary_sums(d).get((), {}).items()}


def jones(d: Diagram) -> Poly:
    """Unnormalized Jones polynomial of a closed diagram, doubled exponents."""
    return _normalize(d, boundary_sums(d).get((), {}))


def torus_jones(m: int) -> Poly:
    """Closed form for the positive T(2, m) torus link, doubled exponents:
    q^(m-2) + q^m + q^(m+2) + (-1)^m q^(3m)."""
    out: Poly = {}
    for e, c in ((m - 2, 1), (m, 1), (m + 2, 1), (3 * m, -1 if m % 2 else 1)):
        out[2 * e] = out.get(2 * e, 0) + c
    return {e: c for e, c in out.items() if c}


# --- matchings and cleaved links -------------------------------------------------


@lru_cache(maxsize=None)
def matchings(n: int) -> tuple[tuple[int, ...], ...]:
    """Non-crossing matchings of 1..2n as partner tuples, sorted by encoding."""

    def arcs(points: tuple[int, ...]):
        if not points:
            yield ()
            return
        for j in range(1, len(points), 2):
            for inner in arcs(points[1:j]):
                for outer in arcs(points[j + 1 :]):
                    yield ((points[0], points[j]),) + inner + outer

    out = []
    for arc_set in arcs(tuple(range(1, 2 * n + 1))):
        partner = [0] * (2 * n)
        for x, y in arc_set:
            partner[x - 1], partner[y - 1] = y, x
        out.append(tuple(partner))
    return tuple(sorted(out, key=encoding))


def encoding(m: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(m[p - 1] for p in range(1, len(m), 2))


def _code(m: tuple[int, ...]) -> str:
    return ",".join(str(e) for e in encoding(m))


@lru_cache(maxsize=None)
def circle_count(ins: tuple[int, ...], outs: tuple[int, ...]) -> int:
    seen: set[int] = set()
    count = 0
    for start in range(1, len(ins) + 1):
        if start in seen:
            continue
        count += 1
        p, use_ins = start, True
        while True:
            seen.add(p)
            p = ins[p - 1] if use_ins else outs[p - 1]
            use_ins = not use_ins
            if p == start:
                break
    return count


def key(ins: tuple[int, ...], outs: tuple[int, ...], decs: tuple[int, ...]) -> str:
    signs = "".join("+" if s > 0 else "-" for s in decs)
    return f"[{_code(ins)}|{_code(outs)}|{signs}]"


def basis_keys(n: int) -> list[str]:
    """Every decorated cleaved link on 2n points, in the library's basis order."""
    ms = matchings(n)
    return [
        key(i, o, decs)
        for i in ms
        for o in ms
        for decs in product((1, -1), repeat=circle_count(i, o))
    ]


def vector(d: Diagram) -> dict[str, Poly]:
    """The tangle's decat vector: generator key -> polynomial (doubled exponents)."""
    n = d.endpoints // 2
    out: dict[str, Poly] = {}
    for lam, poly in boundary_sums(d).items():
        base = _normalize(d, poly)
        if not base:
            continue
        for far in matchings(n):
            ins, outs = (lam, far) if d.side == "inside" else (far, lam)
            for decs in product((1, -1), repeat=circle_count(ins, outs)):
                shift = sum(decs)
                out[key(ins, outs, decs)] = {e + shift: c for e, c in base.items()}
    return out


def pairing_with(vec: dict[str, Poly], outside: Diagram) -> Poly:
    """Pair a vector, given by its keys, with the outside tangle's vector.

    The outside coefficient of [ins|outs|decs] is q^(sum decs / 2) times
    the outside's normalized B(outs).
    """
    sums = {lam: _normalize(outside, p) for lam, p in boundary_sums(outside).items()}
    by_code = {_code(lam): lam for lam in matchings(outside.endpoints // 2)}
    total: Poly = {}
    for k, poly in vec.items():
        _, outs_code, signs = k.strip("[]").split("|")
        other = sums.get(by_code[outs_code])
        if not other:
            continue
        shift = signs.count("+") - signs.count("-")
        prod = _mul(poly, {e + shift: c for e, c in other.items()})
        for e, c in prod.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


def pair(inside: Diagram, outside: Diagram) -> Poly:
    return jones(glue(inside, outside))


# --- rendering ---------------------------------------------------------------------


def terms(poly: Poly) -> list[list[int]]:
    return [[e, c] for e, c in sorted(poly.items(), reverse=True) if c]


def render(poly: Poly) -> str:
    parts: list[str] = []
    for e2, c in terms(poly):
        if e2 == 0:
            body = str(abs(c))
        else:
            if e2 % 2:
                power = f"q^({e2}/2)"
            elif e2 == 2:
                power = "q"
            elif e2 > 0:
                power = f"q^{e2 // 2}"
            else:
                power = f"q^({e2 // 2})"
            body = power if abs(c) == 1 else f"{abs(c)}*{power}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts) or "0"


def poly_output(poly: Poly, as_json: bool):
    """Expected stdout of jones, bracket and pair: text, or parsed JSON."""
    if as_json:
        return {"terms": terms(poly)}
    return render(poly) + "\n"


def vector_output(d: Diagram, as_json: bool):
    """Expected stdout of decat: text, or parsed JSON."""
    vec = vector(d)
    keys = sorted(vec)
    if as_json:
        gens = [{"key": k, "terms": terms(vec[k])} for k in keys]
        return {"n": d.endpoints // 2, "generators": gens}
    return "".join(f"{k} : {render(vec[k])}\n" for k in keys)


def basis_output(n: int, as_json: bool):
    keys = basis_keys(n)
    if as_json:
        return {"n": n, "count": len(keys), "keys": keys}
    return "".join(k + "\n" for k in keys) + f"count: {len(keys)}\n"


# Every tangle vector factors through its boundary matching, so the two
# symmetries and the two-step rotation hold for every 4-endpoint tangle.
MUTATION_TEXT = "B-symmetry: PASS\nC-symmetry: PASS\nM*^2-invariance: PASS\n"
MUTATION_JSON = {"B-symmetry": True, "C-symmetry": True, "M*^2-invariance": True}


def mutation_output(as_json: bool):
    return MUTATION_JSON if as_json else MUTATION_TEXT


def parse_vector(out: str, as_json: bool) -> dict[str, Poly]:
    """Read a decat output back into key -> polynomial, for the pairing check."""
    if as_json:
        data = json.loads(out)
        return {g["key"]: {e: c for e, c in g["terms"]} for g in data["generators"]}
    vec: dict[str, Poly] = {}
    for line in out.splitlines():
        k, _, text = line.partition(" : ")
        vec[k] = parse_poly(text)
    return vec


def parse_poly(text: str) -> Poly:
    poly: Poly = {}
    tokens = text.replace(" - ", " + -").split(" + ")
    for tok in tokens:
        sign = -1 if tok.startswith("-") else 1
        tok = tok.lstrip("-")
        coeff, _, power = tok.rpartition("*") if "*" in tok else ("", "", tok)
        if "q" not in power:
            e2, mag = 0, int(power)
        else:
            mag = int(coeff) if coeff else 1
            exp = power[2:].strip("()") if power != "q" else "1"
            num, _, den = exp.partition("/")
            e2 = int(num) if den else 2 * int(num)
        poly[e2] = poly.get(e2, 0) + sign * mag
    return {e: c for e, c in poly.items() if c}
