"""Per-layer tracing by wrapping the library's public functions from outside.

Functions are patched where their callers look them up: a module-level
function in every module that imported it by name (``tanglejones.decat``
calls ``resolve`` through its own namespace, so that copy is wrapped as well
as ``tanglejones.diagram.resolve``), and methods on their class.  The
library itself is not edited, and untraced runs never import this module.

Each wrapped call is a span with a name, start, end, parent and op id.
Spans at layer boundaries (a CLI call, parsing, validation, a state sum,
rendering a vector, a mutation check) are kept one by one.  Hot leaf calls
(resolve, circle tracing, generator and matching construction, polynomial
arithmetic) run tens of thousands of times per op, so they are folded into
their nearest kept ancestor as a count and a total time.  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

# (module, attribute, span name, layer group, kept as its own span)
FUNCTIONS = [
    ("cli", "main", "cli.main", "cli.main", True),
    ("cli", "parse_tangle", "cli.parse_tangle", "cli.parse", True),
    ("cli", "validate", "diagram.validate", "diagram.validate", True),
    ("diagram", "validate", "diagram.validate", "diagram.validate", True),
    ("cli", "decat_vector", "decat.decat_vector", "decat.state_sum", True),
    ("decat", "decat_vector", "decat.decat_vector", "decat.state_sum", True),
    ("mutation", "decat_vector", "decat.decat_vector", "decat.state_sum", True),
    ("cli", "bracket", "decat.bracket", "decat.state_sum", True),
    ("cli", "jones", "decat.jones", "decat.jones", True),
    ("cli", "pair", "decat.pair", "decat.pair", True),
    ("cli", "mutation_check", "mutation.mutation_check", "mutation.check", True),
    ("mutation", "rotate_vector", "mutation.rotate_vector", "mutation.rotate", True),
    ("cli", "enumerate_cleaved", "cleaved.enumerate_cleaved", "cleaved.basis", True),
    ("decat", "resolve", "diagram.resolve", "diagram.resolve", False),
    ("diagram", "resolve", "diagram.resolve", "diagram.resolve", False),
    ("decat", "enumerate_matchings", "planar.enumerate_matchings", "planar", False),
    ("cleaved", "enumerate_matchings", "planar.enumerate_matchings", "planar", False),
    ("mutation", "rotate_matching", "planar.rotate_matching", "planar", False),
    ("cleaved", "circles_of", "cleaved.circles_of", "cleaved.circles", False),
    ("decat", "circles_of", "cleaved.circles_of", "cleaved.circles", False),
    ("mutation", "circles_of", "cleaved.circles_of", "cleaved.circles", False),
    ("mutation", "rotate_gen", "mutation.rotate_gen", "mutation.rotate", False),
]

# (module, class, attribute, span name, layer group, kept as its own span)
METHODS = [
    ("planar", "Matching", "__post_init__", "planar.Matching", "planar", False),
    ("planar", "Matching", "from_arcs", "planar.from_arcs", "planar", False),
    ("planar", "Matching", "decode", "planar.decode", "planar", False),
    ("cleaved", "CleavedGen", "__post_init__", "cleaved.CleavedGen", "cleaved.gen", False),
    ("cleaved", "CleavedGen", "key", "cleaved.key", "cleaved.key", False),
    ("decat", "DecatVector", "render_text", "decat.render_text", "decat.render", True),
    ("decat", "DecatVector", "to_json", "decat.to_json", "decat.render", True),
    ("halfpoly", "HalfLaurent", "__add__", "halfpoly.add", "halfpoly.arith", False),
    ("halfpoly", "HalfLaurent", "__radd__", "halfpoly.add", "halfpoly.arith", False),
    ("halfpoly", "HalfLaurent", "__mul__", "halfpoly.mul", "halfpoly.arith", False),
    ("halfpoly", "HalfLaurent", "__rmul__", "halfpoly.mul", "halfpoly.arith", False),
    ("halfpoly", "HalfLaurent", "__pow__", "halfpoly.pow", "halfpoly.arith", False),
    ("halfpoly", "HalfLaurent", "render", "halfpoly.render", "halfpoly.render", False),
    ("halfpoly", "HalfLaurent", "sorted_terms", "halfpoly.sorted_terms", "halfpoly.render", False),
]

ENGINES = ("decat.decat_vector", "decat.bracket")

# name, unit, better: the per-layer metrics a traced run reports
PER_LAYER = [
    ("cli.main_self_s", "s", "lower"),
    ("cli.parse_tangle_s", "s", "lower"),
    ("cli.parse_tangle_calls", "count", "lower"),
    ("diagram.validate_s", "s", "lower"),
    ("diagram.resolve_calls", "count", "lower"),
    ("diagram.resolve_s", "s", "lower"),
    ("diagram.free_circles", "count", "lower"),
    ("planar.matching_builds", "count", "lower"),
    ("planar.matching_s", "s", "lower"),
    ("cleaved.gen_builds", "count", "lower"),
    ("cleaved.gen_build_s", "s", "lower"),
    ("cleaved.circles_of_calls", "count", "lower"),
    ("cleaved.circles_of_hit_ratio", "ratio", "higher"),
    ("cleaved.key_calls", "count", "lower"),
    ("cleaved.key_s", "s", "lower"),
    ("cleaved.cache_entries", "count", "lower"),
    ("decat.state_sum_self_s", "s", "lower"),
    ("decat.monomials", "count", "lower"),
    ("decat.useful_ratio", "ratio", "higher"),
    ("decat.vector_entries", "count", "lower"),
    ("decat.render_s", "s", "lower"),
    ("decat.peak_alloc_mb", "MB", "lower"),
    ("halfpoly.arith_calls", "count", "lower"),
    ("halfpoly.arith_s", "s", "lower"),
    ("halfpoly.render_s", "s", "lower"),
    ("mutation.rotate_gen_calls", "count", "lower"),
    ("mutation.rotate_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _module(name: str):
    return importlib.import_module(f"tanglejones.{name}")


class _Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap owner.attr if it exists; a name later versions dropped is skipped."""
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                return
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
        else:
            if not hasattr(owner, attr):
                return
            raw = getattr(owner, attr)
            setattr(owner, attr, make(raw))
        self._undo.append((owner, attr, raw))

    def undo(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self) -> None:
        self.op = -1
        # frame: [name, start, time in children, kept ancestor span, free circles]
        self._stack: list[list] = []
        # span: [name, start, end, parent span, op id, {leaf name: [calls, seconds]}]
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._groups: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Counter = Counter()
        self._results: list[object] = []
        self._paused = False
        self._patches = _Patches()
        self._circles = None  # the circles_of cache, for its hit ratio
        self._circles_start = None
        self._caches: list = []  # circles_of and _cleaved, for their sizes

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        cleaved = _module("cleaved")
        caches = (getattr(cleaved, "circles_of", None), getattr(cleaved, "_cleaved", None))
        self._caches = [c for c in caches if hasattr(c, "cache_info")]
        if hasattr(caches[0], "cache_info"):
            self._circles = caches[0]
            self._circles_start = caches[0].cache_info()
        for mod, attr, name, group, keep in FUNCTIONS:
            after = self._after(name)
            self._patches.replace(
                _module(mod), attr, lambda f, n=name, g=group, k=keep, a=after: self._wrap(f, n, g, k, a)
            )
        for mod, cls, attr, name, group, keep in METHODS:
            owner = getattr(_module(mod), cls, None)
            if owner is not None:
                self._patches.replace(
                    owner, attr, lambda f, n=name, g=group, k=keep: self._wrap(f, n, g, k, None)
                )

    def uninstall(self) -> None:
        self._patches.undo()

    def _after(self, name: str) -> Callable | None:
        counters = self.counters
        if name == "diagram.resolve":

            def after_resolve(state, parent):
                free = len(state.free_circles)
                counters["free_circles"] += free
                if parent is not None:
                    if parent[0] == "decat.bracket":
                        counters["monomials"] += 2**free
                    parent[4] = free

            return after_resolve
        if name == "cleaved.circles_of":

            def after_circles(circles, parent):
                if parent is not None and parent[0] == "decat.decat_vector":
                    counters["monomials"] += 2 ** (parent[4] + len(circles))

            return after_circles
        if name in ENGINES:
            return lambda result, parent: self._results.append(result)
        return None

    def _wrap(self, func: Callable, name: str, group: str, keep: bool, after: Callable | None) -> Callable:
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        g = self._groups[group]
        tracer = self

        def traced(*args, **kwargs):
            if tracer._paused:
                return func(*args, **kwargs)
            parent = stack[-1] if stack else None
            if keep:
                kept = len(spans)
                spans.append([name, 0.0, 0.0, parent[3] if parent else None, tracer.op, {}])
            else:
                kept = parent[3] if parent else None
            frame = [name, 0.0, 0.0, kept, 0]
            stack.append(frame)
            start = frame[1] = perf_counter()
            if not g[0]:
                g[1] = start
            g[0] += 1
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                g[0] -= 1
                if not g[0]:
                    g[2] += end - g[1]
                calls[name] += 1
                self_s[name] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if keep:
                    spans[kept][1] = start
                    spans[kept][2] = end
                elif kept is not None:
                    leaf = spans[kept][5].setdefault(name, [0, 0.0])
                    leaf[0] += 1
                    leaf[1] += dur
            if after is not None:
                after(result, parent)
            return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced

    # -- bookkeeping between ops ---------------------------------------------------

    def end_op(self) -> None:
        """Count the state sums' output terms, with recording paused."""
        self._paused = True
        try:
            for result in self._results:
                if hasattr(result, "items"):  # a DecatVector
                    self.counters["vector_entries"] += len(result)
                    polys = [poly for _, poly in result.items()]
                else:
                    polys = [result]
                self.counters["terms"] += sum(len(p.support()) for p in polys)
        finally:
            self._results.clear()
            self._paused = False

    def busy(self, group: str) -> float:
        return self._groups[group][2] if group in self._groups else 0.0

    def metrics(self) -> dict[str, float]:
        c = self.counters
        hits = misses = 0
        if self._circles is not None:
            info = self._circles.cache_info()
            hits = info.hits - self._circles_start.hits
            misses = info.misses - self._circles_start.misses
        return {
            "cli.main_self_s": self.self_s["cli.main"],
            "cli.parse_tangle_s": self.busy("cli.parse"),
            "cli.parse_tangle_calls": self.calls["cli.parse_tangle"],
            "diagram.validate_s": self.busy("diagram.validate"),
            "diagram.resolve_calls": self.calls["diagram.resolve"],
            "diagram.resolve_s": self.busy("diagram.resolve"),
            "diagram.free_circles": c["free_circles"],
            "planar.matching_builds": self.calls["planar.Matching"],
            "planar.matching_s": self.busy("planar"),
            "cleaved.gen_builds": self.calls["cleaved.CleavedGen"],
            "cleaved.gen_build_s": self.busy("cleaved.gen"),
            "cleaved.circles_of_calls": self.calls["cleaved.circles_of"],
            "cleaved.circles_of_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cleaved.key_calls": self.calls["cleaved.key"],
            "cleaved.key_s": self.busy("cleaved.key"),
            "cleaved.cache_entries": sum(cache.cache_info().currsize for cache in self._caches),
            "decat.state_sum_self_s": sum(self.self_s[n] for n in ENGINES),
            "decat.monomials": c["monomials"],
            "decat.useful_ratio": c["terms"] / c["monomials"] if c["monomials"] else 0.0,
            "decat.vector_entries": c["vector_entries"],
            "decat.render_s": self.busy("decat.render"),
            "halfpoly.arith_calls": sum(
                self.calls[n] for n in ("halfpoly.add", "halfpoly.mul", "halfpoly.pow")
            ),
            "halfpoly.arith_s": self.busy("halfpoly.arith"),
            "halfpoly.render_s": self.busy("halfpoly.render"),
            "mutation.rotate_gen_calls": self.calls["mutation.rotate_gen"],
            "mutation.rotate_s": self.busy("mutation.rotate"),
        }

    def span_records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op", "leaves")
        return [dict(zip(keys, s)) for s in self.spans]


class AllocProbe:
    """Peak traced allocation inside each state-sum call, in bytes.

    Runs in its own pass because tracemalloc slows every allocation, which
    would distort the span timings.
    """

    def __init__(self) -> None:
        self.peak = 0
        self._depth = 0
        self._patches = _Patches()

    def install(self) -> None:
        for mod, attr, name, _, _ in FUNCTIONS:
            if name in ENGINES:
                self._patches.replace(_module(mod), attr, self._wrap)
        tracemalloc.start()

    def uninstall(self) -> None:
        tracemalloc.stop()
        self._patches.undo()

    def _wrap(self, func: Callable) -> Callable:
        def probed(*args, **kwargs):
            if self._depth:
                return func(*args, **kwargs)
            self._depth += 1
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return func(*args, **kwargs)
            finally:
                self._depth -= 1
                self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - base)

        return probed
