"""The three workloads: seeded op streams and the answer each op must give.

An op is one call of the command-line entry point with its arguments; it
must exit with 0 and print what ``reference`` or the frozen transcripts in
``expected.py`` say, never what the library says.  Expected
text is rendered only when an op is checked, so large outputs never pile
up in memory.

Schedules are cyclic so that every run of a workload sees the same mix of
sizes and verbs; the seed picks the diagrams and the order within a cycle.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import expected, gen, reference as ref
from .diagrams import Diagram, glue, parse, serialize


@dataclass
class Op:
    """One CLI call and its expected result."""

    argv: list[str]
    as_json: bool
    expect: Callable[[], object]
    extra: Callable[[str], bool] | None = field(default=None, repr=False)

    def verify(self, code: int | None, out: str) -> str | None:
        """None when the output is right, else the reason it is not."""
        if code != 0:
            return f"exit code {code}, expected 0"
        want = self.expect()
        if self.as_json:
            try:
                got = json.loads(out)
            except ValueError:
                return "output is not JSON"
        else:
            got = out
        if got != want:
            return "output differs from the reference"
        if self.extra is not None and not self.extra(out):
            return "pairing identity fails"
        return None


class Workload:
    name = ""
    cycle = 1  # ops per schedule cycle
    probe_ops = 1  # leading ops of a cycle re-run under tracemalloc; covers every size
    CANDIDATES = 8

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self._texts: set[str] = set()

    def ops(self, start: int, count: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def _write(self, name: str, d: Diagram) -> str:
        path = self.workdir / f"{name}.tangle"
        path.write_text(serialize(d))
        return str(path)

    def _draw(self, make: Callable[[], tuple[Diagram, ...]], target: int | None) -> tuple[Diagram, ...]:
        """An input whose file text is new in this run, drawn near a stated size.

        ``make`` returns the diagram to serve first, then any companions.
        With a target, the candidate among ``CANDIDATES`` whose state-sum
        size (``reference.state_sum_size``) is closest to it on a log scale
        wins; this keeps the work per op steady from run to run without
        fixing the diagrams.
        """
        best: tuple[float, tuple[Diagram, ...], str] | None = None
        for _ in range(self.CANDIDATES if target else 1):
            drawn = make()
            text = serialize(drawn[0])
            if text in self._texts:
                continue
            gap = abs(math.log(ref.state_sum_size(drawn[0]) / target)) if target else 0.0
            if best is None or gap < best[0]:
                best = (gap, drawn, text)
        if best is None:
            raise RuntimeError("could not draw a distinct input")
        self._texts.add(best[2])
        return best[1]


def _poly_op(argv: list[str], as_json: bool, poly: ref.Poly) -> Op:
    return Op(argv, as_json, lambda: ref.poly_output(poly, as_json))


class ClosedKnots(Workload):
    name = "closed_knots"
    # Size 10 spans the middle quarter and size 12 the top quarter of the
    # ops, so the median and p90 each fall inside one size, not between two.
    SIZES = (7, 8, 9, 10, 10, 11, 12, 12)
    FAMILIES = ("torus", "braid", "pretzel")
    CALLS = (("jones", False), ("jones", True), ("bracket", False), ("bracket", True))
    # median state-sum size of 200 drawings per family and crossing number
    TARGETS = {
        "braid": {7: 1224, 8: 2730, 9: 6552, 10: 16242, 11: 39816, 12: 96636},
        "pretzel": {7: 1236, 8: 3450, 9: 10254, 10: 30018, 11: 89796, 12: 269058},
    }
    cycle = 96  # every size slot meets every (family, call) pair once
    probe_ops = 16

    def __init__(self, root: Path, seed: int, workdir: Path):
        super().__init__(root, seed, workdir)
        self.combos = [(f, v, j) for f in self.FAMILIES for v, j in self.CALLS]
        random.Random(f"{self.name}:{seed}:order").shuffle(self.combos)

    def _op(self, tag: str, i: int, size: int, family: str, verb: str, as_json: bool) -> Op:
        rng = random.Random(f"{self.name}:{self.seed}:{tag}:{i}")
        (d,) = self._draw(
            lambda: (gen.closed_knot(family, size, rng, f"{family}{size}_{tag}{i}"),),
            self.TARGETS.get(family, {}).get(size),
        )
        poly = ref.jones(d) if verb == "jones" else ref.bracket(d)
        if family == "torus":
            closed = ref.torus_jones(size)
            if verb == "bracket":  # n+ = m, n- = 0
                closed = {e - 2 * size: c for e, c in closed.items()}
            if poly != closed:
                raise AssertionError(f"reference disagrees with the T(2,{size}) closed form")
            poly = closed
        argv = [verb] + (["--json"] if as_json else []) + [self._write(f"{tag}{i}", d)]
        return _poly_op(argv, as_json, poly)

    def ops(self, start: int, count: int) -> list[Op]:
        out = []
        for i in range(start, start + count):
            # sizes cycle every 8 ops, calls every 12; the shift by i // 24
            # makes each 96 ops cover all 96 (size slot, call) pairs
            family, verb, as_json = self.combos[(i + i // 24) % len(self.combos)]
            out.append(self._op("k", i, self.SIZES[i % len(self.SIZES)], family, verb, as_json))
        return out

    def warmup(self) -> list[Op]:
        return [self._op("w", i, 7, *combo) for i, combo in enumerate(self.combos)]


class WideTangles(Workload):
    name = "wide_tangles"
    KINDS = (
        ("decat", 4),
        ("decat", 6),
        ("decat", 8),
        ("pair", 4),
        ("pair", 6),
        ("pair", 8),
        ("mutate-check", 4),
    )
    CROSSINGS = (3, 4, 5, 6, 7, 8)
    # median state-sum size of 200 drawings per endpoint and crossing count
    TARGETS = {
        4: {3: 84, 4: 246, 5: 732, 6: 2190, 7: 6564, 8: 19686},
        6: {3: 210, 4: 588, 5: 1488, 6: 4188, 7: 9990, 8: 24432},
        8: {3: 822, 4: 2130, 5: 4785, 6: 11907, 7: 28971, 8: 84300},
    }
    cycle = 84  # 7 kinds x 6 sizes, once as text and once as JSON
    probe_ops = 42

    def _op(self, tag: str, i: int, verb: str, endpoints: int, crossings: int, as_json: bool) -> Op:
        rng = random.Random(f"{self.name}:{self.seed}:{tag}:{i}")
        name = f"w{endpoints}_{crossings}_{tag}{i}"
        outside_crossings = rng.randint(1, 3)
        inside, outside = self._draw(
            lambda: gen.tangle_pair(endpoints, crossings, outside_crossings, rng, name),
            self.TARGETS[endpoints][crossings],
        )
        flag = ["--json"] if as_json else []
        path = self._write(name, inside)
        closed = ref.jones(glue(inside, outside))
        if verb == "decat":
            return Op(
                ["decat"] + flag + [path],
                as_json,
                lambda: ref.vector_output(inside, as_json),
                extra=lambda out: ref.pairing_with(ref.parse_vector(out, as_json), outside)
                == closed,
            )
        if verb == "pair":
            return _poly_op(["pair"] + flag + [path, self._write(name + "_out", outside)], as_json, closed)
        return Op(["mutate-check"] + flag + [path], as_json, lambda: ref.mutation_output(as_json))

    def ops(self, start: int, count: int) -> list[Op]:
        out = []
        for i in range(start, start + count):
            verb, endpoints = self.KINDS[i % len(self.KINDS)]
            crossings = self.CROSSINGS[i % len(self.CROSSINGS)]
            as_json = (i // 42) % 2 == 1
            out.append(self._op("t", i, verb, endpoints, crossings, as_json))
        return out

    def warmup(self) -> list[Op]:
        return [
            self._op("w", 2 * k + j, verb, endpoints, 3, bool(j))
            for k, (verb, endpoints) in enumerate(self.KINDS)
            for j in (0, 1)
        ]


class CorpusCli(Workload):
    name = "corpus_cli"

    def __init__(self, root: Path, seed: int, workdir: Path):
        super().__init__(root, seed, workdir)
        corpus = root / "corpus"
        files = sorted(corpus.glob("*.tangle"))
        if len(files) != 27:
            raise FileNotFoundError(f"expected the 27 corpus files in {corpus}, found {len(files)}")
        self.base = self._build([(str(p), parse(p.read_text())) for p in files])
        self.cycle = self.probe_ops = len(self.base)
        self._orders: dict[int, list[int]] = {}

    def _build(self, files: list[tuple[str, Diagram]]) -> list[Op]:
        ops: list[Op] = []

        def add(argv: list[str], text, data) -> None:
            for as_json, want in ((False, text), (True, data)):
                flag = ["--json"] if as_json else []
                frozen = expected.TRANSCRIPTS.get(" ".join([argv[0]] + [Path(a).stem for a in argv[1:]]))
                if frozen is not None and not as_json:
                    if frozen != want:
                        raise AssertionError(f"reference disagrees with the transcript of {argv}")
                    want = frozen
                ops.append(Op([argv[0]] + flag + argv[1:], as_json, lambda w=want: w))

        for path, d in files:
            add(["decat", path], ref.vector_output(d, False), ref.vector_output(d, True))
            if d.endpoints == 0:
                for verb, poly in (("jones", ref.jones(d)), ("bracket", ref.bracket(d))):
                    add([verb, path], ref.poly_output(poly, False), ref.poly_output(poly, True))
            if d.side == "inside" and d.endpoints == 4:
                add(["mutate-check", path], ref.mutation_output(False), ref.mutation_output(True))
        for ipath, i in files:
            for opath, o in files:
                if i.side == "inside" and o.side == "outside" and 0 < i.endpoints == o.endpoints:
                    poly = ref.pair(i, o)
                    add(["pair", ipath, opath], ref.poly_output(poly, False), ref.poly_output(poly, True))
        for n in range(6):
            add(["basis", str(n)], ref.basis_output(n, False), ref.basis_output(n, True))
        return ops

    def ops(self, start: int, count: int) -> list[Op]:
        out = []
        for i in range(start, start + count):
            rnd, pos = divmod(i, self.cycle)
            if rnd not in self._orders:
                order = list(range(self.cycle))
                random.Random(f"{self.name}:{self.seed}:{rnd}").shuffle(order)
                self._orders[rnd] = order
            out.append(self.base[self._orders[rnd][pos]])
        return out

    def warmup(self) -> list[Op]:
        return list(self.base)


WORKLOADS = {w.name: w for w in (ClosedKnots, WideTangles, CorpusCli)}

