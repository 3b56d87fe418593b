"""Self-tests of the benchmark: inputs, reference, statistics, failure accounting.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import tanglejones.cli as cli
from perfbench import diagrams, gen, reference as ref, stats
from perfbench.diagrams import glue, parse, serialize
from perfbench.run import Runner, Tally
from perfbench.trace import PER_LAYER, Tracer
from perfbench.workloads import ClosedKnots, CorpusCli, Op, WideTangles
from tanglejones import jones, validate

ROOT = Path(__file__).resolve().parents[2]
CORPUS = sorted((ROOT / "corpus").glob("*.tangle"))


def _texts(ops: list[Op]) -> list[str]:
    return [Path(a).read_text() for op in ops for a in op.argv if a.endswith(".tangle")]


@pytest.mark.parametrize("cls", [ClosedKnots, WideTangles])
def test_generators_are_deterministic_and_distinct(cls, tmp_path):
    runs = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        (tmp_path / sub).mkdir()
        runs.append(_texts(cls(ROOT, seed, tmp_path / sub).ops(0, cls.cycle)))
    a, b, c = runs
    assert a == b
    assert a != c
    assert len(set(a)) == len(a) >= cls.cycle


@pytest.mark.parametrize("cls", [ClosedKnots, WideTangles])
def test_generated_inputs_are_honest(cls, tmp_path):
    """Every input validates, is planar and carries signs some orientation gives."""
    w = cls(ROOT, 3, tmp_path)
    ops = w.ops(0, cls.cycle) + w.warmup()
    for op in ops:
        files = [Path(a) for a in op.argv if a.endswith(".tangle")]
        halves = [parse(f.read_text()) for f in files]
        for f, d in zip(files, halves):
            assert validate(cli.parse_tangle(f.read_text())) == [], f
            assert diagrams.planar(d), f
            assert diagrams.orientable(d), f
        if len(halves) == 2:
            whole = glue(*halves)
            assert diagrams.planar(whole) and diagrams.orientable(whole)


def test_tangle_pairs_glue_to_honest_links():
    rng = random.Random(11)
    for endpoints in (4, 6, 8):
        for crossings in range(3, 9):
            inside, outside = gen.tangle_pair(endpoints, crossings, 2, rng, "p")
            assert len(inside.crossings) == crossings and inside.endpoints == endpoints
            whole = glue(inside, outside)
            assert diagrams.planar(whole) and diagrams.orientable(whole)


def test_checks_reject_dishonest_diagrams():
    """The Euler and orientation tests reject the known bad codes."""
    virtual = parse("tangle v\nside inside\nendpoints 0\ncross + 1 2 1 2\n")
    assert not diagrams.planar(virtual)
    bad_curl = parse("tangle c\nside inside\nendpoints 0\ncross - 1 1 2 2\n")
    assert diagrams.planar(bad_curl) and not diagrams.orientable(bad_curl)
    by_name = {p.stem: parse(p.read_text()) for p in CORPUS}
    assert all(diagrams.planar(d) for d in by_name.values())
    assert not diagrams.orientable(by_name["rt3a_closed"])
    assert diagrams.orientable(by_name["trefoil"])


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.min_samples() == 100
    assert stats.tail_percentile([float(i) for i in range(1, 101)]) == 90.0
    with pytest.raises(ValueError):
        stats.tail_percentile([float(i) for i in range(99)])
    with pytest.raises(ValueError):
        stats.tail_percentile([])


def test_fail_ratio_bound():
    clean = stats.fail_ratio_bound(0, 1000)
    assert 0.0029 < clean < 0.0031  # about 3 / n
    one = stats.fail_ratio_bound(1, 1000)
    assert one > 1.5 * clean
    assert stats.fail_ratio_bound(10, 1000) > one
    assert stats.fail_ratio_bound(5, 5) == 1.0


def test_reference_agrees_with_jones_on_corpus_and_torus_links():
    for path in CORPUS:
        d = parse(path.read_text())
        if d.endpoints == 0:
            assert ref.jones(d) == dict(jones(cli.load_tangle(path))._terms), path.stem
    for m in range(3, 10):
        t = gen.torus(m)
        lib = dict(jones(cli.parse_tangle(serialize(t)))._terms)
        assert ref.jones(t) == ref.torus_jones(m) == lib, m


def test_corpus_ops_pass_and_cover_every_file(tmp_path):
    w = CorpusCli(ROOT, 1, tmp_path)
    runner = Runner(cli)
    tally = Tally()
    for op in w.warmup():
        runner.run(op, tally)
    assert tally.failed == 0, tally.reasons
    used = {Path(a).stem for op in w.base for a in op.argv if a.endswith(".tangle")}
    assert used == {p.stem for p in CORPUS}


def _small_op(tmp_path) -> Op:
    return WideTangles(ROOT, 5, tmp_path).ops(0, 1)[0]  # decat on a 4-endpoint tangle


def test_corrupted_output_counts_as_failure(tmp_path):
    op = _small_op(tmp_path)
    runner = Runner(cli)
    _, code, out, failure = runner.call(op.argv)
    assert failure is None and op.verify(code, out) is None
    lines = out.splitlines(keepends=True)
    key, _, poly = lines[0].partition(" : ")
    corrupted = "".join([f"{key} : -({poly.strip()})\n"] + lines[1:])
    assert op.verify(code, corrupted) is not None
    assert op.verify(1, out) is not None
    doubled = ref.parse_vector(out, False)
    text = "".join(f"{k} : {ref.render({e: 2 * c for e, c in p.items()})}\n" for k, p in doubled.items())
    assert op.extra is not None and op.extra(out) and not op.extra(text)


def test_failures_raise_the_fail_ratio(tmp_path):
    op = _small_op(tmp_path)
    bad = Op(op.argv, op.as_json, lambda: "something else\n")
    runner = Runner(cli)
    good, worse = Tally(), Tally()
    for _ in range(3):
        runner.run(op, good)
        runner.run(op, worse)
    runner.run(bad, worse)
    assert good.failed == 0 and worse.failed == 1
    assert stats.fail_ratio_bound(worse.failed, worse.attempted) > stats.fail_ratio_bound(
        good.failed, good.attempted
    )


def test_op_over_budget_is_capped_and_failed(tmp_path):
    op = ClosedKnots(ROOT, 1, tmp_path).ops(6, 1)[0]  # a 12-crossing knot
    runner = Runner(cli, budget=0.005)
    tally = Tally()
    runner.run(op, tally)
    assert tally.capped == 1 and tally.failed == 1 and tally.attempted == 1


def test_tracer_reports_every_layer_and_restores_the_library(tmp_path):
    import tanglejones.decat as decat
    import tanglejones.halfpoly as halfpoly

    before = (decat.resolve, halfpoly.HalfLaurent.__add__, cli.main)
    ops = WideTangles(ROOT, 2, tmp_path).ops(0, 7)
    runner = Runner(cli)
    tracer = Tracer()
    tally = Tally()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            runner.run(op, tally, after=tracer.end_op)
    finally:
        tracer.uninstall()
    assert (decat.resolve, halfpoly.HalfLaurent.__add__, cli.main) == before
    assert tally.failed == 0
    values = tracer.metrics()
    names = {name for name, _, _ in PER_LAYER}
    assert names - set(values) == {"decat.peak_alloc_mb", "trace.overhead_ratio"}
    assert values["cli.parse_tangle_calls"] == 7 + 3  # the three pair ops read two files
    assert values["mutation.rotate_gen_calls"] > 0
    assert 0 < values["decat.useful_ratio"] <= 1
    mains = [s for s in tracer.span_records() if s["name"] == "cli.main"]
    assert [s["op"] for s in mains] == list(range(7))
    assert all(s["parent"] is None and s["end"] > s["start"] for s in mains)
