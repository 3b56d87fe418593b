"""Invariant vectors, pairing, and the closed-diagram polynomials."""

from __future__ import annotations

import random
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product

import pytest

from tanglejones import (
    CleavedGen,
    Crossing,
    DecatVector,
    DiagramError,
    HalfLaurent,
    Matching,
    TangleDiagram,
    bracket,
    decat_vector,
    enumerate_matchings,
    jones,
    mutation_check,
    pair,
    parse,
    resolve,
)
from tanglejones import decat
from tanglejones.cli import main
from tanglejones.decat import _EMPTY_GEN, _closed_counts, _state_counts

from .helpers import (
    _cut_circles,
    braid_closure,
    cleaved_basis,
    corpus_names,
    corpus_path,
    corpus_tangle,
    decat_of,
    exhaustive_vector,
    generators,
    glue,
    random_braid_tangle,
    tangle_text,
    with_extra_loop,
)


def key_coeffs(v: DecatVector) -> dict[str, str]:
    return {g.key(): c.render() for g, c in v.items()}


def test_straight_strand_vector():
    assert key_coeffs(decat_of("strand1")) == {
        "[2|2|+]": "q^(1/2)",
        "[2|2|-]": "q^(-1/2)",
    }


def test_single_crossing_spot_values():
    v = key_coeffs(decat_of("t_left"))
    assert v["[4,2|2,4|+]"] == "q^(3/2)"
    assert v["[2,4|2,4|++]"] == "-q^3"
    assert v["[4,2|4,2|--]"] == "1"
    assert len(v) == 12


def test_generator_stream_is_graded():
    t = corpus_tangle("hopf")
    gens = list(generators(t))
    assert len(gens) == 12
    for g in gens:
        assert g.h == sum(g.rho)
        assert g.i == Fraction(2 * (g.h + 2 + sum(g.free_decs)), 2)


def test_vector_container_behavior():
    v = decat_of("strand2")
    assert v.n == 2
    assert len(v) == 6
    absent = [g for g in cleaved_basis(2) if not v.get(g)]
    assert len(absent) == 6
    assert all(g.inside.encode() == (4, 2) for g in absent)
    js = decat_of("strand1").to_json()
    assert js["n"] == 1
    assert {g["key"] for g in js["generators"]} == {"[2|2|+]", "[2|2|-]"}
    lines = v.render_text().splitlines()
    assert lines == sorted(lines)
    assert v == decat_vector(corpus_tangle("strand2"))
    assert v != decat_of("strand2_nested")


def test_vector_rejects_wrong_generators_and_coefficients():
    arc = Matching.decode((2,))
    g = CleavedGen(arc, arc, (1,))
    # an int coefficient would build and fail only when rendered
    with pytest.raises(TypeError, match=r"^coefficient of \[2\|2\|\+\] is 5, not a HalfLaurent$"):
        DecatVector(1, {g: 5})
    with pytest.raises(ValueError, match=r"^generator \[2\|2\|\+\] does not live on 4 points$"):
        DecatVector(2, {g: parse("q")})


def test_keys_are_rendered_only_for_output(monkeypatch):
    calls = []
    key = CleavedGen.key

    def counted(g):
        calls.append(g)
        return key(g)

    inside, outside = decat_of("kt_inside"), decat_of("kt_outside")
    monkeypatch.setattr(CleavedGen, "key", counted)
    pair(inside, outside)
    assert calls == []
    inside.render_text()
    assert len(calls) == len(inside)
    inside.to_json()
    assert len(calls) == 2 * len(inside)


def test_pair_requires_equal_n():
    with pytest.raises(ValueError):
        pair(decat_of("strand1"), decat_of("strand2_out"))


def test_pair_is_symmetric_in_coefficients():
    got = pair(decat_of("t_left"), decat_of("t_right"))
    expected = sum(
        (
            decat_of("t_left").get(g) * decat_of("t_right").get(g)
            for g, _ in decat_of("t_left").items()
        ),
        start=parse("0"),
    )
    assert got == expected


def test_jones_and_bracket_want_closed_diagrams():
    with pytest.raises(DiagramError):
        jones(corpus_tangle("t_left"))
    with pytest.raises(DiagramError):
        bracket(corpus_tangle("strand1"))


def test_closed_diagram_values():
    assert jones(corpus_tangle("unknot")) == parse("q + q^(-1)")
    assert bracket(corpus_tangle("unknot")) == parse("q + q^(-1)")
    assert bracket(corpus_tangle("kink_plus")) == parse("1 + q^(-2)")
    assert jones(corpus_tangle("trefoil")) == parse("-q^9 + q^5 + q^3 + q")


def test_grading_additivity_across_the_equator():
    # Matched inside/outside generator pairs biject with the generators of
    # the glued diagram, adding gradings; checked as a multiset identity.
    tin, tout = corpus_tangle("t_left"), corpus_tangle("t_right")
    glued = glue(tin, tout)
    outside_gens = list(generators(tout))
    paired = [
        (gi.h + go.h, gi.i + go.i)
        for gi in generators(tin)
        for go in outside_gens
        if gi.boundary == go.boundary
    ]
    glued_gradings = [(g.h, g.i) for g in generators(glued)]
    assert sorted(paired) == sorted(glued_gradings)


def test_vectors_carry_integer_coefficients_on_half_grid():
    # cut circles contribute half-integer exponents; parity is fixed per
    # generator, so each coefficient is supported on one parity class
    for name in ("t_left", "rt3a", "kt_inside"):
        v = decat_of(name)
        for g, c in v.items():
            parities = {e % 2 for e in c.support()}
            assert len(parities) == 1


def test_pair_recovers_jones_for_a_fresh_split():
    got = pair(decat_of("rt3a"), decat_of("strand3_out"))
    want = jones(glue(corpus_tangle("rt3a"), corpus_tangle("strand3_out")))
    assert got == want


def test_every_corpus_vector_is_nonzero():
    for name in corpus_names():
        assert len(decat_of(name)) > 0


def test_scalar_identities():
    q = HalfLaurent({2: 1})
    assert q == parse("q")
    assert HalfLaurent({2: -1}) == -q


def test_free_loops_factor_as_circle_powers(tmp_path, capsys):
    # Each crossingless loop multiplies the value by q + q^(-1); summing
    # its decorations one by one would cost 2^loops per resolution.
    circle = parse("q + q^(-1)")
    loops = TangleDiagram("loops40", "inside", 0, (), 40, {})
    assert jones(loops) == bracket(loops) == circle**40

    strand = corpus_tangle("strand1")
    looped = strand
    for _ in range(30):
        looped = with_extra_loop(looped)
    v, w = decat_vector(strand), decat_vector(looped)
    assert {g for g, _ in w.items()} == {g for g, _ in v.items()}
    for g, _ in v.items():
        assert w.get(g) == circle**30 * v.get(g)

    path = tmp_path / "loops40.tangle"
    path.write_text("tangle loops40\nside inside\nendpoints 0\nloop 40\n")
    assert main(["jones", str(path)]) == 0
    assert capsys.readouterr().out == (circle**40).render() + "\n"


def _counts_by_resolve(t: TangleDiagram) -> dict[CleavedGen, Counter]:
    """``_state_counts`` rebuilt from ``resolve``, one state at a time.

    States come in ``product`` order and far matchings in enumeration
    order, so the keys are inserted in the order the state sum first
    reaches them.  Cut circles are counted by the test helpers' own
    union-find.
    """
    far_matchings = enumerate_matchings(t.endpoints // 2)
    counts: dict[CleavedGen, Counter] = {}
    for rho in product((0, 1), repeat=len(t.crossings)):
        free, lam = resolve(t, rho)
        how = (sum(rho), len(free))
        for far in far_matchings:
            ins, outs = (lam, far) if t.side == "inside" else (far, lam)
            for decs in product((1, -1), repeat=len(_cut_circles(ins, outs))):
                counts.setdefault(CleavedGen(ins, outs, decs), Counter())[how] += 1
    return counts


def test_state_counts_match_resolve_state_by_state():
    """The depth-first walk reaches every state with the same union-find
    result as ``resolve``, and in ``product`` order: on every corpus file
    and on seeded braid tangles with up to 10 crossings."""
    rng = random.Random(20146)
    braids = [random_braid_tangle(rng, 10) for _ in range(16)]
    assert max(len(t.crossings) for t in braids) == 10
    assert {(t.endpoints, t.side) for t in braids} == {
        (e, s) for e in (4, 6, 8) for s in ("inside", "outside")
    }
    for t in [corpus_tangle(name) for name in corpus_names()] + braids:
        got = _state_counts(t._compiled, t.loops, t.endpoints // 2, t.side == "inside")
        want = _counts_by_resolve(t)
        assert got == want, t.name
        assert list(got) == list(want), t.name
        assert all(list(got[g]) == list(want[g]) for g in want), t.name


def _sign_shift(t: TangleDiagram) -> HalfLaurent:
    # c05's (-1)^(n-) q^(n+ - 2n-), which takes the bracket to the Jones polynomial
    n_plus = sum(1 for c in t.crossings if c.sign > 0)
    n_minus = len(t.crossings) - n_plus
    return HalfLaurent({2 * (n_plus - 2 * n_minus): (-1) ** n_minus})


def _memo() -> tuple[int, int, int]:
    info = _closed_counts.cache_info()
    return info.hits, info.misses, info.currsize


def test_closed_memo_keys_on_what_the_walk_reads():
    """A closed knot and a copy with every sign flipped share one memo
    entry: the bracket is the same, and each Jones polynomial is that
    bracket times its own sign shift."""
    t = corpus_tangle("kt_closed")
    flipped = TangleDiagram(
        "kt_flipped", t.side, 0, tuple(Crossing(-c.sign, c.slots) for c in t.crossings), t.loops
    )
    assert _sign_shift(t) != _sign_shift(flipped)
    _closed_counts.cache_clear()
    assert bracket(t) == bracket(flipped)
    assert _memo() == (1, 1, 1)
    assert jones(t) == _sign_shift(t) * bracket(t)
    assert jones(flipped) == _sign_shift(flipped) * bracket(t)
    assert _memo() == (5, 1, 1)


def test_closed_memo_repeats_the_fresh_evaluation():
    """Repeated jones, bracket and decat calls on kt_closed, served by the
    memo, equal the first evaluation and the exhaustive oracle."""
    t = corpus_tangle("kt_closed")
    want = exhaustive_vector(t)
    _closed_counts.cache_clear()
    fresh = (jones(t), bracket(t), decat_vector(t))
    assert fresh[0] == _sign_shift(t) * fresh[1] == want.get(_EMPTY_GEN)
    assert fresh[2] == want
    assert _memo() == (2, 1, 1)
    for _ in range(3):
        again = corpus_tangle("kt_closed")
        assert (jones(again), bracket(again), decat_vector(again)) == fresh
    assert _memo() == (11, 1, 1)
    counts = _closed_counts(t.loops, t._compiled)
    assert counts == _state_counts(t._compiled, t.loops, 0, True)[_EMPTY_GEN]
    with pytest.raises(TypeError):
        counts[(0, 0)] = 1  # every caller shares the one mapping


def test_closed_memo_is_bounded_and_only_for_closed_diagrams(tmp_path, capsys):
    k = decat._CLOSED_MEMO
    _closed_counts.cache_clear()
    # k + 1 distinct closed diagrams: the first one is dropped, the rest kept
    loops = [TangleDiagram(f"loops{m}", "inside", 0, (), m) for m in range(k + 1)]
    for d in loops:
        jones(d)
    assert _memo() == (0, k + 1, k)
    bracket(loops[-1])
    assert _memo() == (1, k + 1, k)
    bracket(loops[0])
    assert _memo() == (1, k + 2, k)

    # tangles never reach the memo
    before = _memo()
    for name in ("t_left", "kt_inside", "kt_outside", "strand3_out"):
        decat_vector(corpus_tangle(name))
    pair(decat_of("kt_inside"), decat_of("kt_outside"))
    mutation_check(corpus_tangle("kt_inside"))
    assert _memo() == before

    # a closed diagram over the state limit fails at once and is not stored
    _closed_counts.cache_clear()
    path = tmp_path / "chain25.tangle"
    path.write_text(tangle_text(braid_closure("chain25", 2, [(0, 1)] * 25)))
    for verb in ("jones", "bracket", "decat"):
        start = time.perf_counter()
        code = main([verb, str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "over the limit of 16777216" in capsys.readouterr().err
    assert _memo()[2] == 0
    assert main(["jones", str(corpus_path("trefoil"))]) == 0
    assert _memo()[2] == 1


def test_closed_memo_is_shared_safely_between_threads():
    """Threads that evaluate more distinct closed diagrams than the memo
    holds, in different orders and with frequent switches, all get the
    values a single thread computes, and the memo stays within its bound."""
    diagrams = [corpus_tangle(n) for n in ("unknot", "hopf", "trefoil", "kink_plus", "kink_minus")]
    diagrams += [TangleDiagram(f"loops{m}", "inside", 0, (), m) for m in range(decat._CLOSED_MEMO)]
    want = [(jones(d), bracket(d)) for d in diagrams]
    _closed_counts.cache_clear()

    def evaluate(seed: int) -> list[tuple[int, tuple[HalfLaurent, HalfLaurent]]]:
        order = list(range(len(diagrams))) * 3
        random.Random(seed).shuffle(order)
        return [(i, (jones(diagrams[i]), bracket(diagrams[i]))) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(evaluate, s) for s in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(got == want[i] for result in results for i, got in result)
    assert sum(len(result) for result in results) == 4 * 3 * len(diagrams)
    assert _memo()[2] == decat._CLOSED_MEMO
