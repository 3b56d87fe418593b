"""Invariant vectors, pairing, and the closed-diagram polynomials."""

from __future__ import annotations

from fractions import Fraction

import pytest

from tanglejones import (
    CleavedGen,
    DecatVector,
    DiagramError,
    TangleDiagram,
    bracket,
    decat_vector,
    enumerate_cleaved,
    jones,
    monomial,
    pair,
    parse,
)
from tanglejones.cli import main

from .helpers import (
    corpus_names,
    corpus_tangle,
    decat_of,
    generators,
    glue,
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
    absent = [g for g in enumerate_cleaved(2) if not v.get(g)]
    assert len(absent) == 6
    assert all(g.inside.encode() == (4, 2) for g in absent)
    js = decat_of("strand1").to_json()
    assert js["n"] == 1
    assert {g["key"] for g in js["generators"]} == {"[2|2|+]", "[2|2|-]"}
    lines = v.render_text().splitlines()
    assert lines == sorted(lines)
    assert v == decat_vector(corpus_tangle("strand2"))
    assert v != decat_of("strand2_nested")


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
            for g in decat_of("t_left").support()
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
    q = monomial(0, 1)
    assert q == parse("q")
    assert monomial(1, 1) == -q


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
    assert w.support() == v.support()
    for g in v.support():
        assert w.get(g) == circle**30 * v.get(g)

    path = tmp_path / "loops40.tangle"
    path.write_text("tangle loops40\nside inside\nendpoints 0\nloop 40\n")
    assert main(["jones", str(path)]) == 0
    assert capsys.readouterr().out == (circle**40).render() + "\n"
