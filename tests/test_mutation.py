"""Marked-point rotation and the mutation-invariance report."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tanglejones import (
    CleavedGen,
    DiagramError,
    Matching,
    MutationReport,
    circles_of,
    mutation_check,
    rotate_gen,
    rotate_matching,
    rotate_vector,
)
from tanglejones.planar import _rotate_point

from .helpers import cleaved_basis, corpus_names, corpus_tangle, decat_of

GENS2 = {g.key(): g for g in cleaved_basis(2)}

gens_n123 = st.integers(1, 3).flatmap(lambda n: st.sampled_from(cleaved_basis(n)))


def test_rotation_transports_decorations():
    g = GENS2["[4,2|4,2|+-]"]
    assert rotate_gen(g, 1).key() == "[2,4|2,4|-+]"
    assert rotate_gen(g, 2).key() == "[4,2|4,2|-+]"
    assert rotate_gen(g, 4).key() == "[4,2|4,2|+-]"


@given(gens_n123, st.integers(-4, 4))
def test_rotation_is_a_basis_bijection(g, steps):
    rotated = rotate_gen(g, steps)
    assert rotated.n == g.n
    assert sorted(rotated.decs) == sorted(g.decs)
    assert rotate_gen(rotated, -steps) == g


@given(gens_n123)
def test_full_turn_fixes_generators(g):
    assert rotate_gen(g, 2 * g.n) == g


@pytest.mark.parametrize("n", range(4))
def test_rotations_compose(n):
    steps = range(-2 * n, 2 * n + 1)
    for g in cleaved_basis(n):
        for a in steps:
            once = rotate_gen(g, a)
            for b in steps:
                assert rotate_gen(once, b) == rotate_gen(g, a + b), (g.key(), a, b)


def _retrace_rotation(g: CleavedGen, steps: int, labels: tuple) -> tuple:
    # Trace the rotated link afresh, then give each of its circles the label
    # of the old circle whose relabeled smallest point is its smallest point.
    ins = rotate_matching(g.inside, steps)
    outs = rotate_matching(g.outside, steps)
    position = {min(circle): i for i, circle in enumerate(circles_of(ins, outs))}
    out = [None] * len(labels)
    for label, circle in zip(labels, circles_of(g.inside, g.outside)):
        out[position[min(_rotate_point(p, steps, g.n) for p in circle)]] = label
    return tuple(out)


def test_rotation_agrees_with_retracing_the_rotated_link():
    # Three circles, (1, 6), (2, 5) and (3, 4); the letters stand for three
    # distinct decorations, which the eight sign patterns pin down together.
    m = Matching.decode((6, 4, 2))
    base = CleavedGen(m, m, (1, 1, 1))
    assert _retrace_rotation(base, 1, ("a", "b", "c")) == ("b", "c", "a")
    assert rotate_gen(CleavedGen(m, m, (1, -1, -1)), 1).decs == (-1, -1, 1)
    for steps in range(1, 6):
        turned = rotate_matching(m, steps)
        for decs in product((1, -1), repeat=3):
            g = CleavedGen(m, m, decs)
            expected = CleavedGen(turned, turned, _retrace_rotation(g, steps, decs))
            assert rotate_gen(g, steps) == expected, (steps, decs)


def test_rotate_vector_round_trip():
    v = decat_of("t_left")
    assert rotate_vector(rotate_vector(v, 1), -1) == v
    assert rotate_vector(v, 0) == v
    assert rotate_vector(v, 2) == v  # half turn fixes this vector


def test_rotate_vector_respects_coefficients():
    v = decat_of("kt_inside")
    w = rotate_vector(v, 3)
    assert len(w) == len(v)
    for g, c in v.items():
        assert w.get(rotate_gen(g, 3)) == c


def test_report_rendering():
    good = MutationReport(True, True, True)
    assert good.render() == "B-symmetry: PASS\nC-symmetry: PASS\nM*^2-invariance: PASS"
    assert good.all_pass
    bad = MutationReport(True, False, True)
    assert bad.render() == "B-symmetry: PASS\nC-symmetry: FAIL\nM*^2-invariance: PASS"
    assert not bad.all_pass


def test_mutation_check_passes_on_corpus():
    for name in corpus_names():
        t = corpus_tangle(name)
        if t.side == "inside" and t.endpoints == 4:
            assert mutation_check(t).all_pass, name


def test_mutation_check_rejects_wrong_shape():
    with pytest.raises(DiagramError):
        mutation_check(corpus_tangle("t_right"))  # outside tangle
    with pytest.raises(DiagramError):
        mutation_check(corpus_tangle("strand1"))  # two endpoints
