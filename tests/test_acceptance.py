"""Acceptance gate: one test per shipped guarantee, exact equality throughout.

Each test is self-contained and runs against the corpus in ``corpus/``.
Randomized cases draw from seeded generators, so every run checks the same
diagrams.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache

from tanglejones import (
    CleavedGen,
    HalfLaurent,
    bracket,
    decat_vector,
    jones,
    mutation_check,
    pair,
    rotate_gen,
    rotate_vector,
)
from tanglejones.cli import load_tangle, main

from .helpers import (
    cleaved_basis,
    corpus_names,
    corpus_path,
    corpus_tangle,
    decat_of,
    exhaustive_vector,
    glue,
    random_partial_resolutions,
    random_strand_tangle,
    smooth_crossing,
    tangle_text,
    with_extra_loop,
)

SEED = 20260818

Q = HalfLaurent({2: 1})
MINUS_Q = HalfLaurent({2: -1})
QINV = HalfLaurent({-2: 1})

T_LEFT_VECTOR = """\
[2,4|2,4|++] : -q^3
[2,4|2,4|+-] : -q^2
[2,4|2,4|-+] : -q^2
[2,4|2,4|--] : -q
[2,4|4,2|+] : -q^(5/2)
[2,4|4,2|-] : -q^(3/2)
[4,2|2,4|+] : q^(3/2)
[4,2|2,4|-] : q^(1/2)
[4,2|4,2|++] : q^2
[4,2|4,2|+-] : q
[4,2|4,2|-+] : q
[4,2|4,2|--] : 1"""

T_RIGHT_VECTOR = """\
[2,4|2,4|++] : -q^3
[2,4|2,4|+-] : -q^2
[2,4|2,4|-+] : -q^2
[2,4|2,4|--] : -q
[2,4|4,2|+] : q^(3/2)
[2,4|4,2|-] : q^(1/2)
[4,2|2,4|+] : -q^(5/2)
[4,2|2,4|-] : -q^(3/2)
[4,2|4,2|++] : q^2
[4,2|4,2|+-] : q
[4,2|4,2|-+] : q
[4,2|4,2|--] : 1"""

ONE_STEP_ROTATION = {
    "[4,2|2,4|+]": "[2,4|4,2|+]",
    "[4,2|2,4|-]": "[2,4|4,2|-]",
    "[2,4|4,2|+]": "[4,2|2,4|+]",
    "[2,4|4,2|-]": "[4,2|2,4|-]",
    "[4,2|4,2|++]": "[2,4|2,4|++]",
    "[4,2|4,2|--]": "[2,4|2,4|--]",
    "[4,2|4,2|+-]": "[2,4|2,4|-+]",
    "[4,2|4,2|-+]": "[2,4|2,4|+-]",
    "[2,4|2,4|++]": "[4,2|4,2|++]",
    "[2,4|2,4|--]": "[4,2|4,2|--]",
}


@lru_cache(maxsize=None)
def kt_partials():
    rng = random.Random(SEED)
    return tuple(
        random_partial_resolutions(rng, corpus_tangle("kt_inside"), 13, min_smoothed=3)
    )


def closed_corpus():
    return [n for n in corpus_names() if corpus_tangle(n).endpoints == 0]


# split pairs whose hand-merged closure ships as a corpus file
FILE_BACKED_SPLITS = (
    ("t_left", "t_right", "hopf"),
    ("strand1", "strand1_out", "unknot"),
    ("strand2", "strand2_out", "two_loops"),
    ("strand2_nested", "strand2_nested_out", "two_loops"),
    ("strand2", "strand2_nested_out", "unknot"),
    ("rt3a", "strand3_out", "rt3a_closed"),
    ("rt3b", "strand3_out", "rt3b_closed"),
)


def test_c01_single_crossing_vector(capsys):
    """The one-crossing inside tangle's vector matches its frozen table."""
    assert main(["decat", str(corpus_path("t_left"))]) == 0
    assert capsys.readouterr().out.rstrip("\n") == T_LEFT_VECTOR
    assert decat_of("t_left").render_text() == T_LEFT_VECTOR


def test_c02_single_crossing_outside_vector(capsys):
    """The one-crossing outside tangle's vector matches its frozen table."""
    assert main(["decat", str(corpus_path("t_right"))]) == 0
    assert capsys.readouterr().out.rstrip("\n") == T_RIGHT_VECTOR
    assert decat_of("t_right").render_text() == T_RIGHT_VECTOR


def test_c03_hopf_pairing(capsys):
    """Pairing the two one-crossing tangles gives the Hopf link polynomial."""
    assert main(["pair", str(corpus_path("t_left")), str(corpus_path("t_right"))]) == 0
    assert capsys.readouterr().out.strip() == "q^6 + q^4 + q^2 + 1"
    assert pair(decat_of("t_left"), decat_of("t_right")).render() == "q^6 + q^4 + q^2 + 1"


def test_c04_basis_counts(capsys):
    """The decorated cleaved basis has 2, 12, and 104 elements for n = 1, 2, 3."""
    for n, count in ((1, 2), (2, 12), (3, 104)):
        assert len(cleaved_basis(n)) == count
        assert main(["basis", str(n)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"count: {count}"


def test_c05_jones_axioms():
    """jones is the unknot polynomial on the unknot, multiplies by q + 1/q
    per added loop, and matches the sign-normalized bracket when closed."""
    circle = HalfLaurent({2: 1, -2: 1})
    assert jones(corpus_tangle("unknot")) == circle
    for name in ("unknot", "two_loops", "kink_plus", "hopf", "trefoil"):
        t = corpus_tangle(name)
        assert jones(with_extra_loop(t)) == circle * jones(t), name
    for name in closed_corpus():
        t = corpus_tangle(name)
        n_plus = sum(1 for c in t.crossings if c.sign > 0)
        n_minus = len(t.crossings) - n_plus
        shift = HalfLaurent({2 * (n_plus - 2 * n_minus): (-1) ** n_minus})
        assert jones(t) == shift * bracket(t), name


def test_c06_skein_relation():
    """bracket(L) = bracket(L0) - q*bracket(L1) at every crossing of every
    closed corpus diagram with at most eight crossings."""
    checked = 0
    for name in closed_corpus():
        t = corpus_tangle(name)
        if len(t.crossings) > 8:
            continue
        for idx in range(len(t.crossings)):
            zero = bracket(smooth_crossing(t, idx, 0))
            one = bracket(smooth_crossing(t, idx, 1))
            assert bracket(t) == zero + MINUS_Q * one, (name, idx)
            checked += 1
    assert checked >= 13


def test_c07_pairing_recovers_jones(tmp_path):
    """pair(inside, outside) equals jones of the glued closed diagram on at
    least twenty split diagrams, fixed and randomized."""
    splits = []
    for a, b, closed in FILE_BACKED_SPLITS:
        splits.append((corpus_tangle(a), corpus_tangle(b), corpus_tangle(closed)))
    # randomized partial resolutions get their closures written out, loaded
    # back, and evaluated as ordinary closed files
    outside = corpus_tangle("kt_outside")
    splits.append((corpus_tangle("t_left_r2"), corpus_tangle("t_right"), None))
    for tin in kt_partials():
        splits.append((tin, outside, None))
    assert len(splits) >= 20
    for k, (tin, tout, closed) in enumerate(splits):
        assert tin.endpoints == tout.endpoints <= 6
        assert len(tin.crossings) + len(tout.crossings) <= 8
        if closed is None:
            path = tmp_path / f"glued{k}.tangle"
            path.write_text(tangle_text(glue(tin, tout)))
            closed = load_tangle(path)
        got = pair(decat_vector(tin), decat_vector(tout))
        assert got == jones(closed), (tin.name, tout.name)


def test_c08_decoration_flip_scales_by_q():
    """Flipping a + decoration to - divides a generator's coefficient by q,
    across every vector the other criteria compute."""
    vectors = [decat_of(n) for n in corpus_names() if corpus_tangle(n).endpoints > 0]
    vectors += [decat_vector(t) for t in kt_partials()]
    checked = 0
    for v in vectors:
        for g, coeff in v.items():
            for idx, sign in enumerate(g.decs):
                decs = g.decs[:idx] + (-sign,) + g.decs[idx + 1 :]
                flipped = v.get(CleavedGen(g.inside, g.outside, decs))
                if sign > 0:
                    assert flipped == QINV * coeff
                else:
                    assert coeff == QINV * flipped
                checked += 1
    assert checked > 100


def test_c09_two_endpoint_factorization():
    """Every 2-endpoint inside tangle's vector satisfies
    coeff(+) = q * coeff(-) on the single cut circle."""
    (c_plus, c_minus) = cleaved_basis(1)
    assert c_plus.key() == "[2|2|+]" and c_minus.key() == "[2|2|-]"
    rng = random.Random(SEED + 1)
    for _ in range(10):
        t = random_strand_tangle(rng, max_kinks=5)
        v = decat_vector(t)
        assert v.get(c_plus)
        assert v.get(c_plus) == Q * v.get(c_minus), t.name


def test_c10_mutation_invariance():
    """One-step rotation acts by the frozen ten-arrow table, every 4-endpoint
    inside corpus tangle passes mutation_check, and the mutant pair of
    11-crossing closed diagrams has equal jones output, all inside 10 s."""
    start = time.perf_counter()

    gens = {g.key(): g for g in cleaved_basis(2)}
    assert len(ONE_STEP_ROTATION) == 10
    for source, target in ONE_STEP_ROTATION.items():
        assert rotate_gen(gens[source], 1).key() == target

    for name in corpus_names():
        t = corpus_tangle(name)
        if t.side == "inside" and t.endpoints == 4:
            report = mutation_check(t)
            assert report.render() == (
                "B-symmetry: PASS\nC-symmetry: PASS\nM*^2-invariance: PASS"
            ), name

    inside = decat_vector(corpus_tangle("kt_inside"))
    outside = decat_vector(corpus_tangle("kt_outside"))
    assert pair(inside, outside) == pair(rotate_vector(inside, 2), outside)

    kt = jones(corpus_tangle("kt_closed"))
    conway = jones(corpus_tangle("conway_closed"))
    assert corpus_tangle("kt_closed").crossings != corpus_tangle("conway_closed").crossings
    assert kt == conway

    assert time.perf_counter() - start < 10.0


def test_c11_reidemeister_invariance():
    """Each corpus Reidemeister pair has equal vectors."""
    assert decat_of("t_left_r1") == decat_of("t_left")
    assert decat_of("t_left_r2") == decat_of("t_left")
    assert decat_of("rt3a") == decat_of("rt3b")


def test_c12_factored_evaluation_oracle():
    """Free circles contribute (q + 1/q) factors: the factored evaluation
    equals exhaustive decoration enumeration over generators() on every
    corpus tangle, the kt partial resolutions, seeded random kink chains,
    and diagrams with extra crossingless loops."""
    diagrams = [corpus_tangle(name) for name in corpus_names()]
    diagrams += kt_partials()
    rng = random.Random(SEED + 1)
    diagrams += [random_strand_tangle(rng, max_kinks=5) for _ in range(10)]
    for name in ("t_left", "trefoil"):
        t = corpus_tangle(name)
        for _ in range(3):
            t = with_extra_loop(t)
            diagrams.append(t)
    for t in diagrams:
        assert decat_vector(t) == exhaustive_vector(t), (t.name, t.loops)
