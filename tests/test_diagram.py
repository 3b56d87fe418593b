"""Diagram validation, resolution, and the text format round trip."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglejones import (
    Crossing,
    DiagramError,
    Matching,
    TangleDiagram,
    crossing_counts,
    resolve,
    validate,
)
from tanglejones.cli import parse_tangle

from .helpers import (
    _find,
    _smooth,
    corpus_names,
    corpus_tangle,
    joined_edges,
    random_strand_tangle,
    tangle_text,
    with_extra_loop,
)


def test_corpus_is_valid():
    for name in corpus_names():
        assert validate(corpus_tangle(name)) == []


def test_validate_reports_each_defect():
    # construction runs validate and raises with every message it gives
    with pytest.raises(DiagramError, match="side must be 'inside' or 'outside', got 'upside'"):
        TangleDiagram("x", "upside", 0, (), 0, {})
    with pytest.raises(DiagramError, match="endpoints must be even, got 3"):
        TangleDiagram("x", "inside", 3, (), 0, {})
    with pytest.raises(DiagramError, match="loop count must be nonnegative, got -1"):
        TangleDiagram("x", "inside", 0, (), -1, {})
    with pytest.raises(DiagramError, match="^loop count 1001 exceeds the limit of 1000$"):
        TangleDiagram("x", "inside", 0, (), 1001, {})
    # edge 1 appears once, edge 2 three times
    with pytest.raises(DiagramError, match="^edge 1 has 1 ends, .*; edge 2 has 3 ends, "):
        TangleDiagram("x", "inside", 2, (Crossing(1, (1, 2, 2, 2)),), 0, {1: 3, 2: 3})
    # boundary keys must be exactly 1..2n
    with pytest.raises(
        DiagramError, match="^boundary point 2 has no edge; boundary names point 3, outside 1..2$"
    ):
        TangleDiagram("x", "inside", 2, (), 0, {1: 1, 3: 1})


def test_validate_rejects_bad_sign_and_slots():
    with pytest.raises(DiagramError, match="crossing 1 has sign 2, expected"):
        TangleDiagram("x", "inside", 0, (Crossing(2, (1, 1, 2, 2)),), 0, {})
    with pytest.raises(DiagramError, match="crossing 1 has a non-positive edge label"):
        TangleDiagram("x", "inside", 0, (Crossing(1, (0, 1, 1, 0)),), 0, {})


def test_crossing_counts():
    assert crossing_counts(corpus_tangle("hopf")) == (2, 0)
    assert crossing_counts(corpus_tangle("kt_inside")) == (3, 3)
    assert crossing_counts(corpus_tangle("unknot")) == (0, 0)


def test_resolve_single_crossing_tangle():
    t = corpus_tangle("t_left")
    r0 = resolve(t, (0,))
    assert r0.lam == Matching.decode((4, 2))
    assert r0.free_circles == ()
    r1 = resolve(t, (1,))
    assert r1.lam == Matching.decode((2, 4))
    assert r1.free_circles == ()


def test_resolve_counts_free_circles():
    t = corpus_tangle("hopf")
    assert [len(resolve(t, rho).free_circles) for rho in ((0, 0), (0, 1), (1, 0), (1, 1))] == [
        2,
        1,
        1,
        2,
    ]
    unknot = corpus_tangle("unknot")
    state = resolve(unknot, ())
    assert len(state.free_circles) == 1
    assert state.lam == Matching.empty()


def test_resolve_validates_rho():
    t = corpus_tangle("hopf")
    state = resolve(t, (0, 1))
    # any iterable of values equal to 0 or 1 is one bit per crossing
    for rho in ((False, True), [0, 1], (0.0, 1.0), (b for b in (0, 1)), iter((0, True))):
        assert resolve(t, rho) == state
    for rho in ((0,), (0, 1, 0), (), (b for b in (0, 1, 1))):
        with pytest.raises(ValueError, match="expected 2 resolution bits"):
            resolve(t, rho)
    for bad in (2, -1, 0.5, "0", None, (0,)):
        with pytest.raises(ValueError, match="resolution bits must be 0 or 1"):
            resolve(t, (0, bad))
        with pytest.raises(ValueError, match="resolution bits must be 0 or 1"):
            resolve(t, (bad, 1))


def test_nonplanar_boundary_cannot_be_built():
    # two crossingless strands 1-3 and 2-4 would have to cross, so no
    # diagram with that code exists for resolve to trace
    with pytest.raises(DiagramError, match="not planar"):
        TangleDiagram("x", "inside", 4, (), 0, {1: 1, 2: 2, 3: 1, 4: 2})


def test_serialize_parse_round_trip():
    for name in corpus_names():
        t = corpus_tangle(name)
        assert parse_tangle(tangle_text(t)) == t


def test_every_corpus_resolution_is_planar():
    for name in corpus_names():
        t = corpus_tangle(name)
        boundary_edges = set(t.boundary.values())
        for rho in product((0, 1), repeat=len(t.crossings)):
            state = resolve(t, rho)
            assert state.lam.n == t.endpoints // 2
            circles = list(state.free_circles)
            for k, circle in enumerate(circles):
                assert not circle & boundary_edges
                for other in circles[k + 1 :]:
                    assert not circle & other


def _agrees_with_oracle(t: TangleDiagram, rho: tuple[int, ...]) -> None:
    state = resolve(t, rho)
    assert (len(state.free_circles), state.lam) == _smooth(t, rho)
    # the circles are the oracle's components that miss the boundary, by
    # smallest label, then one empty set per crossingless loop
    parent = joined_edges(t, rho)
    components: dict[int, set[int]] = {}
    for e in list(parent):
        components.setdefault(_find(parent, e), set()).add(e)
    strands = {_find(parent, e) for e in t.boundary.values()}
    circles = sorted((frozenset(c) for r, c in components.items() if r not in strands), key=min)
    assert state.free_circles == tuple(circles) + (frozenset(),) * t.loops


def test_resolve_agrees_with_the_oracle_on_the_corpus():
    for name in corpus_names():
        t = corpus_tangle(name)
        for diagram in (t, with_extra_loop(with_extra_loop(t))):
            for rho in product((0, 1), repeat=len(t.crossings)):
                _agrees_with_oracle(diagram, rho)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False), st.integers(1, 8))
def test_resolve_agrees_with_the_oracle_on_kink_chains(rng: random.Random, kinks: int):
    t = random_strand_tangle(rng, max_kinks=kinks)
    for rho in product((0, 1), repeat=len(t.crossings)):
        _agrees_with_oracle(t, rho)
