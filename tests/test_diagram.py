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
    random_braid_tangle,
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
    with pytest.raises(DiagramError, match="^endpoints must be nonnegative, got -2$"):
        TangleDiagram("x", "inside", -2, (), 0, {})
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
    with pytest.raises(DiagramError, match="^crossing 1 has 3 slots, expected 4; edge 2 has 1 ends"):
        TangleDiagram("x", "inside", 0, (Crossing(1, (1, 1, 2)),), 0, {})


@pytest.mark.parametrize("label", [0, -5])
def test_validate_rejects_non_positive_boundary_labels(label):
    # the text format and crossing slots allow only labels from 1 up
    with pytest.raises(DiagramError) as err:
        TangleDiagram("x", "inside", 2, (), 0, {1: label, 2: label})
    assert str(err.value) == (
        "boundary point 1 has a non-positive edge label; "
        "boundary point 2 has a non-positive edge label"
    )


def _one_crossing(sign=1, slots=(2, 3, 4, 1), endpoints=4, loops=0, boundary=None):
    # t_left, with any of its fields replaced
    boundary = {1: 1, 2: 2, 3: 3, 4: 4} if boundary is None else boundary
    return TangleDiagram("x", "inside", endpoints, (Crossing(sign, slots),), loops, boundary)


@pytest.mark.parametrize(
    "fields, message",
    [
        (
            dict(sign=True, slots=(True, 2, 2, 3), endpoints=2, boundary={1: True, 2: 3}),
            "crossing 1 has sign True, expected +1 or -1; "
            "crossing 1 has edge label True, expected an integer; "
            "boundary point 1 has edge label True, expected an integer",
        ),
        (dict(sign=1.0), "crossing 1 has sign 1.0, expected +1 or -1"),
        (dict(loops=True), "loop count must be an integer, got True"),
        (dict(slots=[2, 3, 4, 1]), "crossing 1 has slots [2, 3, 4, 1], expected a tuple"),
        (dict(endpoints=2.0), "endpoints must be an integer, got 2.0"),
        (dict(boundary={1.0: 1, 2: 2, 3: 3, 4: 4}), "boundary names point 1.0, expected an integer"),
        (dict(loops=0.0), "loop count must be an integer, got 0.0"),
        (dict(slots=(2, "3", 4, 1)), "crossing 1 has edge label '3', expected an integer"),
    ],
    ids=["bools", "float-sign", "bool-loops", "list-slots", "float-endpoints", "float-point",
         "float-loops", "str-slot"],
)
def test_validate_wants_plain_integers(fields, message):
    with pytest.raises(DiagramError) as err:
        _one_crossing(**fields)
    assert str(err.value) == message


# t_left's fields: sign, four slots, endpoints, loops, then each boundary
# point followed by its edge label
_T_LEFT_FIELDS = (1, 2, 3, 4, 1, 4, 0, 1, 1, 2, 2, 3, 3, 4, 4)


# What a field becomes: another int, or a bool, float or string equal to
# its value where one can be, or None.
_STAND_INS = {
    "int": lambda v: v + 1,
    "bool": lambda v: v == 1,
    "float": float,
    "str": str,
    "None": lambda v: None,
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.dictionaries(
        st.integers(0, len(_T_LEFT_FIELDS) - 1),
        st.sampled_from(sorted(_STAND_INS)),
        min_size=1,
        max_size=2,
    ),
    st.sampled_from([tuple, list]),
)
def test_building_raises_only_diagram_errors(changes, container):
    f = list(_T_LEFT_FIELDS)
    for i, kind in changes.items():
        f[i] = _STAND_INS[kind](f[i])
    try:
        t = _one_crossing(f[0], container(f[1:5]), f[5], f[6], dict(zip(f[7::2], f[8::2])))
    except DiagramError:
        return
    (crossing,) = t.crossings
    values = [t.endpoints, t.loops, crossing.sign, *crossing.slots]
    values += [*t.boundary, *t.boundary.values()]
    assert type(crossing.slots) is tuple and all(type(x) is int for x in values)


def test_resolve_single_crossing_tangle():
    t = corpus_tangle("t_left")
    free0, lam0 = resolve(t, (0,))
    assert lam0 == Matching.decode((4, 2))
    assert free0 == ()
    free1, lam1 = resolve(t, (1,))
    assert lam1 == Matching.decode((2, 4))
    assert free1 == ()


def test_resolve_counts_free_circles():
    t = corpus_tangle("hopf")
    assert [len(resolve(t, rho)[0]) for rho in ((0, 0), (0, 1), (1, 0), (1, 1))] == [
        2,
        1,
        1,
        2,
    ]
    unknot = corpus_tangle("unknot")
    free, lam = resolve(unknot, ())
    assert len(free) == 1
    assert lam == Matching(())


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
            free, lam = resolve(t, rho)
            assert lam.n == t.endpoints // 2
            circles = list(free)
            for k, circle in enumerate(circles):
                assert not circle & boundary_edges
                for other in circles[k + 1 :]:
                    assert not circle & other


def _agrees_with_oracle(t: TangleDiagram, rho: tuple[int, ...]) -> None:
    free, lam = resolve(t, rho)
    assert (len(free), lam) == _smooth(t, rho)
    # the circles are the oracle's components that miss the boundary, by
    # smallest label, then one empty set per crossingless loop
    parent = joined_edges(t, rho)
    components: dict[int, set[int]] = {}
    for e in list(parent):
        components.setdefault(_find(parent, e), set()).add(e)
    strands = {_find(parent, e) for e in t.boundary.values()}
    circles = sorted((frozenset(c) for r, c in components.items() if r not in strands), key=min)
    assert free == tuple(circles) + (frozenset(),) * t.loops


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_resolve_agrees_with_the_oracle_on_braid_tangles(rng: random.Random):
    # shuffled labels: components meet in no particular label order
    t = random_braid_tangle(rng)
    for rho in product((0, 1), repeat=len(t.crossings)):
        _agrees_with_oracle(t, rho)
