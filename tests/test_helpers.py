"""Certify the test-side surgery helpers against the hand-merged corpus.

The acceptance tests lean on ``glue`` and ``smooth_crossing``; this module
pins both against closures that were merged by hand, so a helper bug cannot
silently validate the library against itself.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from tanglejones import jones, resolve, validate

from .helpers import (
    corpus_tangle,
    glue,
    random_strand_tangle,
    smooth_crossing,
    with_extra_loop,
)

HAND_MERGED = (
    ("t_left", "t_right", "hopf"),
    ("strand1", "strand1_out", "unknot"),
    ("strand2", "strand2_out", "two_loops"),
    ("strand2_nested", "strand2_nested_out", "two_loops"),
    ("strand2", "strand2_nested_out", "unknot"),
    ("rt3a", "strand3_out", "rt3a_closed"),
    ("rt3b", "strand3_out", "rt3b_closed"),
    ("kt_inside", "kt_outside", "kt_closed"),
    ("conway_inside", "kt_outside", "conway_closed"),
)


@pytest.mark.parametrize("inside,outside,closed", HAND_MERGED)
def test_glue_matches_hand_merged_closures(inside, outside, closed):
    glued = glue(corpus_tangle(inside), corpus_tangle(outside))
    assert jones(glued) == jones(corpus_tangle(closed))


def test_glue_rejects_mismatches():
    with pytest.raises(ValueError):
        glue(corpus_tangle("t_right"), corpus_tangle("t_left"))
    with pytest.raises(ValueError):
        glue(corpus_tangle("strand1"), corpus_tangle("strand3_out"))


def test_smooth_crossing_matches_resolve_circle_counts():
    # smoothing every crossing must leave the same number of closed
    # components that resolve reports for the full resolution
    for name in ("kink_plus", "kink_minus", "hopf", "trefoil", "rt3a_closed"):
        t = corpus_tangle(name)
        for rho in product((0, 1), repeat=len(t.crossings)):
            smoothed = t
            for bit in rho:
                smoothed = smooth_crossing(smoothed, 0, bit)
            assert smoothed.crossings == ()
            assert smoothed.loops == len(resolve(t, rho)[0])


def test_smoothing_preserves_validity_and_boundary():
    t = corpus_tangle("kt_inside")
    for idx in range(len(t.crossings)):
        for bit in (0, 1):
            s = smooth_crossing(t, idx, bit)
            assert validate(s) == []
            assert s.endpoints == t.endpoints
            assert len(s.crossings) == len(t.crossings) - 1


def test_random_strand_tangles_are_valid():
    rng = random.Random(7)
    for _ in range(25):
        t = random_strand_tangle(rng)
        assert validate(t) == []
        assert t.endpoints == 2
        assert 1 <= len(t.crossings) <= 5


def test_with_extra_loop():
    t = corpus_tangle("unknot")
    assert with_extra_loop(t).loops == t.loops + 1
    assert validate(with_extra_loop(t)) == []
