"""The package's public names.

The list is pinned so that removing a name is a visible edit here, made in
the same change that deletes what it named.
"""

from __future__ import annotations

import tanglejones

PUBLIC = [
    "HalfLaurent",
    "ZERO",
    "ONE",
    "monomial",
    "render",
    "parse",
    "Matching",
    "enumerate_matchings",
    "rotate_matching",
    "rotate_point",
    "CleavedGen",
    "basis_count",
    "basis_keys",
    "circles_of",
    "enumerate_cleaved",
    "Crossing",
    "TangleDiagram",
    "ResolvedState",
    "DiagramError",
    "validate",
    "resolve",
    "crossing_counts",
    "serialize",
    "DecatVector",
    "decat_vector",
    "pair",
    "jones",
    "bracket",
    "MutationReport",
    "rotate_gen",
    "rotate_vector",
    "mutation_check",
    "__version__",
]


def test_public_names_are_pinned():
    assert tanglejones.__all__ == PUBLIC
    assert len(PUBLIC) == 33


def test_every_public_name_resolves():
    for name in tanglejones.__all__:
        assert hasattr(tanglejones, name), name
