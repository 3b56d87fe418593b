"""The package's public names, and the public methods of its classes.

Both lists are pinned so that adding or removing a name or a method is a
visible edit here, made in the same change that adds or deletes it.
"""

from __future__ import annotations

import inspect
from functools import cached_property

import tanglejones

PUBLIC = [
    "HalfLaurent",
    "ZERO",
    "ONE",
    "parse",
    "Matching",
    "enumerate_matchings",
    "rotate_matching",
    "rotate_point",
    "CleavedGen",
    "basis_count",
    "basis_keys",
    "circles_of",
    "Crossing",
    "TangleDiagram",
    "ResolvedState",
    "DiagramError",
    "validate",
    "resolve",
    "crossing_counts",
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

# Public methods and properties each public class defines itself; dunder
# methods, dataclass fields and slots are not listed.
METHODS = {
    "HalfLaurent": ["render", "sorted_terms", "support"],
    "Matching": ["decode", "empty", "encode"],
    "CleavedGen": ["circles", "key", "n"],
    "Crossing": [],
    "TangleDiagram": ["edge_labels"],
    "ResolvedState": [],
    "DiagramError": [],
    "DecatVector": ["get", "items", "render_text", "to_json"],
    "MutationReport": ["all_pass", "render", "to_json"],
}

_MEMBER_KINDS = (property, cached_property, classmethod, staticmethod)


def test_public_names_are_pinned():
    assert tanglejones.__all__ == PUBLIC
    assert len(PUBLIC) == 29


def test_every_public_name_resolves():
    for name in tanglejones.__all__:
        assert hasattr(tanglejones, name), name


def test_public_methods_are_pinned():
    found = {}
    for name in PUBLIC:
        obj = getattr(tanglejones, name)
        if isinstance(obj, type):
            found[name] = sorted(
                attr
                for attr, member in vars(obj).items()
                if not attr.startswith("_")
                and (inspect.isfunction(member) or isinstance(member, _MEMBER_KINDS))
            )
    assert found == METHODS
