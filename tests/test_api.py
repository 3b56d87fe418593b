"""The package's public names, the public methods of its classes and the
fields of its dataclasses.

All three are pinned so that adding or removing a name, a method or a field
is a visible edit here, made in the same change that adds or deletes it.
"""

from __future__ import annotations

import inspect
from dataclasses import fields, is_dataclass
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
    "CleavedGen",
    "basis_count",
    "basis_keys",
    "circles_of",
    "Crossing",
    "TangleDiagram",
    "DiagramError",
    "validate",
    "resolve",
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
    "Matching": ["decode", "encode"],
    "CleavedGen": ["key", "n"],
    "Crossing": [],
    "TangleDiagram": [],
    "DiagramError": [],
    "DecatVector": ["get", "items", "render_text", "to_json"],
    "MutationReport": ["all_pass", "render", "to_json"],
}

# The init fields of each public dataclass, so that re-adding a field the
# code can derive is a visible edit here.
FIELDS = {
    "Matching": ("pairs",),
    "CleavedGen": ("inside", "outside", "decs"),
    "Crossing": ("sign", "slots"),
    "TangleDiagram": ("name", "side", "endpoints", "crossings", "loops", "boundary"),
    "MutationReport": ("nested_symmetric", "parallel_symmetric", "rotation_invariant"),
}

_MEMBER_KINDS = (property, cached_property, classmethod, staticmethod)


def test_public_names_are_pinned():
    assert tanglejones.__all__ == PUBLIC
    assert len(PUBLIC) == 26


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


def test_dataclass_fields_are_pinned():
    found = {
        name: tuple(f.name for f in fields(obj) if f.init)
        for name in PUBLIC
        if isinstance(obj := getattr(tanglejones, name), type) and is_dataclass(obj)
    }
    assert found == FIELDS
