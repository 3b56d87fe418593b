"""The package's public names, the public methods of its classes and the
fields of its dataclasses, and the library functions the verbs reach.

The first three are pinned so that adding or removing a name, a method or a
field is a visible edit here, made in the same change that adds or deletes
it.  The last keeps code that only tests call out of the library.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import sys
import types
from dataclasses import fields, is_dataclass
from functools import cached_property
from pathlib import Path

import tanglejones
from tanglejones import cleaved, cli, decat, diagram, halfpoly, mutation, planar

from .helpers import CORPUS
from .test_outputs import calls

PUBLIC = [
    "HalfLaurent",
    "ZERO",
    "Matching",
    "enumerate_matchings",
    "rotate_matching",
    "CleavedGen",
    "basis_count",
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
    assert len(PUBLIC) == 23


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


# Library functions no verb calls, each kept for a reader outside the
# library; every other function must be reached by some verb.
UNREACHED = {
    # tests check the state sum against it; perfbench/trace.py wraps it and
    # perfbench/tests/test_perfbench.py reads it as decat.resolve
    "diagram.resolve",
    # perfbench/trace.py's Tracer.end_op counts terms with it
    "halfpoly.HalfLaurent.support",
    # perfbench/trace.py's Tracer.end_op counts vector entries with it
    "decat.DecatVector.__len__",
}


def _library_functions() -> dict[tuple[str, int, str], str]:
    """Every def in the package, keyed as its code object is: file, first
    line and name, mapped to "module.Class.function"."""
    found = {}
    for path in sorted(Path(tanglejones.__file__).parent.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), path.stem)]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                    name = f"{prefix}.{const.co_name}"
                    if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                        found[const.co_filename, const.co_firstlineno, const.co_name] = name
                    stack.append((const, name))
    return found


def test_every_library_function_is_reached_by_a_verb(tmp_path, monkeypatch):
    # Caches emptied, so calls that an earlier test left cached run again.
    for module in (cleaved, cli, decat, diagram, halfpoly, mutation, planar):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    bad = tmp_path / "bad.tangle"
    bad.write_text("tangle x\nside inside\nendpoints 0\nwobble 3\n")
    argvs = [*calls(), ["jones", str(bad)], ["jones", "--json", str(bad)]]
    reached: set[types.CodeType] = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    monkeypatch.chdir(CORPUS)
    out = io.StringIO()
    previous = sys.getprofile()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        sys.setprofile(profile)
        try:
            codes = [cli.main(argv) for argv in argvs]
        finally:
            sys.setprofile(previous)
    assert codes.count(2) == 2 and set(codes) <= {0, 1, 2}
    reached_keys = {(c.co_filename, c.co_firstlineno, c.co_name) for c in reached}
    missed = {
        name
        for key, name in _library_functions().items()
        if key not in reached_keys and key[2] not in ("__repr__", "__str__")
    }
    assert missed == UNREACHED
