"""Decategorified bordered Khovanov invariants of tangles.

A tangle in a marked disk determines a vector over the basis of decorated
cleaved links: the class of an inside tangle, or the coefficient table of a
functional for an outside tangle.  Pairing the two recovers the
unnormalized Jones polynomial of the glued link, and rotating the marked
point realizes mutation, whose invariance this package verifies.
"""

from .cleaved import CleavedGen, circles_of, enumerate_cleaved
from .decat import (
    DecatVector,
    Generator,
    boundary,
    bracket,
    decat_vector,
    generators,
    jones,
    pair,
)
from .diagram import (
    Crossing,
    DiagramError,
    ResolvedState,
    TangleDiagram,
    crossing_counts,
    ensure_valid,
    resolve,
    serialize,
    validate,
)
from .halfpoly import ONE, ZERO, HalfLaurent, monomial, parse, render
from .mutation import MutationReport, mutation_check, rotate_gen, rotate_vector
from .planar import Matching, enumerate_matchings, rotate_matching, rotate_point

__version__ = "0.1.0"

__all__ = [
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
    "circles_of",
    "enumerate_cleaved",
    "Crossing",
    "TangleDiagram",
    "ResolvedState",
    "DiagramError",
    "validate",
    "ensure_valid",
    "resolve",
    "crossing_counts",
    "serialize",
    "Generator",
    "DecatVector",
    "boundary",
    "generators",
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
