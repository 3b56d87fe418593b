"""Decategorified bordered Khovanov invariants of tangles.

A tangle in a marked disk determines a vector over the basis of decorated
cleaved links: the class of an inside tangle, or the coefficient table of a
functional for an outside tangle.  Pairing the two recovers the
unnormalized Jones polynomial of the glued link, and rotating the marked
point realizes mutation, whose invariance this package verifies.
"""

from . import cleaved, decat, diagram, halfpoly, mutation, planar
from .halfpoly import *
from .planar import *
from .cleaved import *
from .diagram import *
from .decat import *
from .mutation import *

__version__ = "0.1.0"

# Layer by layer, in the order tests/test_api.py pins.
__all__ = [
    *halfpoly.__all__,
    *planar.__all__,
    *cleaved.__all__,
    *diagram.__all__,
    *decat.__all__,
    *mutation.__all__,
    "__version__",
]
