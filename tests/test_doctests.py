"""Run the doctests embedded in the library modules."""

from __future__ import annotations

import doctest

import pytest

from tanglejones import cleaved, decat, diagram, halfpoly, planar


@pytest.mark.parametrize("module", [halfpoly, planar, cleaved, diagram, decat], ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
