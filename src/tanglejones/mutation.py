"""Rotation of the marked point and mutation invariance.

Moving the marked point one boundary segment counterclockwise relabels the
points of every cleaved link, carrying each circle to a circle of the
rotated link.  A circle's decoration travels with it; only its position in
the decoration tuple can change, because the order is recomputed from the
new smallest point label.  Extending this transport coefficient-wise gives
a rotation action on whole vectors.

Mutation of a 4-endpoint tangle reglues it after a half turn, which the
invariant sees as a two-step rotation.  A two-step rotation swaps the two
nested two-circle generators with opposite decorations, swaps the two
parallel ones, and fixes everything else, so a vector is mutation invariant
exactly when those off-diagonal coefficient pairs agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cleaved import CleavedGen, circles_of
from .decat import DecatVector, decat_vector
from .diagram import DiagramError, TangleDiagram
from .planar import Matching, _rotate_point, rotate_matching

__all__ = ["MutationReport", "rotate_gen", "rotate_vector", "mutation_check"]


def rotate_gen(g: CleavedGen, steps: int) -> CleavedGen:
    """The cleaved link after moving the marked point the given steps.

    Both matchings rotate, and every circle is relabeled point by point and
    keeps its decoration; the decorations are reordered by the circles' new
    smallest points.
    """
    moved = sorted(
        (min(_rotate_point(p, steps, g.n) for p in circle), dec)
        for circle, dec in zip(circles_of(g.inside, g.outside), g.decs)
    )
    ins = rotate_matching(g.inside, steps)
    outs = rotate_matching(g.outside, steps)
    return CleavedGen(ins, outs, tuple(dec for _, dec in moved))


def rotate_vector(v: DecatVector, steps: int) -> DecatVector:
    """Transport every coefficient along :func:`rotate_gen`.

    Rotation changes which cleaved link a decorated resolution bounds but
    not its gradings, so coefficients move unchanged.
    """
    return DecatVector(v.n, {rotate_gen(g, steps): poly for g, poly in v.items()})


@dataclass(frozen=True)
class MutationReport:
    """Outcome of the mutation-invariance check on one tangle.

    ``nested_symmetric`` compares the coefficients of the two-circle
    generators with both matchings nested and opposite decorations;
    ``parallel_symmetric`` does the same for both matchings parallel;
    ``rotation_invariant`` records whether the two-step rotation fixes the
    whole vector.  The first two together are equivalent to the third.
    """

    nested_symmetric: bool
    parallel_symmetric: bool
    rotation_invariant: bool

    @property
    def all_pass(self) -> bool:
        return self.nested_symmetric and self.parallel_symmetric and self.rotation_invariant

    def to_json(self) -> dict[str, bool]:
        """The three verdicts under their report labels."""
        return {
            "B-symmetry": self.nested_symmetric,
            "C-symmetry": self.parallel_symmetric,
            "M*^2-invariance": self.rotation_invariant,
        }

    def render(self) -> str:
        return "\n".join(
            f"{label}: {'PASS' if ok else 'FAIL'}" for label, ok in self.to_json().items()
        )


def mutation_check(t: TangleDiagram) -> MutationReport:
    """Verify mutation invariance of a 4-endpoint inside tangle's vector."""
    if t.side != "inside":
        raise DiagramError(f"mutation check needs an inside tangle, got side {t.side!r}")
    if t.endpoints != 4:
        raise DiagramError(f"mutation check needs 4 endpoints, got {t.endpoints}")
    v = decat_vector(t)
    nested = Matching.decode((4, 2))
    parallel = Matching.decode((2, 4))

    def coeff(m: Matching, first: int, second: int):
        return v.get(CleavedGen(m, m, (first, second)))

    return MutationReport(
        nested_symmetric=coeff(nested, 1, -1) == coeff(nested, -1, 1),
        parallel_symmetric=coeff(parallel, 1, -1) == coeff(parallel, -1, 1),
        rotation_invariant=rotate_vector(v, 2) == v,
    )
