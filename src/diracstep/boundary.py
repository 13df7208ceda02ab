"""Which impenetrability boundary condition a solution satisfies.

At a perfect wall the probability current vanishes, but the Dirac spinor
itself need not: depending on how the wall limit was taken, either the
upper (large) or the lower (small) component satisfies a Dirichlet
condition at the wall, and the nonrelativistic reductions turn these into
the usual Dirichlet or Neumann conditions on the Schroedinger
wavefunction.  Vanishing of the *entire* spinor is not classified: that
condition does not correspond to a self-adjoint half-line Hamiltonian, and
no relativistic state reaches it, since continuity would need r = −1 and
r = +1 at once.  The wall rule is ``observables._observation``'s; this
module adds the test that no current crosses the wall.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matching import PlaneWaveSolution
from .observables import TOLERANCE, BoundaryCondition, _amplitudes, _observation, _scale
from .spinor import SCALAR

__all__ = ["BoundaryCondition", "BoundaryReport", "TOLERANCE", "classify_boundary"]


@dataclass(frozen=True)
class BoundaryReport:
    """The boundary condition satisfied at the origin, and whether the
    current vanishes there (relative to the local density).  The origin
    values themselves are ``sol.spinor_at(0.0)`` and
    ``observables.coefficients(sol).j0``."""

    classification: BoundaryCondition
    impenetrable: bool


def classify_boundary(sol: PlaneWaveSolution) -> BoundaryReport:
    """The wall class of ``observables._observation``'s row, and whether the
    current at the origin vanishes, to ``TOLERANCE`` relative to the local
    density, or to the squared amplitude scale where that density vanishes."""
    row = _observation(sol, 0.0)
    scale = _scale(SCALAR, *_amplitudes(sol))
    rho0 = row["rho0"]
    reference = rho0 if rho0 > TOLERANCE * scale**2 else scale**2
    return BoundaryReport(BoundaryCondition(row["boundary"]),
                          abs(row["j0"]) < TOLERANCE * reference)
