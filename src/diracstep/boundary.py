"""Classify which impenetrability boundary condition a solution satisfies.

At a perfect wall the probability current vanishes, but the Dirac spinor
itself need not: depending on how the wall limit was taken, either the
upper (large) or the lower (small) component satisfies a Dirichlet
condition at the wall, and the nonrelativistic reductions turn these into
the usual Dirichlet or Neumann conditions on the Schroedinger
wavefunction.  Vanishing of the *entire* spinor is not classified: that
condition does not correspond to a self-adjoint half-line Hamiltonian, and
no relativistic state reaches it, since continuity would need r = −1 and
r = +1 at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matching import PlaneWaveSolution
from .observables import TOLERANCE, BoundaryCondition, _observation
from .spinor import current

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
    """Classify the boundary condition satisfied at the origin, to
    ``TOLERANCE`` relative to the solution's amplitude scale.

    A state whose incident wave carries no current (a nonrelativistic
    limit) is classified on its Schroedinger wavefunction, the upper
    component: DirichletNR if it vanishes at the wall, NeumannNR if its
    left slope does.  Every other state is classified on which spinor
    component vanishes, by ``observables._observe``'s wall rule; both
    vanishing is given no classification.
    """
    row = _observation(sol, 0.0)
    amps = (sol.incident.amplitude, sol.reflected.amplitude, sol.transmitted.amplitude)
    scale = max(max(abs(s.upper), abs(s.lower)) for s in amps)
    if current(sol.incident.amplitude) != 0.0:
        classification = BoundaryCondition(row["boundary"])
    elif abs(sol.spinor_at(0.0).upper) < TOLERANCE * scale:
        classification = BoundaryCondition.DIRICHLET_NR
    elif abs(sol.nr_derivative_at_origin()) < TOLERANCE * (
            scale * max(abs(sol.incident.wave_number), 1.0)):
        classification = BoundaryCondition.NEUMANN_NR
    else:
        classification = BoundaryCondition.NONE
    rho0 = row["rho0"]
    reference = rho0 if rho0 > TOLERANCE * scale**2 else scale**2
    return BoundaryReport(classification, abs(row["j0"]) < TOLERANCE * reference)
