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
from enum import Enum

from .matching import PlaneWaveSolution
from .spinor import current, density

__all__ = ["BoundaryCondition", "BoundaryReport", "TOLERANCE", "classify_boundary"]

# A component counts as zero below TOLERANCE times the solution's amplitude
# scale; exact limits give zero residuals, matched states small ones.
TOLERANCE = 1e-10


class BoundaryCondition(Enum):
    DIRICHLET_UPPER = "DirichletUpper"  # upper component vanishes at the wall
    DIRICHLET_LOWER = "DirichletLower"  # lower component vanishes at the wall
    DIRICHLET_NR = "DirichletNR"        # nonrelativistic wavefunction vanishes
    NEUMANN_NR = "NeumannNR"            # nonrelativistic derivative vanishes
    NONE = "None"


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
    component vanishes; both vanishing is given no classification.
    """
    psi0 = sol.spinor_at(0.0)
    amps = (sol.incident.amplitude, sol.reflected.amplitude, sol.transmitted.amplitude)
    scale = max(max(abs(s.upper), abs(s.lower)) for s in amps)
    upper_zero = abs(psi0.upper) < TOLERANCE * scale
    lower_zero = abs(psi0.lower) < TOLERANCE * scale
    if current(sol.incident.amplitude) == 0.0:
        slope_scale = scale * max(abs(sol.incident.wave_number), 1.0)
        if upper_zero:
            classification = BoundaryCondition.DIRICHLET_NR
        elif abs(sol.nr_derivative_at_origin()) < TOLERANCE * slope_scale:
            classification = BoundaryCondition.NEUMANN_NR
        else:
            classification = BoundaryCondition.NONE
    elif upper_zero != lower_zero:
        classification = (BoundaryCondition.DIRICHLET_UPPER if upper_zero
                          else BoundaryCondition.DIRICHLET_LOWER)
    else:
        classification = BoundaryCondition.NONE
    rho0 = density(psi0)
    reference = rho0 if rho0 > TOLERANCE * scale**2 else scale**2
    return BoundaryReport(classification, abs(current(psi0)) < TOLERANCE * reference)
