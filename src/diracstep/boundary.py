"""Classify which impenetrability boundary condition a solution satisfies.

At a perfect wall the probability current vanishes, but the Dirac spinor
itself need not: depending on how the wall limit was taken, either the
upper (large) or the lower (small) component satisfies a Dirichlet
condition at the wall, and the nonrelativistic reductions turn these into
the usual Dirichlet or Neumann conditions on the Schroedinger
wavefunction.  Vanishing of the *entire* spinor is reported separately:
that condition does not correspond to a self-adjoint half-line
Hamiltonian and never emerges from the step limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .limits import LimitKind, LimitSolution
from .matching import PlaneWaveSolution
from .spinor import Spinor, current, density

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
    """Origin values and the boundary condition they satisfy.

    ``impenetrable`` records whether the current vanishes at the origin
    (relative to the local density).  ``both_components_zero`` flags the
    degenerate relativistic case ψ(0) = 0, which is not a self-adjoint
    boundary condition and is deliberately not given a classification.
    """

    phi0: complex
    chi0: complex
    j0: float
    classification: BoundaryCondition
    impenetrable: bool
    both_components_zero: bool = False


def _solution_scale(sol: PlaneWaveSolution) -> float:
    amps = (
        sol.incident.amplitude,
        sol.reflected.amplitude,
        sol.transmitted.amplitude,
    )
    return max(max(abs(s.upper), abs(s.lower)) for s in amps)


def classify_boundary(sol: PlaneWaveSolution) -> BoundaryReport:
    """Classify the boundary condition satisfied at the origin, to
    ``TOLERANCE`` relative to the solution's amplitude scale.  The
    nonrelativistic limit kinds are classified on their Schroedinger
    wavefunction instead.
    """
    psi0 = sol.spinor_at(0.0)
    if getattr(sol, "kind", None) in (LimitKind.NONREL_MAIN, LimitKind.NONREL_NEGATIVE):
        return _classify_nonrelativistic(sol, psi0, TOLERANCE)
    return _classify_relativistic(psi0, _solution_scale(sol), TOLERANCE)


def _classify_relativistic(
    psi0: Spinor, scale: float, tolerance: float
) -> BoundaryReport:
    j0 = current(psi0)
    rho0 = density(psi0)
    upper_zero = abs(psi0.upper) < tolerance * scale
    lower_zero = abs(psi0.lower) < tolerance * scale
    if upper_zero and lower_zero:
        classification = BoundaryCondition.NONE
    elif upper_zero:
        classification = BoundaryCondition.DIRICHLET_UPPER
    elif lower_zero:
        classification = BoundaryCondition.DIRICHLET_LOWER
    else:
        classification = BoundaryCondition.NONE
    reference = rho0 if rho0 > tolerance * scale**2 else scale**2
    return BoundaryReport(
        phi0=psi0.upper,
        chi0=psi0.lower,
        j0=j0,
        classification=classification,
        impenetrable=abs(j0) < tolerance * reference,
        both_components_zero=upper_zero and lower_zero,
    )


def _classify_nonrelativistic(
    limit: LimitSolution, psi0: Spinor, tolerance: float
) -> BoundaryReport:
    # The NR wavefunction is the upper component; the lower is already zero.
    scale = 2.0
    deriv0 = limit.nr_derivative_at_origin()
    if abs(psi0.upper) < tolerance * scale:
        classification = BoundaryCondition.DIRICHLET_NR
    elif abs(deriv0) < tolerance * scale * max(limit.wave_number, 1.0):
        classification = BoundaryCondition.NEUMANN_NR
    else:
        classification = BoundaryCondition.NONE
    return BoundaryReport(
        phi0=psi0.upper,
        chi0=psi0.lower,
        j0=current(psi0),
        classification=classification,
        impenetrable=True,
        both_components_zero=False,
    )
