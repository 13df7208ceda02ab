"""Reflection/transmission coefficients, densities, currents, velocity field.

All quantities are computed from the actual plane waves of a state, matched
or limit alike (currents of the physical amplitudes), never from
per-convention closed forms; the closed forms live in the test suite as
cross-checks.  ``_observe`` forms them, and the wall rule, on Python
numbers or on arrays; ``_observation`` runs it on one state's own plane
waves, for every reader of one state: ``coefficients``, ``table.record``,
``forces`` and ``boundary``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .matching import PlaneWaveSolution
from .spinor import SCALAR, current

__all__ = [
    "BoundaryCondition",
    "ObservableSet",
    "TOLERANCE",
    "coefficients",
    "transmitted_velocity",
]

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
class ObservableSet:
    """Exportable physics of one matched solution.

    R      reflection coefficient |j_refl| / |j_in| ≥ 0
    T      signed transmission coefficient j_trans / j_in, so that
           R + T = 1 holds for every convention (for the TRADITIONAL
           choice in the Klein zone this reads R > 1 with T < 0)
    rho0   probability density at the step edge
    j0     probability current at the step edge
    v_t    transmitted velocity field j_t / ρ_t in units of c
           (NaN in the evanescent regime, where no current flows)
    """

    R: float
    T: float
    rho0: float
    j0: float
    v_t: float


def coefficients(sol: PlaneWaveSolution) -> ObservableSet:
    """Observable set of a state, from plane-wave currents; ValueError for the
    nonrelativistic limits, whose incident wave carries no current."""
    _refuse_without_current(sol)
    row = _observation(sol, 0.0)
    return ObservableSet(*(row[name] for name in ("R", "T", "rho0", "j0", "v_t")))


def _refuse_without_current(sol: PlaneWaveSolution) -> None:
    """ValueError for a nonrelativistic limit, whose incident wave carries no current."""
    if current(sol.incident.amplitude) == 0.0:
        raise ValueError("no coefficients: the incident wave carries no current "
                         "(a nonrelativistic limit state)")


def _observation(sol: PlaneWaveSolution, v0: float) -> dict:
    """``_observe`` of a state's own plane waves under a step of height v0,
    for any state, current-free ones too."""
    incident, reflected = sol.incident.amplitude, sol.reflected.amplitude
    q_t, wall = sol.transmitted.wave_number, sol.transmitted.amplitude
    # A decaying (evanescent) wave carries exactly zero transmitted current.
    return _observe(SCALAR, incident.lower, reflected.upper, reflected.lower, sol.t,
                    wall.upper, wall.lower, q_t, v0, q_t.imag > 0.0)


def _observe(xp, a, r, r_lower, t, t_upper, t_lower, q_t, v0, evanescent: bool) -> dict:
    """The ``table.record`` columns r_re to continuity of the state
    [1, a]·e^{ikx} + [r, r_lower]·e^{−ikx} for x < 0 and [t_upper, t_lower]·e^{iq_t·x}
    beyond, under a step of height v0, on Python numbers or arrays (``xp`` is
    ``spinor.SCALAR`` or ``spinor.ARRAY``); ``boundary`` is ``classify_boundary``'s
    rule for a state whose incident wave carries current."""
    mag = xp.magnitude
    j_in = xp.currents(1.0, a)
    # psi(0) as the transmitted wave's value_at(0.0) gives it
    phase = xp.exp(xp.product(xp.product(1j, q_t), 0.0))
    psi_upper, psi_lower = xp.product(phase, t_upper), xp.product(phase, t_lower)
    rho0 = xp.densities(psi_upper, psi_lower)
    # continuity at x = 0: psi(0-) = [1 + r, a + r_lower] against psi(0)
    left_upper, left_lower = 1.0 + r, a + r_lower
    residual = xp.maximum(mag(left_upper - psi_upper), mag(left_lower - psi_lower))
    left_scale = xp.maximum(xp.maximum(1.0, mag(left_upper)), mag(left_lower))
    if evanescent:
        T, v_t = 0.0, math.nan
    else:
        j_t = xp.currents(t_upper, t_lower)
        T, v_t = xp.quotient(j_t, j_in), xp.quotient(j_t, xp.densities(t_upper, t_lower))
    # A component of psi(0) is zero below TOLERANCE times the largest amplitude.
    scale = xp.maximum(xp.maximum(xp.maximum(1.0, a), xp.maximum(mag(r), mag(r_lower))),
                       xp.maximum(mag(t_upper), mag(t_lower)))
    upper_zero, lower_zero = (mag(psi) < TOLERANCE * scale for psi in (psi_upper, psi_lower))
    boundary = xp.where(upper_zero == lower_zero, BoundaryCondition.NONE.value,
                        xp.where(upper_zero, BoundaryCondition.DIRICHLET_UPPER.value,
                                 BoundaryCondition.DIRICHLET_LOWER.value))
    return {"r_re": r.real, "r_im": r.imag, "t_re": t.real, "t_im": t.imag,
            "R": xp.quotient(mag(xp.currents(r, r_lower)), mag(j_in)), "T": T, "rho0": rho0,
            "j0": xp.currents(psi_upper, psi_lower), "v_t": v_t, "force": -v0 * rho0,
            "boundary": boundary, "continuity": xp.quotient(residual, left_scale)}


def transmitted_velocity(sol: PlaneWaveSolution) -> float:
    """Velocity field j_t / ρ_t of the transmitted wave, in units of c.

    Positive for the MAIN / LOWER_COMPONENT choices in the Klein zone,
    which is what singles them out as the physical transmitted waves.
    Undefined in the evanescent regime (the decaying wave carries no
    current), where a ValueError is raised.
    """
    if sol.transmitted.wave_number.imag > 0.0:
        raise ValueError("transmitted velocity undefined for a decaying wave")
    return _observation(sol, 0.0)["v_t"]
