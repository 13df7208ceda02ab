"""Reflection/transmission coefficients, densities, currents, velocity field.

All quantities are computed from the actual plane waves of a state, matched
or limit alike (currents of the physical amplitudes), never from
per-convention closed forms; the closed forms live in the test suite as
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .matching import PlaneWaveSolution
from .spinor import current, density

__all__ = [
    "ObservableSet",
    "coefficients",
    "density_current_at_origin",
    "transmitted_velocity",
]


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
    j_in = current(sol.incident.amplitude)
    if j_in == 0.0:
        raise ValueError("no coefficients: the incident wave carries no current "
                         "(a nonrelativistic limit state)")
    j_refl = current(sol.reflected.amplitude)
    rho0, j0 = density_current_at_origin(sol)
    if sol.transmitted.wave_number.imag > 0.0:
        # Decaying (evanescent) wave: exactly zero transmitted current.
        t_coef = 0.0
        v_t = math.nan
    else:
        t_coef = current(sol.transmitted.amplitude) / j_in
        v_t = transmitted_velocity(sol)
    return ObservableSet(
        R=abs(j_refl) / abs(j_in),
        T=t_coef,
        rho0=rho0,
        j0=j0,
        v_t=v_t,
    )


def density_current_at_origin(sol: PlaneWaveSolution) -> tuple[float, float]:
    """(ρ(0), j(0)) evaluated from the spinor at the step edge."""
    psi0 = sol.spinor_at(0.0)
    return density(psi0), current(psi0)


def transmitted_velocity(sol: PlaneWaveSolution) -> float:
    """Velocity field j_t / ρ_t of the transmitted wave, in units of c.

    Positive for the MAIN / LOWER_COMPONENT choices in the Klein zone,
    which is what singles them out as the physical transmitted waves.
    Undefined in the evanescent regime (the decaying wave carries no
    current), where a ValueError is raised.
    """
    if sol.transmitted.wave_number.imag > 0.0:
        raise ValueError("transmitted velocity undefined for a decaying wave")
    amp = sol.transmitted.amplitude
    return current(amp) / density(amp)
