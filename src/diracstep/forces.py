"""Mean force on the particle: external step force and boundary quantum force.

The step exerts the singular classical force  f = −dV/dx = −V₀ δ(x); its
mean in a scattering state reduces by delta sifting to −V₀·ρ(0), with no
discretization of the delta anywhere: the ``force`` of
``observables.observe``.

For a particle confined to the half line x ≤ 0 the same quantity arises as
a boundary quantum force: the boundary term of d⟨p⟩/dt.  For a stationary
state Ψ = ψ e^{−iEt/ħ} that term is the flux bracket

    g(x) = −E ρ(x) + mc² (|upper(x)|² − |lower(x)|²),

and the mean boundary force is g evaluated at the wall.
"""

from __future__ import annotations

from .spinor import Spinor

__all__ = ["momentum_flux_bracket", "nr_boundary_force"]


def momentum_flux_bracket(psi: Spinor, energy: float, mass_energy: float) -> float:
    """Stationary-state flux bracket −E ρ + mc² (|upper|² − |lower|²).

    At the wall, psi = ψ(0), it is the mean boundary quantum force of the
    stationary state.  For the impenetrable-wall eigenstates the bracket is
    constant in x, so its boundary value equals its value (or cell average)
    anywhere on the half line; that is what makes d⟨p⟩/dt vanish for a
    stationary state.
    """
    up2 = abs(psi.upper) ** 2
    lo2 = abs(psi.lower) ** 2
    return -energy * (up2 + lo2) + mass_energy * (up2 - lo2)


def nr_boundary_force(psi: complex, psi_x: complex, psi_xx: complex,
                      mass_energy: float) -> float:
    """Nonrelativistic boundary force (Re ψ̄ψₓₓ − |ψₓ|²)/2m of a Schroedinger
    wavefunction and its derivatives at a hard wall, with ħ = c = 1 so m = mc²:
    −|ψₓ|²/2m on a Dirichlet wall, Re(ψ̄ψₓₓ)/2m on a Neumann wall.  Each
    square is divided by m as it is formed, so it overflows only with the force."""
    cross = (0.5 * complex(psi).conjugate() * (psi_xx / mass_energy)).real
    slope = abs(psi_x)
    return cross - 0.5 * slope * (slope / mass_energy)
