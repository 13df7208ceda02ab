"""The observation of a state: coefficients, wall values, wall forces and wall class.

All quantities are computed from the actual plane waves of a state, matched
or limit alike, never from per-convention closed forms (those live in the
tests as cross-checks), under the state's own step height.  ``_observe`` forms
them, and the wall rule, on numbers or arrays; ``_observation`` runs it on one
state's plane waves, the row that ``table.record`` reads for an edge state.
``observe``, a state's one public reader, reads that row and ψ(0) in one pass
and adds the rule of a current-free state.

The wall force is read two ways: the step's force −V₀ δ(x) has the mean −V₀·ρ(0)
(``force``); on the half line x ≤ 0 that mean is the boundary term of d⟨p⟩/dt, for
a stationary state the flux bracket −E ρ + mc² (|upper|² − |lower|²) at the wall
(``boundary_force``, formed by ``observe`` alone), constant in x at an impenetrable wall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import _scaled
from .matching import PlaneWaveSolution
from .spinor import SCALAR, current

__all__ = ["BoundaryCondition", "Observation", "TOLERANCE", "observe"]

# A component counts as zero below TOLERANCE times the solution's amplitude
# scale; exact limits give zero residuals, matched states small ones.
TOLERANCE = 1e-10


class BoundaryCondition(Enum):
    """The component of ψ(0) that vanishes at the wall.  A vanishing *entire*
    spinor is not a class: it gives no self-adjoint half-line Hamiltonian,
    and continuity would need r = −1 and r = +1 at once."""

    DIRICHLET_UPPER = "DirichletUpper"  # upper component vanishes at the wall
    DIRICHLET_LOWER = "DirichletLower"  # lower component vanishes at the wall
    DIRICHLET_NR = "DirichletNR"        # nonrelativistic wavefunction vanishes
    NEUMANN_NR = "NeumannNR"            # nonrelativistic derivative vanishes
    NONE = "None"


@dataclass(frozen=True)
class Observation:
    """The physics of one state at its step height V₀.

    r, t          reflection and transmission amplitudes
    R, T          |j_refl| / |j_in| and the signed j_trans / j_in, so that R + T = 1
                  for every convention (TRADITIONAL in the Klein zone reads R > 1,
                  T < 0); NaN for a current-free state (a nonrelativistic limit)
    rho0, j0      density and current at the step edge
    v_t           transmitted velocity j_t / ρ_t in units of c; NaN under
                  an evanescent step and for a current-free state
    force         mean wall force −V₀·ρ(0), or the hard-wall force if current-free
    boundary_force
                  the flux bracket at ψ(0), or ``force`` if current-free; ±inf only
                  where the bracket itself overflows
    continuity    mismatch of ψ(0⁻) and ψ(0), relative to max(1, |ψ(0⁻)|)
    boundary      the wall class
    impenetrable  whether the current at the wall vanishes, to TOLERANCE of the density
                  there, or of the squared amplitude scale where that density vanishes
    """

    r: complex
    t: complex
    R: float
    T: float
    rho0: float
    j0: float
    v_t: float
    force: float
    boundary_force: float
    continuity: float
    boundary: BoundaryCondition
    impenetrable: bool


def observe(state: PlaneWaveSolution) -> Observation:
    """The observation of a state at its own ``step_height``, in one pass: ``_observation``'s
    row and ψ(0).  A current-free state (a nonrelativistic limit) has R, T and v_t NaN, the
    force of its hard wall as both forces, and is classified on its Schroedinger
    wavefunction (the upper component): DirichletNR if it vanishes at the wall, NeumannNR
    if its left slope does, relative to k.  The flux bracket is formed from (E, mc²)/2^s
    and scaled by 2^s last, so it reads ±inf only where the bracket itself overflows."""
    row, psi = _observation(state), state.spinor_at(0.0)
    scale = _scale(SCALAR, *_amplitudes(state))
    zero = TOLERANCE * scale
    reference = row["rho0"] if row["rho0"] > zero * scale else scale * scale
    if current(state.incident.amplitude) == 0.0:
        slope, k = abs(state.nr_derivative_at_origin()), abs(state.incident.wave_number)
        wall = (BoundaryCondition.DIRICHLET_NR if abs(psi.upper) < zero
                else BoundaryCondition.NEUMANN_NR if slope < zero * k
                else BoundaryCondition.NONE)
        row.update(R=math.nan, T=math.nan, v_t=math.nan, force=_hard_wall_force(state),
                   boundary=wall.value)
        boundary_force = row["force"]
    else:
        e, m, s = _scaled(SCALAR, state.energy, state.mass_energy)
        up2, lo2 = abs(psi.upper) ** 2, abs(psi.lower) ** 2
        bracket = -e * (up2 + lo2) + m * (up2 - lo2)
        try:
            boundary_force = math.ldexp(bracket, s)
        except OverflowError:
            boundary_force = math.copysign(math.inf, bracket)
    return Observation(complex(row["r_re"], row["r_im"]), complex(row["t_re"], row["t_im"]),
                       row["R"], row["T"], row["rho0"], row["j0"], row["v_t"], row["force"],
                       boundary_force, row["continuity"], BoundaryCondition(row["boundary"]),
                       abs(row["j0"]) < TOLERANCE * reference)


def _observation(sol: PlaneWaveSolution) -> dict:
    """``_observe`` of a state's own plane waves under its own step height: the
    row of an edge state for ``table.record``, and of every state for ``observe``."""
    a, r, r_lower, t_upper, t_lower = _amplitudes(sol)
    q_t = sol.transmitted.wave_number
    # A decaying (evanescent) wave carries exactly zero transmitted current.
    return _observe(SCALAR, a, r, r_lower, sol.t, t_upper, t_lower, q_t, sol.step_height,
                    q_t.imag > 0.0)


def _hard_wall_force(sol) -> float:
    """Boundary force of a current-free limit state at its hard wall, V₀ = ∞:
    (Re ψ̄ψ″ − |ψ′|²)/2m of its Schroedinger wavefunction, the upper component,
    from ψ′/k = i(1 − r) and ψ″/k² = −(1 + r), scaled by k·(k/m) last."""
    k, r, psi = sol.incident.wave_number, sol.r, sol.left_value_at(0.0).upper
    cross, slope = (0.5 * complex(psi).conjugate() * -(1 + r)).real, abs(1j * (1 - r))
    return k * (k / sol.mass_energy) * (cross - 0.5 * slope * slope)


def _amplitudes(sol: PlaneWaveSolution) -> tuple:
    """a, r, r_lower, t_upper and t_lower of a state, as ``_observe`` and
    ``_scale`` take them."""
    incident, reflected = sol.incident.amplitude, sol.reflected.amplitude
    wall = sol.transmitted.amplitude
    return incident.lower, reflected.upper, reflected.lower, wall.upper, wall.lower


def _scale(xp, a, r, r_lower, t_upper, t_lower):
    """The state's amplitude scale, its largest amplitude and at least 1: a
    value at the wall counts as zero below TOLERANCE times it."""
    mag = xp.magnitude
    return xp.maximum(xp.maximum(xp.maximum(1.0, a), xp.maximum(mag(r), mag(r_lower))),
                      xp.maximum(mag(t_upper), mag(t_lower)))


def _observe(xp, a, r, r_lower, t, t_upper, t_lower, q_t, v0, evanescent: bool) -> dict:
    """The ``table.record`` columns r_re to continuity of the state
    [1, a]·e^{ikx} + [r, r_lower]·e^{−ikx} for x < 0 and [t_upper, t_lower]·e^{iq_t·x}
    beyond, under a step of height v0, on Python numbers or arrays (``xp`` is
    ``spinor.SCALAR`` or ``spinor.ARRAY``); ``boundary`` is the wall class of a
    state whose incident wave carries current: which component of ψ(0)
    vanishes, and None where both or neither do."""
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
    zero = TOLERANCE * _scale(xp, a, r, r_lower, t_upper, t_lower)
    upper_zero, lower_zero = (mag(psi) < zero for psi in (psi_upper, psi_lower))
    boundary = xp.where(upper_zero == lower_zero, BoundaryCondition.NONE.value,
                        xp.where(upper_zero, BoundaryCondition.DIRICHLET_UPPER.value,
                                 BoundaryCondition.DIRICHLET_LOWER.value))
    return {"r_re": r.real, "r_im": r.imag, "t_re": t.real, "t_im": t.imag,
            "R": xp.quotient(mag(xp.currents(r, r_lower)), mag(j_in)), "T": T, "rho0": rho0,
            "j0": xp.currents(psi_upper, psi_lower), "v_t": v_t, "force": -v0 * rho0,
            "boundary": boundary, "continuity": xp.quotient(residual, left_scale)}

