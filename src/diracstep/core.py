"""Problem statement, unit conventions, and kinematics for 1D Dirac step scattering.

A particle of rest energy mc² comes in from the left with energy E > mc²
and hits the electrostatic step V(x) = V₀ Θ(x).  Everything downstream is
controlled by three energies (mc², V₀, E) and the derived wave numbers and
spinor amplitude ratios computed here.

Natural units: ħ = c = 1, so wave numbers carry units of energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .spinor import SCALAR

__all__ = [
    "PhysicalSetup",
    "Regime",
    "EdgePointError",
    "classify_regime",
    "incident_wave",
]


class EdgePointError(ValueError):
    """Raised where the transmitted wave number k̄ is 0: by the oracle on a
    regime edge, where the scattering amplitudes degenerate and the
    ``limits`` module's edge states apply instead, and on every path where
    k̄ rounds to 0 just inside an open regime.
    """


class Regime(Enum):
    """Energy-regime classification of a step setup.

    TRANSMISSION  V₀ < E − mc²   propagating transmitted wave, ordinary tunneling-free scattering
    EVANESCENT    E − mc² < V₀ < E + mc²   transmitted wave decays, total reflection
    KLEIN_ZONE    V₀ > E + mc²   propagating transmitted wave below the step (Klein tunneling)
    EDGE_LOWER    V₀ = E − mc²   exact lower boundary
    EDGE_POINT    V₀ = E + mc²   exact upper boundary: the impenetrable-barrier point
    """

    TRANSMISSION = "Transmission"
    EVANESCENT = "Evanescent"
    KLEIN_ZONE = "KleinZone"
    EDGE_LOWER = "EdgeLower"
    EDGE_POINT = "EdgePoint"


@dataclass(frozen=True)
class PhysicalSetup:
    """Full problem statement: rest energy mc², step height V₀, energy E.

    All three are energies in one common (arbitrary) unit; lengths are
    in its inverse (ħ = c = 1).
    """

    mass_energy: float
    step_height: float
    energy: float

    def __post_init__(self) -> None:
        if not (self.mass_energy >= 0.0 and math.isfinite(self.mass_energy)):
            raise ValueError(f"mass_energy must be >= 0, got {self.mass_energy}")
        if not (self.step_height > 0.0 and math.isfinite(self.step_height)):
            raise ValueError(f"step_height must be > 0, got {self.step_height}")
        if not math.isfinite(self.energy):
            raise ValueError(f"energy must be finite, got {self.energy}")
        if not (self.energy > self.mass_energy):
            raise ValueError(
                "energy must exceed mass_energy for a propagating incident wave "
                f"(E={self.energy}, mc2={self.mass_energy})"
            )


def classify_regime(setup: PhysicalSetup) -> Regime:
    """Classify a setup, or a state by its energies, into exactly one regime.

    Boundaries are resolved by exact floating-point comparison; an exact
    hit returns EDGE_LOWER / EDGE_POINT rather than silently coercing to a
    neighbouring open regime.  For mc² = 0 the two edges coincide and the
    single point V₀ = E classifies as EDGE_POINT (the impenetrable-barrier
    limit point).
    """
    return _REGIMES[_regime(SCALAR, setup.mass_energy, setup.step_height, setup.energy)]


_REGIMES = (Regime.EDGE_POINT, Regime.EDGE_LOWER, Regime.KLEIN_ZONE, Regime.TRANSMISSION,
            Regime.EVANESCENT)


def _regime(xp, m, v0, e):
    """The index into ``_REGIMES`` of ``classify_regime`` on Python numbers or
    arrays (``xp`` is ``spinor.SCALAR`` or ``spinor.ARRAY``): of the first
    comparison that holds, edge point first, else of EVANESCENT (also for NaN)."""
    return xp.select([v0 == e + m, v0 == e - m, v0 > e + m, v0 < e - m], range(4), 4)


# The refusal causes of an open-regime setup, in the order they are checked
# (0 is none), and their messages.
KBAR_ZERO, GROWING, SINGULAR, NOT_FINITE = range(1, 5)
_REFUSALS = {
    KBAR_ZERO: ("transmitted wave number rounds to 0 in {regime}: V0={v0} is within rounding "
                "of the regime edge {edge} (E={e}, mc2={m})"),
    GROWING: "{conv!r} transmitted wave grows under the step in the evanescent regime",
    # Possible only at degenerate corners (e.g. the TRADITIONAL wave for a
    # massless particle, where it is parallel to the reflected wave).
    SINGULAR: "continuity system singular for {conv!r} at this setup",
    # With k and k̄ formed from scaled pairs, only the force leaves the double range.
    NOT_FINITE: "wall force -V0 rho(0) overflows (E={e}, V0={v0}, mc2={m})",
}


def refusal(cause: int, mass_energy, step_height, energy, conv=None) -> ValueError:
    """The error of an open-regime setup refused for ``cause``, on every path;
    ``conv`` is the transmitted-wave convention, for GROWING and SINGULAR."""
    e, v0, m = energy, step_height, mass_energy
    if cause != KBAR_ZERO:
        return ValueError(_REFUSALS[cause].format(e=e, v0=v0, m=m, conv=conv and conv.value))
    edge = "E - mc2" if e - v0 > 0.0 else "E + mc2"
    regime = _REGIMES[_regime(SCALAR, m, v0, e)].value
    return EdgePointError(_REFUSALS[cause].format(regime=regime, v0=v0, edge=edge, e=e, m=m))


def _scaled(xp, x, y):
    """x / 2^s, y / 2^s and s, s the binary exponent of the larger magnitude, on
    numbers or arrays: a square formed from the scaled pair is 0 or normal."""
    s = xp.frexp(xp.maximum(xp.magnitude(x), xp.magnitude(y)))[1]
    return xp.ldexp(x, -s), xp.ldexp(y, -s), s


def _incident(xp, e, m):
    """k and a from (E, mc²)/2^s, on Python numbers or arrays (``xp``)."""
    e, m, s = _scaled(xp, e, m)
    # (E−m)(E+m) instead of E²−m²: keeps full precision for E close to mc².
    return xp.ldexp(xp.sqrt((e - m) * (e + m)), s), xp.sqrt(xp.quotient(e - m, e + m))


def _kinematics(xp, m, v0, e, evanescent: bool):
    """The open-regime kinematics on Python numbers or arrays: (k, k̄ or κ, a,
    b, b″), and whether k̄ rounds to 0.  k̄² and b are formed from
    (E − V₀, mc²)/2^s, so neither depends on the energy unit."""
    k, a = _incident(xp, e, m)
    d, m, s = _scaled(xp, e - v0, m)
    kbar2 = (d - m) * (d + m)  # (k̄/2^s)² in the open regimes, −(κ/2^s)² if evanescent
    transmitted = xp.sqrt(xp.magnitude(kbar2))
    b = xp.quotient(xp.product(-1j, transmitted) if evanescent else transmitted, d + m)
    b_dprime = -xp.quotient(1.0, b)  # -1.0 / b would flip a signed zero in the evanescent band
    return (k, xp.ldexp(transmitted, s), a, b, b_dprime), kbar2 == 0.0


def incident_wave(energy: float, mass_energy: float) -> tuple[float, float]:
    """Incident wave number k = √(E² − (mc²)²) and spinor ratio
    a = √((E − mc²)/(E + mc²)), 1 for mc² = 0, for E > mc², at any scale."""
    return _incident(SCALAR, energy, mass_energy)

