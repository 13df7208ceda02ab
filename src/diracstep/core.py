"""Problem statement, unit conventions, and kinematics for 1D Dirac step scattering.

A particle of rest energy mc² comes in from the left with energy E > mc²
and hits the electrostatic step V(x) = V₀ Θ(x).  Everything downstream is
controlled by three energies (mc², V₀, E) and the derived wave numbers and
spinor amplitude ratios computed here.

Natural units: ħ = c = 1, so wave numbers carry units of energy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .spinor import SCALAR

__all__ = [
    "PhysicalSetup",
    "Regime",
    "Kinematics",
    "EdgePointError",
    "classify_regime",
    "incident_wave",
    "kinematics",
]


class EdgePointError(ValueError):
    """Raised when kinematics is requested exactly on a regime boundary.

    On the boundaries the transmitted wave number vanishes and the
    scattering amplitudes degenerate; use the ``limits`` module instead.
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
    """Classify the setup into exactly one energy regime.

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


@dataclass(frozen=True)
class Kinematics:
    """Wave numbers and spinor amplitude ratios derived from a setup.

    k               incident wave number, k = √(E² − (mc²)²) > 0
    kbar_or_kappa   transmitted wave number k̄ (KLEIN_ZONE / TRANSMISSION)
                    or evanescent decay constant κ (EVANESCENT), ≥ 0
    a               incident lower/upper spinor ratio,
                    a = √((E − mc²)/(E + mc²)) ∈ (0, 1]; a = 1 for mc² = 0
    b               transmitted spinor ratio k̄ / (E − V₀ + mc²):
                    real < 0 in KLEIN_ZONE, real > 0 in TRANSMISSION,
                    pure imaginary (from k̄ → −iκ) in EVANESCENT
    b_dprime        −1 / b; real > 0 in KLEIN_ZONE and stays finite as the
                    impenetrable-barrier point is approached
    """

    setup: PhysicalSetup
    regime: Regime
    k: float
    kbar_or_kappa: float
    a: float
    b: complex
    b_dprime: complex


# The refusal causes of an open-regime setup, in the order they are checked
# (0 is none), and their messages.
(K2_OVERFLOW, KBAR2_OVERFLOW, K2_UNDERFLOW, KBAR2_UNDERFLOW, KBAR_ZERO, GROWING, SINGULAR,
 NOT_FINITE) = range(1, 9)
_REFUSALS = {
    K2_OVERFLOW: "(E - mc2)(E + mc2) overflows (E={e}, mc2={m})",
    KBAR2_OVERFLOW: "(E - V0 - mc2)(E - V0 + mc2) overflows (E={e}, V0={v0}, mc2={m})",
    K2_UNDERFLOW: "(E - mc2)(E + mc2) underflows (E={e}, mc2={m})",
    KBAR2_UNDERFLOW: "(E - V0 - mc2)(E - V0 + mc2) underflows (E={e}, V0={v0}, mc2={m})",
    KBAR_ZERO: ("transmitted wave number rounds to 0 in {regime}: V0={v0} is within rounding "
                "of the regime edge {edge} (E={e}, mc2={m})"),
    GROWING: "{conv!r} transmitted wave grows under the step in the evanescent regime",
    # Possible only at degenerate corners (e.g. the TRADITIONAL wave for a
    # massless particle, where it is parallel to the reflected wave).
    SINGULAR: "continuity system singular for {conv!r} at this setup",
    NOT_FINITE: "spinor components must be finite",
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


def _incident(xp, e, m):
    """k², k and a on Python numbers or arrays (``xp`` is ``spinor.SCALAR`` or
    ``spinor.ARRAY``)."""
    # (E−m)(E+m) instead of E²−m²: keeps full precision for E close to mc².
    k2 = (e - m) * (e + m)
    return k2, xp.sqrt(k2), xp.sqrt(xp.quotient(e - m, e + m))


def _kinematics(xp, m, v0, e, evanescent: bool):
    """The open-regime kinematics on Python numbers or arrays: (k, k̄ or κ, a,
    b, b″), and whether k² or k̄² overflows, k² or k̄² underflows (is below the
    normal range, with nonzero factors; E ± mc² are nonzero) and k̄ rounds to 0."""
    k2, k, a = _incident(xp, e, m)
    d = e - v0
    kbar2 = (d - m) * (d + m)  # k̄² in the open regimes, −κ² in the evanescent band
    tiny = sys.float_info.min
    kbar2_underflows = (xp.magnitude(kbar2) < tiny) & (d != m) & (d != -m)
    transmitted = xp.sqrt(xp.magnitude(kbar2))
    b = xp.quotient(xp.product(-1j, transmitted) if evanescent else transmitted, d + m)
    b_dprime = -xp.quotient(1.0, b)  # -1.0 / b would flip a signed zero in the evanescent band
    return (k, transmitted, a, b, b_dprime), (k2 == math.inf, kbar2 == math.inf, k2 < tiny,
                                              kbar2_underflows, kbar2 == 0.0)


def incident_wave(energy: float, mass_energy: float) -> tuple[float, float]:
    """Incident wave number k = √(E² − (mc²)²) and spinor ratio
    a = √((E − mc²)/(E + mc²)), 1 for mc² = 0, for E > mc².  Raises
    ValueError when k² overflows or underflows."""
    k2, k, a = _incident(SCALAR, energy, mass_energy)
    if k2 == math.inf or k2 < sys.float_info.min:
        raise refusal(K2_OVERFLOW if k2 == math.inf else K2_UNDERFLOW, mass_energy, None, energy)
    return k, a


def kinematics(setup: PhysicalSetup) -> Kinematics:
    """Compute wave numbers and spinor ratios for an open-regime setup.

    Raises EdgePointError exactly on the regime boundaries (k̄ = 0), where
    the scattering amplitudes degenerate and the closed-form limits of the
    ``limits`` module apply instead, and also where k̄ or κ rounds to 0 just
    inside an open regime.  Raises ValueError when k² or k̄² leaves the
    normal range.

    In the EVANESCENT regime the transmitted wave number continues to
    k̄ → −iκ, the unique choice that decays for x → +∞; ``b`` then becomes
    pure imaginary and ``kbar_or_kappa`` holds κ.
    """
    regime = classify_regime(setup)
    if regime in (Regime.EDGE_POINT, Regime.EDGE_LOWER):
        raise EdgePointError(
            f"kinematics degenerate at {regime.value} (V0={setup.step_height}); "
            "use the limits module"
        )
    m, v0, e = setup.mass_energy, setup.step_height, setup.energy
    values, hits = _kinematics(SCALAR, m, v0, e, regime is Regime.EVANESCENT)
    for cause, hit in enumerate(hits, K2_OVERFLOW):
        if hit:
            raise refusal(cause, m, v0, e)
    return Kinematics(setup, regime, *values)
