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
    m, v0, e = setup.mass_energy, setup.step_height, setup.energy
    if v0 == e + m:
        return Regime.EDGE_POINT
    if v0 == e - m:
        return Regime.EDGE_LOWER
    if v0 > e + m:
        return Regime.KLEIN_ZONE
    if v0 < e - m:
        return Regime.TRANSMISSION
    return Regime.EVANESCENT


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
    b_prime         1 / b
    b_dprime        −1 / b; real > 0 in KLEIN_ZONE and stays finite as the
                    impenetrable-barrier point is approached
    """

    setup: PhysicalSetup
    regime: Regime
    k: float
    kbar_or_kappa: float
    a: float
    b: complex
    b_prime: complex
    b_dprime: complex


def incident_wave(energy: float, mass_energy: float) -> tuple[float, float]:
    """Incident wave number k = √(E² − (mc²)²) and spinor ratio
    a = √((E − mc²)/(E + mc²)), 1 for mc² = 0.  Raises ValueError when k²
    overflows."""
    # (E−m)(E+m) instead of E²−m²: keeps full precision for E close to mc².
    e, m = energy, mass_energy
    k2 = (e - m) * (e + m)
    if k2 == math.inf:
        raise ValueError(f"(E - mc2)(E + mc2) overflows (E={e}, mc2={m})")
    return math.sqrt(k2), math.sqrt((e - m) / (e + m)) if m > 0.0 else 1.0


def kinematics(setup: PhysicalSetup) -> Kinematics:
    """Compute wave numbers and spinor ratios for an open-regime setup.

    Raises EdgePointError exactly on the regime boundaries (k̄ = 0), where
    the scattering amplitudes degenerate and the closed-form limits of the
    ``limits`` module apply instead, and also where k̄ or κ rounds to 0 just
    inside an open regime.  Raises ValueError when k² or k̄² overflows.

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
    m, e, v0 = setup.mass_energy, setup.energy, setup.step_height
    d = e - v0
    k, a = incident_wave(e, m)
    # k̄² in the open regimes, −κ² in the evanescent band.
    kbar2 = (d - m) * (d + m)
    if kbar2 == math.inf:
        raise ValueError(
            f"(E - V0 - mc2)(E - V0 + mc2) overflows (E={e}, V0={v0}, mc2={m})"
        )
    if kbar2 == 0.0:
        edge = "E - mc2" if d > 0.0 else "E + mc2"
        raise EdgePointError(
            f"transmitted wave number rounds to 0 in {regime.value}: "
            f"V0={v0} is within rounding of the regime edge {edge} (E={e}, mc2={m})"
        )
    transmitted = math.sqrt(abs(kbar2))
    if regime is Regime.EVANESCENT:
        b: complex = -1j * transmitted / (d + m)
    else:
        b = transmitted / (d + m)
    b_prime = 1.0 / b
    b_dprime = -b_prime
    return Kinematics(
        setup=setup,
        regime=regime,
        k=k,
        kbar_or_kappa=transmitted,
        a=a,
        b=b,
        b_prime=b_prime,
        b_dprime=b_dprime,
    )
