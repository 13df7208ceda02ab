"""Problem statement, unit conventions, and kinematics for 1D Dirac step scattering.

A particle of rest energy mc² comes in from the left with energy E > mc²
and hits the electrostatic step V(x) = V₀ Θ(x).  Everything downstream is
controlled by three energies (mc², V₀, E) and the derived wave numbers and
spinor amplitude ratios computed here.

Natural units: ħ = c = 1 unless an explicit ``hbar_c`` scale is supplied,
in which case wave numbers carry units of energy/ħc.
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

    All three are energies in one common (arbitrary) unit.  ``hbar_c``
    fixes the length unit; leave it at 1.0 for natural units.
    """

    mass_energy: float
    step_height: float
    energy: float
    hbar_c: float = 1.0

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
        if not (self.hbar_c > 0.0 and math.isfinite(self.hbar_c)):
            raise ValueError(f"hbar_c must be finite and > 0, got {self.hbar_c}")


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

    k               incident wave number, k = √(E² − (mc²)²) / ħc > 0
    kbar_or_kappa   transmitted wave number k̄ (KLEIN_ZONE / TRANSMISSION)
                    or evanescent decay constant κ (EVANESCENT), ≥ 0
    a               incident lower/upper spinor ratio,
                    a = √((E − mc²)/(E + mc²)) ∈ (0, 1]; a = 1 for mc² = 0
    b               transmitted spinor ratio ħc·k̄ / (E − V₀ + mc²):
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


def kinematics(setup: PhysicalSetup) -> Kinematics:
    """Compute wave numbers and spinor ratios for an open-regime setup.

    Raises EdgePointError exactly on the regime boundaries (k̄ = 0), where
    the scattering amplitudes degenerate and the closed-form limits of the
    ``limits`` module apply instead.

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
    m, e = setup.mass_energy, setup.energy
    d = e - setup.step_height
    # (E−m)(E+m) instead of E²−m²: keeps full precision for E close to mc².
    k = math.sqrt((e - m) * (e + m)) / setup.hbar_c
    a = math.sqrt((e - m) / (e + m)) if m > 0.0 else 1.0
    # Ratios (a, b) are formed from the natural-unit wave numbers so they do
    # not pick up rounding from the hbar_c scaling of k itself.
    if regime is Regime.EVANESCENT:
        q_natural = math.sqrt((m - d) * (m + d))
        b: complex = -1j * q_natural / (d + m)
    else:
        q_natural = math.sqrt((d - m) * (d + m))
        b = q_natural / (d + m)
    transmitted = q_natural / setup.hbar_c
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
