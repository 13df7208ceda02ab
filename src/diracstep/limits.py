"""Closed-form limit solutions.

Covered limits:

* impenetrable barrier, V₀ → E + mc²: the step becomes a perfect mirror
  (R = 1, T = 0, v_t = 0) while the eigenstate stays finite at the wall;
* its nonrelativistic reduction E → mc² (Dirichlet or Neumann wall,
  depending on the transmitted-wave convention the limit came from);
* infinite step, V₀ → ∞, where transmission survives (Klein tunneling).

Limits are provided as exact closed forms, not numerically approached
values, so boundary conditions can be evaluated without integration error.
Each limit eigenstate is plane-wave data, a ``matching.PlaneWaveSolution``:
the reflection r = ±1 of the incident [1, a]·e^{ikx} and one constant
spinor beyond the wall.  It is sampled, classified and tabulated through
the same evaluators and observables as a matched state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .core import PhysicalSetup, Regime, classify_regime, incident_wave
from .matching import Convention, PlaneWaveSolution
from .spinor import PlaneWaveState, Side, Spinor

__all__ = [
    "LimitKind",
    "LimitSolution",
    "InfiniteStepLimit",
    "impenetrable_limit",
    "edge_limit",
    "nonrelativistic_limit",
    "infinite_potential_limit",
]


class LimitKind(Enum):
    IMPENETRABLE_MAIN = "impenetrable-main"
    IMPENETRABLE_NEGATIVE = "impenetrable-negative"
    NONREL_MAIN = "nonrel-main"
    NONREL_NEGATIVE = "nonrel-negative"
    EDGE_LOWER = "edge-lower"


_NONREL_KINDS = (LimitKind.NONREL_MAIN, LimitKind.NONREL_NEGATIVE)


@dataclass(frozen=True)
class LimitSolution(PlaneWaveSolution):
    """Closed-form eigenstate at a limit point, stored as plane-wave data.

    ``energy`` is the total relativistic energy E for the relativistic
    kinds and the nonrelativistic kinetic energy for the NONREL kinds;
    ``wave_number`` is k (resp. the nonrelativistic wave number) and ``a``
    the spinor-ratio (resp. its small-a limit value).  ``r`` and ``t`` are
    the reflection and transmission amplitudes in the parameterization of
    ``convention``, and ``force`` is the limiting mean of the external step
    force.  Every kind reflects totally; for the relativistic kinds
    ``observables.coefficients`` gives R = 1, T = 0, v_t = 0 exactly.
    """

    kind: LimitKind
    energy: float
    mass_energy: float
    a: float
    force: float

    @property
    def wave_number(self) -> float:
        return self.incident.wave_number

    def nr_derivative_at_origin(self) -> complex:
        """d/dx of the nonrelativistic wavefunction at the wall (NR kinds)."""
        if self.kind is LimitKind.NONREL_MAIN:
            return 2j * self.wave_number
        if self.kind is LimitKind.NONREL_NEGATIVE:
            return 0.0
        raise ValueError(f"{self.kind.value} is not a nonrelativistic limit")


def _limit(kind, conv, energy, mass_energy, k, a, r, t, force) -> LimitSolution:
    """The limit eigenstate as data: the reflection r = ±1 of [1, a]·e^{ikx}
    (with a → 0 for the NONREL kinds) and one constant spinor beyond the
    wall, [0, 2a] for IMPENETRABLE_MAIN, [0, 0] for NONREL_MAIN and [2, 0]
    for the kinds whose lower component vanishes at the wall."""
    wall = {
        LimitKind.IMPENETRABLE_MAIN: Spinor(0.0, 2.0 * a),
        LimitKind.NONREL_MAIN: Spinor(0.0, 0.0),
    }.get(kind, Spinor(2.0, 0.0))
    return LimitSolution.reflecting(
        k, 0.0 if kind in _NONREL_KINDS else a, r,
        PlaneWaveState(wall, 0.0, Side.RIGHT), conv, t,
        kind=kind, energy=energy, mass_energy=mass_energy, a=a, force=force,
    )


def _check_finite(energy: float, mass_energy: float) -> None:
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy}")
    if not (mass_energy >= 0.0 and math.isfinite(mass_energy)):
        raise ValueError(f"mass_energy must be finite and >= 0, got {mass_energy}")


def impenetrable_limit(
    energy: float, mass_energy: float, conv: Convention = Convention.MAIN
) -> LimitSolution:
    """Exact eigenstate at the impenetrable-barrier point V₀ = E + mc².

    For the MAIN / LOWER_COMPONENT conventions the wall enforces a
    Dirichlet condition on the upper component, leaving the density at the
    wall at 4a² and the mean wall force at −4(E − mc²); the state is
    reported in the main parameterization, r = −1 and t = 0.  For the
    NEGATIVE_ENERGY convention the lower component vanishes instead
    (r = +1, t = 0) and the external force limit is −4(E + mc²), which
    disagrees with the boundary quantum force of the same state.
    """
    if energy <= mass_energy:
        raise ValueError("impenetrable limit needs E > mc2")
    _check_finite(energy, mass_energy)
    k, a = incident_wave(energy, mass_energy)
    if conv in (Convention.MAIN, Convention.LOWER_COMPONENT):
        kind, conv, r = LimitKind.IMPENETRABLE_MAIN, Convention.MAIN, -1.0
        force = -4.0 * (energy - mass_energy)
    elif conv is Convention.NEGATIVE_ENERGY:
        kind, r = LimitKind.IMPENETRABLE_NEGATIVE, 1.0
        force = -4.0 * (energy + mass_energy)
    else:
        raise ValueError("impenetrable limit defined for the main, lower and "
                         "negative-energy conventions only")
    return _limit(kind, conv, energy, mass_energy, k, a, r, 0.0, force)


def edge_limit(
    setup: PhysicalSetup, conv: Convention | None = None
) -> LimitSolution:
    """Exact state of a setup on a regime edge V₀ = E ± mc².

    At the edge point V₀ = E + mc² this is the impenetrable limit, with r
    and t in the requested parameterization: t = 2a under LOWER_COMPONENT,
    where the transmitted spinor [b″, 1] → [0, 1] stays finite; the
    TRADITIONAL wave collapses onto the MAIN one at the wall.  ``conv=None``
    reports MAIN.

    At the lower edge V₀ = E − mc² the transmitted wave freezes into the
    constant spinor [2, 0] (b → 0, r = 1, t = 2): the state is the
    IMPENETRABLE_NEGATIVE function, with the wall force −4(E − mc²).  Only
    the MAIN and TRADITIONAL parameterizations stay finite there;
    ``conv=None`` reports TRADITIONAL.
    """
    energy, mass_energy = setup.energy, setup.mass_energy
    regime = classify_regime(setup)
    if regime is Regime.EDGE_POINT:
        conv = conv or Convention.MAIN
        limit = impenetrable_limit(
            energy, mass_energy,
            Convention.MAIN if conv is Convention.TRADITIONAL else conv,
        )
        t = 2.0 * limit.a if conv is Convention.LOWER_COMPONENT else limit.t
        return replace(limit, convention=conv, t=t)
    if regime is not Regime.EDGE_LOWER:
        raise ValueError(f"{regime.value} is not a regime edge")
    conv = conv or Convention.TRADITIONAL
    if conv in (Convention.LOWER_COMPONENT, Convention.NEGATIVE_ENERGY):
        raise ValueError(
            f"{conv.value!r} parameterization is degenerate at the lower edge"
        )
    k, a = incident_wave(energy, mass_energy)
    return _limit(LimitKind.EDGE_LOWER, conv, energy, mass_energy, k, a, 1.0, 2.0,
                  -4.0 * (energy - mass_energy))


def nonrelativistic_limit(
    energy_nr: float, mass_energy: float, conv: Convention
) -> LimitSolution:
    """Nonrelativistic reduction of an impenetrable-barrier eigenstate.

    ``energy_nr`` is the kinetic energy; validity requires it to be small
    against mc².  ``conv`` is the convention the limit comes from: MAIN
    gives NONREL_MAIN, the hard-wall Dirichlet state 2i·sin(k x) with
    vanishing lower component; NEGATIVE_ENERGY gives NONREL_NEGATIVE, the
    Neumann state 2·cos(k x), constant beyond the wall.
    """
    if conv is Convention.MAIN:
        kind, r = LimitKind.NONREL_MAIN, -1.0
    elif conv is Convention.NEGATIVE_ENERGY:
        kind, r = LimitKind.NONREL_NEGATIVE, 1.0
    else:
        raise ValueError(
            "nonrelativistic limits exist for the main and negative conventions"
        )
    if mass_energy <= 0.0:
        raise ValueError("nonrelativistic limit needs mc2 > 0")
    if energy_nr <= 0.0:
        raise ValueError("nonrelativistic kinetic energy must be > 0")
    _check_finite(energy_nr, mass_energy)
    k_nr = math.sqrt(2.0 * mass_energy * energy_nr)
    a_limit = math.sqrt(energy_nr / (2.0 * mass_energy))
    return _limit(kind, conv, energy_nr, mass_energy, k_nr, a_limit, r, 0.0,
                  -4.0 * energy_nr)


@dataclass(frozen=True)
class InfiniteStepLimit:
    """V₀ → ∞ limit: b → −1 and transmission survives (Klein tunneling)."""

    a: float
    b_limit: float
    R: float
    T: float


def infinite_potential_limit(energy: float, mass_energy: float) -> InfiniteStepLimit:
    if energy <= mass_energy:
        raise ValueError("infinite-step limit needs E > mc2")
    _check_finite(energy, mass_energy)
    _, a = incident_wave(energy, mass_energy)
    return InfiniteStepLimit(
        a=a,
        b_limit=-1.0,
        R=((a - 1.0) / (a + 1.0)) ** 2,
        T=4.0 * a / (a + 1.0) ** 2,
    )
