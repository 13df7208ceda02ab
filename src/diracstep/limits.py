"""Closed-form limit solutions.

Covered limits:

* impenetrable barrier, V₀ → E + mc²: the step becomes a perfect mirror
  (R = 1, T = 0, v_t = 0) while the eigenstate stays finite at the wall;
* its nonrelativistic reduction E → mc² (Dirichlet or Neumann wall,
  depending on the transmitted-wave convention the limit came from);
* infinite step, V₀ → ∞, where transmission survives (Klein tunneling):
  b → −1 in ``matching._continuity``, observed at V₀ = ∞.

Limits are provided as exact closed forms, not numerically approached
values, so boundary conditions can be evaluated without integration error.
Each limit eigenstate is plane-wave data, a ``matching.PlaneWaveSolution``:
the reflection r = ±1 of the incident [1, a]·e^{ikx} and, beyond the wall,
the constant spinor that continuity gives it.  It is sampled, classified and
tabulated through the same evaluators and ``observe`` as a matched state;
``kind`` only labels it, and its wall force is read from it, not stored.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .core import SINGULAR, PhysicalSetup, Regime, classify_regime, incident_wave, refusal
from .matching import Convention, PlaneWaveSolution, _continuity
from .observables import Observation, _hard_wall_force, _observed, observe
from .spinor import SCALAR, PlaneWaveState, Side, Spinor

__all__ = [
    "LimitKind",
    "LimitSolution",
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


@dataclass(frozen=True)
class LimitSolution(PlaneWaveSolution):
    """Closed-form eigenstate at a limit point, stored as plane-wave data.

    ``energy`` is the total relativistic energy E for the relativistic
    kinds and the nonrelativistic kinetic energy for the NONREL kinds;
    ``wave_number`` is k (resp. the nonrelativistic wave number) and ``a``
    the spinor-ratio (resp. its small-a limit value).  ``r`` and ``t`` are
    the reflection and transmission amplitudes in the parameterization of
    ``convention``, and ``step_height`` is the edge V₀ the state sits on:
    E + mc², E − mc² for EDGE_LOWER, ∞ (a hard wall) for the NONREL kinds.
    Every kind reflects totally; for the relativistic kinds
    ``observables.observe`` gives R = 1, T = 0, v_t = 0 exactly, and for
    the current-free NONREL kinds NaN.
    """

    kind: LimitKind
    energy: float
    mass_energy: float
    a: float
    step_height: float

    @property
    def wave_number(self) -> float:
        return self.incident.wave_number

    @property
    def force(self) -> float:
        """Mean wall force, ``observe(self).force``: −V₀·ρ(0), or at the hard
        wall V₀ = ∞ the boundary force of the Schroedinger wavefunction."""
        return observe(self).force


def _limit(kind, conv, energy, mass_energy, k, ratio, a, r, t, step_height) -> LimitSolution:
    """The limit eigenstate as data: the reflection r = ±1 of [1, ratio]·e^{ikx}
    and, beyond the wall, the constant spinor [1 + r, ratio·(1 − r)] that
    continuity at x = 0 gives, [0, 2·ratio] or [2, 0].  ``ratio`` is ``a``,
    or 0 for the NONREL kinds, whose incident wave carries no current."""
    wall = PlaneWaveState(Spinor(1.0 + r, ratio * (1.0 - r)), 0.0, Side.RIGHT)
    return LimitSolution.reflecting(
        k, ratio, r, wall, conv, t,
        kind=kind, energy=energy, mass_energy=mass_energy, a=a, step_height=step_height,
    )


def _check_finite(energy: float, mass_energy: float) -> None:
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy}")
    if not (mass_energy >= 0.0 and math.isfinite(mass_energy)):
        raise ValueError(f"mass_energy must be finite and >= 0, got {mass_energy}")


def impenetrable_limit(
    energy: float, mass_energy: float, conv: Convention = Convention.MAIN
) -> LimitSolution:
    """Exact eigenstate at the impenetrable-barrier point V₀ = E + mc²: the
    ``edge_limit`` state of that setup.

    For the MAIN / LOWER_COMPONENT conventions the wall enforces a
    Dirichlet condition on the upper component, leaving the density at the
    wall at 4a² and the mean wall force −V₀·4a² at −4(E − mc²).  For the
    NEGATIVE_ENERGY convention the lower component vanishes instead
    (r = +1, t = 0) and the external force limit is −V₀·4 = −4(E + mc²),
    which disagrees with the boundary quantum force of the same state.
    """
    if energy <= mass_energy:
        raise ValueError("impenetrable limit needs E > mc2")
    _check_finite(energy, mass_energy)
    incident_wave(energy, mass_energy)  # refuses k² before E + mc² could overflow
    if conv not in (Convention.MAIN, Convention.LOWER_COMPONENT, Convention.NEGATIVE_ENERGY):
        raise ValueError("impenetrable limit defined for the main, lower and "
                         "negative-energy conventions only")
    return edge_limit(PhysicalSetup(mass_energy, energy + mass_energy, energy), conv)


def edge_limit(
    setup: PhysicalSetup, conv: Convention | None = None
) -> LimitSolution:
    """Exact state of a setup on a regime edge V₀ = E ± mc².

    At the edge point V₀ = E + mc² this is the impenetrable limit: r = −1
    and t = 0, or t = 2a under LOWER_COMPONENT, where the transmitted spinor
    [b″, 1] → [0, 1] stays finite; the TRADITIONAL wave collapses onto the
    MAIN one at the wall, and NEGATIVE_ENERGY gives r = +1.  ``conv=None``
    reports MAIN.

    At the lower edge V₀ = E − mc² the transmitted wave freezes into the
    constant spinor [2, 0] (b → 0, r = 1, t = 2): the state is the
    IMPENETRABLE_NEGATIVE function, with the wall force −V₀·4 = −4(E − mc²).  Only
    the MAIN and TRADITIONAL parameterizations stay finite there;
    ``conv=None`` reports TRADITIONAL.
    """
    energy, mass_energy = setup.energy, setup.mass_energy
    regime = classify_regime(setup)
    if regime not in (Regime.EDGE_POINT, Regime.EDGE_LOWER):
        raise ValueError(f"{regime.value} is not a regime edge")
    lower = regime is Regime.EDGE_LOWER
    conv = conv or (Convention.TRADITIONAL if lower else Convention.MAIN)
    if lower and conv in (Convention.LOWER_COMPONENT, Convention.NEGATIVE_ENERGY):
        raise ValueError(f"{conv.value!r} parameterization is degenerate at the lower edge")
    k, a = incident_wave(energy, mass_energy)
    if lower:
        kind, r, t = LimitKind.EDGE_LOWER, 1.0, 2.0
    elif conv is Convention.NEGATIVE_ENERGY:
        kind, r, t = LimitKind.IMPENETRABLE_NEGATIVE, 1.0, 0.0
    else:
        kind, r = LimitKind.IMPENETRABLE_MAIN, -1.0
        t = 2.0 * a if conv is Convention.LOWER_COMPONENT else 0.0
    return _limit(kind, conv, energy, mass_energy, k, a, a, r, t, setup.step_height)


def nonrelativistic_limit(
    energy_nr: float, mass_energy: float, conv: Convention
) -> LimitSolution:
    """Nonrelativistic reduction of an impenetrable-barrier eigenstate.

    ``energy_nr`` is the kinetic energy, small against mc²; from 2mc² on a
    would reach 1 and it is refused.  ``conv`` is the convention the limit
    comes from: MAIN gives NONREL_MAIN, the hard-wall Dirichlet state
    2i·sin(k x) with vanishing lower component; NEGATIVE_ENERGY gives
    NONREL_NEGATIVE, the Neumann state 2·cos(k x), constant beyond the wall.
    Both sit at a hard wall, V₀ = ∞, with the force −4·E_kin.  It is refused
    where 2mc²·E_kin underflows, and k = √(2mc²·E_kin) with it.
    """
    if conv is Convention.MAIN:
        kind, r = LimitKind.NONREL_MAIN, -1.0
    elif conv is Convention.NEGATIVE_ENERGY:
        kind, r = LimitKind.NONREL_NEGATIVE, 1.0
    else:
        raise ValueError("nonrelativistic limits exist for the main and negative conventions")
    if mass_energy <= 0.0:
        raise ValueError("nonrelativistic limit needs mc2 > 0")
    if energy_nr <= 0.0:
        raise ValueError("nonrelativistic kinetic energy must be > 0")
    _check_finite(energy_nr, mass_energy)
    limit = _hard_wall(kind, conv, r, energy_nr, mass_energy)
    for cause, value in (("sqrt(2 mc2 E_kin)", limit.wave_number),
                         ("sqrt(E_kin / 2mc2)", limit.a), ("-4 E_kin", -4.0 * energy_nr)):
        if not math.isfinite(value):
            raise ValueError(f"{cause} overflows (E_kin={energy_nr}, mc2={mass_energy})")
    if limit.a >= 1.0:  # a < 1 for every relativistic state
        raise ValueError(f"sqrt(E_kin / 2mc2) = {limit.a} >= 1: E_kin >= 2 mc2 is not "
                         f"nonrelativistic (E_kin={energy_nr}, mc2={mass_energy})")
    if 2.0 * mass_energy * energy_nr < sys.float_info.min:
        raise ValueError(f"2 mc2 E_kin underflows (E_kin={energy_nr}, mc2={mass_energy})")
    return limit


def _hard_wall(kind, conv, r, energy_nr, mass_energy) -> LimitSolution:
    """The NONREL state of kinetic energy E_kin, unchecked: the reflection r
    of [1, 0]·e^{ikx} at the hard wall, k = √(2mc²·E_kin), with a = √(E_kin / 2mc²)."""
    k_nr = math.sqrt(2.0 * mass_energy * energy_nr)
    a_limit = math.sqrt(energy_nr / (2.0 * mass_energy))
    return _limit(kind, conv, energy_nr, mass_energy, k_nr, 0.0, a_limit, r, 0.0, math.inf)


def _nr_wall_force(energy: float, mass_energy: float) -> float:
    """Wall force of the Dirichlet NONREL state at E_kin = E − mc², whatever
    E_kin/mc²; NaN at mc² = 0 and where 2mc²·E_kin underflows."""
    energy_nr = energy - mass_energy
    if 2.0 * mass_energy * energy_nr < sys.float_info.min:
        return math.nan
    return _hard_wall_force(_hard_wall(LimitKind.NONREL_MAIN, Convention.MAIN, -1.0,
                                       energy_nr, mass_energy))


def infinite_potential_limit(
    energy: float, mass_energy: float, conv: Convention = Convention.MAIN
) -> Observation:
    """Observation of the step V₀ → ∞: b → −1 and b″ → 1 in the continuity
    system.  MAIN, LOWER_COMPONENT and NEGATIVE_ENERGY share the column [1, 1]
    (r = (a − 1)/(a + 1), Klein tunneling); TRADITIONAL's [1, −1] gives
    r = (a + 1)/(a − 1), R > 1, and is singular where a = 1 (mc² = 0, or
    E ≳ 1e16·mc²).  Its force −V₀·ρ(0) reads −∞."""
    if energy <= mass_energy:
        raise ValueError("infinite-step limit needs E > mc2")
    _check_finite(energy, mass_energy)
    k, a = incident_wave(energy, mass_energy)
    # k̄ → ∞ enters neither r, t nor the currents; the placeholder wave number
    # 0 makes ψ(0) = t·column.
    values, (_, singular) = _continuity(SCALAR, a, -1.0, 1.0, 0.0, conv, False)
    if singular:
        raise refusal(SINGULAR, mass_energy, math.inf, energy, conv)
    return _observed(PlaneWaveSolution._continued(k, a, values, conv), math.inf)
