"""Closed-form limit solutions and empirical approach-path scans.

Covered limits:

* impenetrable barrier, V₀ → E + mc²: the step becomes a perfect mirror
  (R = 1, T = 0, v_t = 0) while the eigenstate stays finite at the wall;
* its nonrelativistic reduction E → mc² (Dirichlet or Neumann wall,
  depending on the transmitted-wave convention the limit came from);
* infinite step, V₀ → ∞, where transmission survives (Klein tunneling);
* ``convergence_scan``: numerical approach of the impenetrable point from
  either side, used to verify rates (T vanishes like √δ from the right).

Limits are provided as exact closed forms, not numerically approached
values, so boundary conditions can be evaluated without integration error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import PhysicalSetup, Regime, classify_regime, kinematics
from .forces import external_force_mean
from .matching import Convention, match
from .observables import coefficients
from .spinor import Spinor, complex_product

__all__ = [
    "LimitKind",
    "LimitSolution",
    "InfiniteStepLimit",
    "ScanRow",
    "ScanResult",
    "impenetrable_limit",
    "edge_limit",
    "nonrelativistic_limit",
    "infinite_potential_limit",
    "convergence_scan",
]


class LimitKind(Enum):
    IMPENETRABLE_MAIN = "impenetrable-main"
    IMPENETRABLE_NEGATIVE = "impenetrable-negative"
    NONREL_MAIN = "nonrel-main"
    NONREL_NEGATIVE = "nonrel-negative"
    EDGE_LOWER = "edge-lower"


_NR_CONVENTIONS = {
    LimitKind.NONREL_MAIN: Convention.MAIN,
    LimitKind.NONREL_NEGATIVE: Convention.NEGATIVE_ENERGY,
}


@dataclass(frozen=True)
class LimitSolution:
    """Closed-form eigenstate at a limit point.

    ``energy`` is the total relativistic energy E for the relativistic
    kinds and the nonrelativistic kinetic energy for the NONREL kinds;
    ``wave_number`` is k (resp. the nonrelativistic wave number) and ``a``
    the spinor-ratio (resp. its small-a limit value).  ``r`` and ``t`` are
    the reflection and transmission amplitudes in the parameterization of
    ``convention``, and ``force`` is the limiting mean of the external step
    force.  Every kind reflects totally: R = 1, T = 0, v_t = 0.
    """

    kind: LimitKind
    convention: Convention
    energy: float
    mass_energy: float
    wave_number: float
    a: float
    r: complex
    t: complex
    force: float
    R_limit: float = 1.0
    T_limit: float = 0.0
    v_t_limit: float = 0.0

    def spinor_at(self, x: float) -> Spinor:
        return self.left_value_at(x) if x < 0.0 else self.right_value_at(x)

    def left_value_at(self, x: float) -> Spinor:
        """Oscillatory branch (valid for x <= 0, including the wall itself)."""
        return _single(self.left_values(np.array([x])))

    def right_value_at(self, x: float) -> Spinor:
        """Constant branch beyond the wall (valid for x >= 0)."""
        return _single(self.right_values(np.array([x])))

    def left_values(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Upper and lower components of the oscillatory branch at every
        position, as complex arrays."""
        theta = self.wave_number * xs
        if self.kind is LimitKind.IMPENETRABLE_MAIN:
            return (
                complex_product(2j, np.sin(theta)),
                (2.0 * self.a * np.cos(theta)).astype(complex),
            )
        if self.kind in (LimitKind.IMPENETRABLE_NEGATIVE, LimitKind.EDGE_LOWER):
            return (
                (2.0 * np.cos(theta)).astype(complex),
                complex_product(2j * self.a, np.sin(theta)),
            )
        zeros = np.zeros(len(xs), dtype=complex)
        if self.kind is LimitKind.NONREL_MAIN:
            return complex_product(2j, np.sin(theta)), zeros
        return (2.0 * np.cos(theta)).astype(complex), zeros

    def right_values(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Upper and lower components of the constant branch at every
        position, as complex arrays."""
        if self.kind is LimitKind.IMPENETRABLE_MAIN:
            value = (0.0, 2.0 * self.a)
        elif self.kind is LimitKind.NONREL_MAIN:
            value = (0.0, 0.0)
        else:
            value = (2.0, 0.0)
        return (np.full(len(xs), complex(value[0])),
                np.full(len(xs), complex(value[1])))

    def nr_derivative_at_origin(self) -> complex:
        """d/dx of the nonrelativistic wavefunction at the wall (NR kinds)."""
        if self.kind is LimitKind.NONREL_MAIN:
            return 2j * self.wave_number
        if self.kind is LimitKind.NONREL_NEGATIVE:
            return 0.0
        raise ValueError(f"{self.kind.value} is not a nonrelativistic limit")


def _single(values: tuple[np.ndarray, np.ndarray]) -> Spinor:
    upper, lower = values
    return Spinor(complex(upper[0]), complex(lower[0]))


def _check_finite(energy: float, mass_energy: float) -> None:
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy}")
    if not (mass_energy >= 0.0 and math.isfinite(mass_energy)):
        raise ValueError(f"mass_energy must be finite and >= 0, got {mass_energy}")


def _k_and_a(energy: float, mass_energy: float) -> tuple[float, float]:
    """Incident wave number and spinor ratio, as ``kinematics`` forms them."""
    k = math.sqrt((energy - mass_energy) * (energy + mass_energy))
    a = (
        math.sqrt((energy - mass_energy) / (energy + mass_energy))
        if mass_energy > 0.0
        else 1.0
    )
    return k, a


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
    k, a = _k_and_a(energy, mass_energy)
    if conv in (Convention.MAIN, Convention.LOWER_COMPONENT):
        kind, conv, r = LimitKind.IMPENETRABLE_MAIN, Convention.MAIN, -1.0
        force = -4.0 * (energy - mass_energy)
    elif conv is Convention.NEGATIVE_ENERGY:
        kind, r = LimitKind.IMPENETRABLE_NEGATIVE, 1.0
        force = -4.0 * (energy + mass_energy)
    else:
        raise ValueError("impenetrable limit defined for the main, lower and "
                         "negative-energy conventions only")
    return LimitSolution(kind, conv, energy, mass_energy, k, a, r, 0.0, force)


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
    k, a = _k_and_a(energy, mass_energy)
    return LimitSolution(LimitKind.EDGE_LOWER, conv, energy, mass_energy, k, a,
                         1.0, 2.0, -4.0 * (energy - mass_energy))


def nonrelativistic_limit(
    energy_nr: float, mass_energy: float, kind: LimitKind | Convention
) -> LimitSolution:
    """Nonrelativistic reduction of an impenetrable-barrier eigenstate.

    ``energy_nr`` is the kinetic energy; validity requires it to be small
    against mc².  ``kind`` is a NONREL kind or the convention it comes
    from: NONREL_MAIN (MAIN) is the hard-wall Dirichlet state 2i·sin(k x)
    with vanishing lower component; NONREL_NEGATIVE (NEGATIVE_ENERGY) is
    the Neumann state 2·cos(k x), constant beyond the wall.
    """
    conv = _NR_CONVENTIONS.get(kind, kind)
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
    return LimitSolution(kind, conv, energy_nr, mass_energy, k_nr, a_limit, r, 0.0,
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
    _, a = _k_and_a(energy, mass_energy)
    return InfiniteStepLimit(
        a=a,
        b_limit=-1.0,
        R=((a - 1.0) / (a + 1.0)) ** 2,
        T=4.0 * a / (a + 1.0) ** 2,
    )


@dataclass(frozen=True)
class ScanRow:
    delta: float
    R: float
    T: float
    v_t: float
    force: float


@dataclass(frozen=True)
class ScanResult:
    """Approach of V₀ = (E + mc²) + δ along a list of offsets δ.

    ``exponent`` is the least-squares slope of log|T| against log δ over
    the positive offsets (None if there are fewer than two); the
    impenetrable point is approached with T ∝ √δ, i.e. exponent 1/2.
    """

    rows: tuple[ScanRow, ...]
    exponent: float | None


def convergence_scan(
    energy: float,
    mass_energy: float,
    conv: Convention,
    deltas: list[float],
) -> ScanResult:
    """Evaluate R, T, v_t and the mean external force along V₀ → E + mc².

    Positive offsets approach from inside the Klein zone, negative ones
    (allowed range (−mc², 0)) from the total-reflection side.
    """
    rows = []
    for delta in deltas:
        if delta == 0.0:
            raise ValueError("offsets must be nonzero; the point itself is a limit")
        if delta < 0.0 and delta <= -mass_energy:
            raise ValueError(
                f"left-side offset must lie in (-mc2, 0), got {delta}"
            )
        setup = PhysicalSetup(
            mass_energy=mass_energy,
            step_height=(energy + mass_energy) + delta,
            energy=energy,
        )
        sol = match(kinematics(setup), conv)
        obs = coefficients(sol)
        rows.append(
            ScanRow(
                delta=delta,
                R=obs.R,
                T=obs.T,
                v_t=obs.v_t,
                force=external_force_mean(sol),
            )
        )
    positive = [(row.delta, abs(row.T)) for row in rows if row.delta > 0.0 and row.T != 0.0]
    exponent = None
    if len(positive) >= 2:
        log_d = np.log([p[0] for p in positive])
        log_t = np.log([p[1] for p in positive])
        exponent = float(np.polyfit(log_d, log_t, 1)[0])
    return ScanResult(rows=tuple(rows), exponent=exponent)
