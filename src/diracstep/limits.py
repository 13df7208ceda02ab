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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import PhysicalSetup, kinematics
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
    "nonrelativistic_limit",
    "infinite_potential_limit",
    "convergence_scan",
]


class LimitKind(Enum):
    IMPENETRABLE_MAIN = "impenetrable-main"
    IMPENETRABLE_NEGATIVE = "impenetrable-negative"
    NONREL_MAIN = "nonrel-main"
    NONREL_NEGATIVE = "nonrel-negative"


_NR_KINDS = (LimitKind.NONREL_MAIN, LimitKind.NONREL_NEGATIVE)


@dataclass(frozen=True)
class LimitSolution:
    """Closed-form eigenstate at a limit point.

    ``energy`` is the total relativistic energy E for the impenetrable
    kinds and the nonrelativistic kinetic energy for the NONREL kinds;
    ``wave_number`` is k (resp. the nonrelativistic wave number) and ``a``
    the spinor-ratio (resp. its small-a limit value).  ``force`` is the
    limiting mean of the external step force.
    """

    kind: LimitKind
    energy: float
    mass_energy: float
    wave_number: float
    a: float
    R_limit: float
    T_limit: float
    v_t_limit: float
    force: float

    def spinor_at(self, x: float) -> Spinor:
        return self.left_value_at(x) if x < 0.0 else self.right_value_at(x)

    def left_value_at(self, x: float) -> Spinor:
        """Oscillatory branch (valid for x <= 0, including the wall itself)."""
        k = self.wave_number
        if self.kind is LimitKind.IMPENETRABLE_MAIN:
            return Spinor(2j * math.sin(k * x), 2.0 * self.a * math.cos(k * x))
        if self.kind is LimitKind.IMPENETRABLE_NEGATIVE:
            return Spinor(2.0 * math.cos(k * x), 2j * self.a * math.sin(k * x))
        if self.kind is LimitKind.NONREL_MAIN:
            return Spinor(2j * math.sin(k * x), 0.0)
        return Spinor(2.0 * math.cos(k * x), 0.0)

    def right_value_at(self, x: float) -> Spinor:
        """Constant branch beyond the wall (valid for x >= 0)."""
        if self.kind is LimitKind.IMPENETRABLE_MAIN:
            return Spinor(0.0, 2.0 * self.a)
        if self.kind is LimitKind.NONREL_MAIN:
            return Spinor(0.0, 0.0)
        return Spinor(2.0, 0.0)

    def left_values(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Array counterpart of ``left_value_at``, equal to it bit for bit
        with the components as complex."""
        theta = self.wave_number * xs
        if self.kind is LimitKind.IMPENETRABLE_MAIN:
            return (
                complex_product(2j, np.sin(theta)),
                (2.0 * self.a * np.cos(theta)).astype(complex),
            )
        if self.kind is LimitKind.IMPENETRABLE_NEGATIVE:
            return (
                (2.0 * np.cos(theta)).astype(complex),
                complex_product(2j * self.a, np.sin(theta)),
            )
        zeros = np.zeros(len(xs), dtype=complex)
        if self.kind is LimitKind.NONREL_MAIN:
            return complex_product(2j, np.sin(theta)), zeros
        return (2.0 * np.cos(theta)).astype(complex), zeros

    def right_values(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Array counterpart of ``right_value_at``: the constant branch."""
        value = self.right_value_at(0.0)
        return (np.full(len(xs), complex(value.upper)),
                np.full(len(xs), complex(value.lower)))

    def nr_derivative_at_origin(self) -> complex:
        """d/dx of the nonrelativistic wavefunction at the wall (NR kinds)."""
        if self.kind is LimitKind.NONREL_MAIN:
            return 2j * self.wave_number
        if self.kind is LimitKind.NONREL_NEGATIVE:
            return 0.0
        raise ValueError(f"{self.kind.value} is not a nonrelativistic limit")


def impenetrable_limit(
    energy: float, mass_energy: float, conv: Convention = Convention.MAIN
) -> LimitSolution:
    """Exact eigenstate at the impenetrable-barrier point V₀ = E + mc².

    For the MAIN / LOWER_COMPONENT conventions the wall enforces a
    Dirichlet condition on the upper component, leaving the density at the
    wall at 4a² and the mean wall force at −4(E − mc²).  For the
    NEGATIVE_ENERGY convention the lower component vanishes instead and
    the external force limit is −4(E + mc²), which disagrees with the
    boundary quantum force of the same state.
    """
    if energy <= mass_energy:
        raise ValueError("impenetrable limit needs E > mc2")
    k = math.sqrt((energy - mass_energy) * (energy + mass_energy))
    a = (
        math.sqrt((energy - mass_energy) / (energy + mass_energy))
        if mass_energy > 0.0
        else 1.0
    )
    if conv in (Convention.MAIN, Convention.LOWER_COMPONENT):
        kind = LimitKind.IMPENETRABLE_MAIN
        force = -4.0 * (energy - mass_energy)
    elif conv is Convention.NEGATIVE_ENERGY:
        kind = LimitKind.IMPENETRABLE_NEGATIVE
        force = -4.0 * (energy + mass_energy)
    else:
        raise ValueError("impenetrable limit defined for the main, lower and "
                         "negative-energy conventions only")
    return LimitSolution(
        kind=kind,
        energy=energy,
        mass_energy=mass_energy,
        wave_number=k,
        a=a,
        R_limit=1.0,
        T_limit=0.0,
        v_t_limit=0.0,
        force=force,
    )


def nonrelativistic_limit(
    energy_nr: float, mass_energy: float, kind: LimitKind
) -> LimitSolution:
    """Nonrelativistic reduction of an impenetrable-barrier eigenstate.

    ``energy_nr`` is the kinetic energy; validity requires it to be small
    against mc².  NONREL_MAIN is the hard-wall Dirichlet state
    2i·sin(k x) with vanishing lower component; NONREL_NEGATIVE is the
    Neumann state 2·cos(k x), constant beyond the wall.
    """
    if kind not in _NR_KINDS:
        raise ValueError(f"kind must be a nonrelativistic LimitKind, got {kind}")
    if mass_energy <= 0.0:
        raise ValueError("nonrelativistic limit needs mc2 > 0")
    if energy_nr <= 0.0:
        raise ValueError("nonrelativistic kinetic energy must be > 0")
    k_nr = math.sqrt(2.0 * mass_energy * energy_nr)
    a_limit = math.sqrt(energy_nr / (2.0 * mass_energy))
    return LimitSolution(
        kind=kind,
        energy=energy_nr,
        mass_energy=mass_energy,
        wave_number=k_nr,
        a=a_limit,
        R_limit=1.0,
        T_limit=0.0,
        v_t_limit=0.0,
        force=-4.0 * energy_nr,
    )


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
    a = (
        math.sqrt((energy - mass_energy) / (energy + mass_energy))
        if mass_energy > 0.0
        else 1.0
    )
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
