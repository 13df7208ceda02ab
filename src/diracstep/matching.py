"""Continuity matching at the step edge for every transmitted-wave choice.

The scattering state is

    ψ(x) = (ψ_in(x) + ψ_refl(x)) Θ(−x) + ψ_trans(x) Θ(x),

with the incident wave fixed to  [1, a]·e^{ikx}  and the reflected wave
r·[1, −a]·e^{−ikx}.  What is *not* fixed by the equation alone is the
transmitted wave: below a step in the Klein zone there are two independent
plane waves, and the literature disagrees on which one to keep.  Each
choice is a :class:`Convention`; the matcher solves the same 2×2 continuity
system

    ψ_in(0) + ψ_refl(0) = ψ_trans(0)

for (r, t) regardless of the choice, so all conventions share one code
path and the per-convention closed forms become checks, not sources.

Matched states and the closed-form ``limits`` share one state type,
:class:`PlaneWaveSolution`, which owns the only evaluators, scalar and
array.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Kinematics, Regime
from .spinor import PlaneWaveState, Side, Spinor

__all__ = [
    "Convention",
    "PlaneWaveSolution",
    "ScatteringSolution",
    "GROWING_UNDER_EVANESCENT",
    "match",
    "physical_convention",
    "transmitted_column",
]


class Convention(Enum):
    """Transmitted-wave choices below the step.

    MAIN             [1, −b]·e^{−ik̄x}: positive-energy wave whose current and
                     velocity field point right in the Klein zone even though
                     its momentum is negative.  Reflection stays ≤ 1.  Also the
                     decaying branch in the evanescent regime.
    LOWER_COMPONENT  [b″, 1]·e^{−ik̄x}: same physical wave as MAIN, but built
                     from the lower component and parameterized so that all
                     amplitudes stay finite at the impenetrable-barrier point.
    TRADITIONAL      [1, b]·e^{+ik̄x}: the historical choice.  In the Klein
                     zone its current points left, which is what produces the
                     paradoxical R > 1 bookkeeping.  It is the physical
                     right-moving wave in the ordinary transmission regime.
    NEGATIVE_ENERGY  [−b, 1]·e^{+ik̄x}: charge conjugate of MAIN; a
                     negative-energy wave that is not a stationary state of
                     the scattering Hamiltonian at energy E.
    """

    MAIN = "main"
    LOWER_COMPONENT = "lower"
    TRADITIONAL = "traditional"
    NEGATIVE_ENERGY = "negative"


@dataclass(frozen=True)
class PlaneWaveSolution:
    """Incident + reflected plane waves for x < 0, one transmitted wave for
    x >= 0, with amplitudes r and t in the parameterization of
    ``convention``: every matched and limit state.  Each array evaluator
    equals its scalar counterpart bit for bit."""

    incident: PlaneWaveState
    reflected: PlaneWaveState
    transmitted: PlaneWaveState
    convention: Convention
    r: complex
    t: complex

    @classmethod
    def reflecting(cls, k, a, r, transmitted, convention, t, /, **data):
        """State with incident [1, a]·e^{ikx} and reflected r·[1, −a]·e^{−ikx}."""
        incident = PlaneWaveState(Spinor(1.0, a), k, Side.LEFT)
        reflected = PlaneWaveState(Spinor(r, -r * a), -k, Side.LEFT)
        return cls(incident, reflected, transmitted, convention, r, t, **data)

    def spinor_at(self, x: float) -> Spinor:
        """Piecewise value: left branch for x < 0, right branch for x >= 0."""
        return self.left_value_at(x) if x < 0.0 else self.right_value_at(x)

    def left_value_at(self, x: float) -> Spinor:
        """Incident + reflected branch, also at x = 0 itself."""
        inc = self.incident.value_at(x)
        ref = self.reflected.value_at(x)
        return Spinor(inc.upper + ref.upper, inc.lower + ref.lower)

    def right_value_at(self, x: float) -> Spinor:
        return self.transmitted.value_at(x)

    def left_values(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``left_value_at`` at every position, as complex arrays."""
        in_upper, in_lower = self.incident.values_at(xs)
        re_upper, re_lower = self.reflected.values_at(xs)
        return in_upper + re_upper, in_lower + re_lower

    def right_values(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.transmitted.values_at(xs)


@dataclass(frozen=True)
class ScatteringSolution(PlaneWaveSolution):
    """Matched solution of a setup, continuous at x = 0."""

    kinematics: Kinematics

    @property
    def setup(self):
        return self.kinematics.setup


# The e^{+ik̄x} waves, which grow for x → +∞ once k̄ → −iκ under an
# evanescent step.
GROWING_UNDER_EVANESCENT = (Convention.TRADITIONAL, Convention.NEGATIVE_ENERGY)


def transmitted_column(conv: Convention, b, b_dprime, k_t):
    """Unit-coefficient transmitted spinor (upper, lower) of ``conv`` and its
    wave number q_t, from b, b″ and k_t = k̄ (−iκ in the evanescent band);
    on scalars and arrays alike."""
    if conv is Convention.MAIN:
        return 1.0, -b, -k_t
    if conv is Convention.LOWER_COMPONENT:
        return b_dprime, 1.0, -k_t
    if conv is Convention.TRADITIONAL:
        return 1.0, b, k_t
    return -b, 1.0, k_t


def _transmitted_basis(kin: Kinematics, conv: Convention) -> tuple[Spinor, complex]:
    """Unit-coefficient transmitted amplitude and its wave number.

    In the evanescent regime the oscillatory wave number continues to
    k̄ → −iκ; only the two e^{−ik̄x} conventions then decay for x → +∞.
    """
    if kin.regime is Regime.EVANESCENT:
        k_t = -1j * kin.kbar_or_kappa
        if conv in GROWING_UNDER_EVANESCENT:
            raise ValueError(
                f"{conv.value!r} transmitted wave grows under the step in the "
                "evanescent regime"
            )
    else:
        k_t = complex(kin.kbar_or_kappa)
    upper, lower, q_t = transmitted_column(conv, kin.b, kin.b_dprime, k_t)
    return Spinor(upper, lower), q_t


def physical_convention(regime: Regime) -> Convention:
    """Transmitted-wave choice with outgoing (or decaying) current.

    Below the step in the Klein zone the group velocity is opposite to the
    momentum, so the physical right-moving wave is the MAIN one; in the
    ordinary transmission regime it is the TRADITIONAL one.
    """
    if regime is Regime.TRANSMISSION:
        return Convention.TRADITIONAL
    if regime in (Regime.KLEIN_ZONE, Regime.EVANESCENT):
        return Convention.MAIN
    raise ValueError(f"no open-regime convention at {regime.value}")


def match(kin: Kinematics, conv: Convention) -> ScatteringSolution:
    """Solve the continuity system at x = 0 for the chosen convention.

    The 2×2 system

        [1, a] + r·[1, −a] = t·u_conv

    is solved in closed form with the transmitted column scaled to unit
    max-norm, (û, l̂) = u_conv / max|u_conv|, so the amplitudes stay finite
    even when |b| diverges near the impenetrable-barrier point:

        det = û·a + l̂,   t·max|u_conv| = 2a / det,   r = (û·a − l̂) / det.
    """
    u_t, q_t = _transmitted_basis(kin, conv)
    scale = max(abs(u_t.upper), abs(u_t.lower))
    u_hat, l_hat = u_t.upper / scale, u_t.lower / scale
    det = u_hat * kin.a + l_hat
    if det == 0:
        # Possible only at degenerate corners (e.g. the TRADITIONAL wave for
        # a massless particle, where it is parallel to the reflected wave).
        raise ValueError(
            f"continuity system singular for {conv.value!r} at this setup"
        )
    t_scaled = complex(2.0 * kin.a / det)
    r = complex((u_hat * kin.a - l_hat) / det)
    t = t_scaled / scale
    transmitted = PlaneWaveState(
        Spinor(t * u_t.upper, t * u_t.lower), q_t, Side.RIGHT
    )
    return ScatteringSolution.reflecting(
        kin.k, kin.a, r, transmitted, conv, t, kinematics=kin
    )
