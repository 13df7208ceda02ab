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
:class:`PlaneWaveSolution`, which owns the only evaluators, each written
once over ``spinor.SCALAR`` and ``spinor.ARRAY``, and the energies it solves.
``_continuity`` is the matcher, the second stage of ``table._chain``, and
``table.solve`` builds its state with ``PlaneWaveSolution._continued``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .core import Regime
from .spinor import ARRAY, SCALAR, PlaneWaveState, Spinor

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Convention",
    "PlaneWaveSolution",
    "GROWING_UNDER_EVANESCENT",
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
    shares its scalar counterpart's body, so the two agree bit for bit.

    ``mass_energy``, ``step_height`` and ``energy`` are the mc², V₀ and E the
    state solves; a nonrelativistic limit sits at V₀ = ∞ with E its kinetic
    energy.  A transmitted wave with Im q < 0 would grow as x → +∞ and is
    rejected; the decaying evanescent continuation has Im q > 0."""

    incident: PlaneWaveState
    reflected: PlaneWaveState
    transmitted: PlaneWaveState
    convention: Convention
    r: complex
    t: complex
    mass_energy: float
    step_height: float
    energy: float

    def __post_init__(self) -> None:
        if (q_t := self.transmitted.wave_number).imag < 0.0:
            raise ValueError(f"growing right-side wave rejected (Im q = {q_t.imag})")

    @classmethod
    def reflecting(cls, k, a, r, transmitted, convention, t, /, **data):
        """State with incident [1, a]·e^{ikx} and reflected r·[1, −a]·e^{−ikx}."""
        incident = PlaneWaveState(Spinor(1.0, a), k)
        reflected = PlaneWaveState(Spinor(r, -r * a), -k)
        return cls(incident, reflected, transmitted, convention, r, t, **data)

    @classmethod
    def _continued(cls, k, a, values, convention, /, **data):
        """The ``reflecting`` state of ``_continuity``'s values: t·column·e^{iq_t·x}
        beyond the step."""
        _, _, q_t, r, t, t_upper, t_lower = values
        transmitted = PlaneWaveState(Spinor(t_upper, t_lower), q_t)
        return cls.reflecting(k, a, r, transmitted, convention, t, **data)

    def spinor_at(self, x: float) -> Spinor:
        """Piecewise value: left branch for x < 0, right branch for x >= 0."""
        return self.left_value_at(x) if x < 0.0 else self.right_value_at(x)

    def left_value_at(self, x: float) -> Spinor:
        """Incident + reflected branch, also at x = 0 itself."""
        return Spinor(*self._left(SCALAR, x))

    def right_value_at(self, x: float) -> Spinor:
        return self.transmitted.value_at(x)

    def nr_derivative_at_origin(self) -> complex:
        """Left slope of the upper component at the wall, i·k·(1 − r): the
        derivative of the Schroedinger wavefunction of a nonrelativistic
        limit state, whose upper component that wavefunction is."""
        return 1j * self.incident.wave_number * (1 - self.r)

    def left_values(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``left_value_at`` at every position, as complex arrays."""
        return self._left(ARRAY, xs)

    def _left(self, xp, x):
        """The incident + reflected branch at x, on a Python number or an array."""
        (in_upper, in_lower), (re_upper, re_lower) = (
            wave._values(xp, x) for wave in (self.incident, self.reflected))
        return in_upper + re_upper, in_lower + re_lower

    def right_values(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.transmitted.values_at(xs)


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


def _continuity(xp, a, b, b_dprime, kappa, conv: Convention, evanescent: bool):
    """Solve the continuity system at x = 0 for ``conv`` on Python numbers or
    arrays (``xp`` is ``spinor.SCALAR`` or ``spinor.ARRAY``), from the
    kinematics: the transmitted column (upper, lower, q_t), r, t and
    t·(upper, lower), and whether the wave grows under the step and whether
    the system is singular.

    The 2×2 system

        [1, a] + r·[1, −a] = t·u_conv

    is solved in closed form with the transmitted column scaled to unit
    max-norm, (û, l̂) = u_conv / max|u_conv|, so the amplitudes stay finite
    even when |b| diverges near the impenetrable-barrier point:

        det = û·a + l̂,   t·max|u_conv| = 2a / det,   r = (û·a − l̂) / det.

    In the evanescent regime the oscillatory wave number continues to
    k̄ → −iκ; only the two e^{−ik̄x} conventions then decay for x → +∞.
    """
    k_t = xp.product(-1j, kappa) if evanescent else xp.complex(kappa)
    upper, lower, q_t = transmitted_column(conv, b, b_dprime, k_t)
    scale = xp.maximum(xp.magnitude(upper), xp.magnitude(lower))
    u_hat, l_hat = xp.quotient(upper, scale), xp.quotient(lower, scale)
    det = xp.product(u_hat, a) + l_hat
    t = xp.quotient(xp.complex(xp.quotient(2.0 * a, det)), scale)
    r = xp.complex(xp.quotient(xp.product(u_hat, a) - l_hat, det))
    growing = evanescent and conv in GROWING_UNDER_EVANESCENT
    values = (upper, lower, q_t, r, t, xp.product(t, upper), xp.product(t, lower))
    return values, (growing, det == 0)


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

