"""Two-component spinor algebra for the 1D Dirac equation.

The 1D Dirac Hamiltonian used throughout is

    H = −i σₓ d/dx + mc² σ_z + V(x)   (ħ = c = 1),

i.e. the representation with α = σₓ and β = σ_z.  The upper spinor
component is the large component, the lower the small one.  States are
plane waves  amplitude · e^{iqx}  with a possibly complex wave number q;
an imaginary part of q encodes evanescent decay.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Spinor",
    "Side",
    "PlaneWaveState",
    "density",
    "current",
    "apply_hamiltonian",
    "charge_conjugate",
]

@dataclass(frozen=True)
class Spinor:
    """Two complex amplitudes (upper = large component, lower = small)."""

    upper: complex
    lower: complex

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.upper) and cmath.isfinite(self.lower)):
            raise ValueError("spinor components must be finite")

    def scaled(self, factor: complex) -> "Spinor":
        return Spinor(factor * self.upper, factor * self.lower)


class Side(Enum):
    """Which half line a plane wave lives on."""

    LEFT = "left"    # x <= 0
    RIGHT = "right"  # x >= 0


@dataclass(frozen=True)
class PlaneWaveState:
    """Plane wave  amplitude · e^{iqx}  restricted to one side of the step.

    A right-side wave with Im(q) < 0 would grow as x → +∞ and is rejected
    at construction; the decaying evanescent continuation has Im(q) > 0.
    """

    amplitude: Spinor
    wave_number: complex
    side: Side

    def __post_init__(self) -> None:
        if self.side is Side.RIGHT and self.wave_number.imag < 0.0:
            raise ValueError(
                f"growing right-side wave rejected (Im q = {self.wave_number.imag})"
            )

    def value_at(self, x: float) -> Spinor:
        phase = cmath.exp(1j * self.wave_number * x)
        return self.amplitude.scaled(phase)

    def values_at(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Array counterpart of ``value_at``: the upper and lower components
        at every position, equal to ``value_at`` bit for bit."""
        phase = np.exp(complex_product(1j * self.wave_number, xs))
        return (
            complex_product(phase, self.amplitude.upper),
            complex_product(phase, self.amplitude.lower),
        )


def complex_product(z, w) -> np.ndarray:
    """Element-wise z·w, rounded exactly as CPython rounds a complex product.

    Either factor may be a Python number or a real or complex array; a real
    factor counts as having imaginary part +0.0, as in CPython.  numpy's
    own complex multiply may fuse or reorder the four real products and
    then differs in the last bit, so the array evaluators form products
    here to stay bit-identical to their scalar counterparts.
    """
    out = np.empty(np.broadcast(z, w).shape, dtype=complex)
    out.real = z.real * w.real - z.imag * w.imag
    out.imag = z.real * w.imag + z.imag * w.real
    return out


def density(s: Spinor) -> float:
    """Probability density |upper|² + |lower|²."""
    return abs(s.upper) ** 2 + abs(s.lower) ** 2


def current(s: Spinor) -> float:
    """Probability current density 2c·Re(upper* · lower), with c = 1."""
    return 2.0 * (s.upper.conjugate() * s.lower).real


def apply_hamiltonian(
    pw: PlaneWaveState,
    potential_value: float,
    mass_energy: float,
) -> Spinor:
    """Amplitude of H ψ for a plane wave under a constant potential.

    On  amplitude · e^{iqx}  the derivative acts analytically (d/dx → iq),
    so H reduces to the matrix  q·σₓ + mc²·σ_z + V·1  on the amplitude.
    The result shares the plane wave's e^{iqx} factor; comparing it with
    eigenvalue · amplitude certifies stationary solutions exactly.
    """
    q = pw.wave_number
    phi, chi = pw.amplitude.upper, pw.amplitude.lower
    return Spinor(
        q * chi + (mass_energy + potential_value) * phi,
        q * phi + (potential_value - mass_energy) * chi,
    )


def charge_conjugate(pw: PlaneWaveState) -> PlaneWaveState:
    """Charge conjugation  ψ ↦ σₓ ψ*  of a plane wave.

    Maps  amplitude·e^{iqx}  to  (σₓ amplitude*)·e^{−iq*x}.  The overall
    phase is fixed to +1 (the conjugation matrix is exactly σₓ), making the
    operation a strict involution.  A positive-energy state in potential V
    maps to a negative-energy state in −V.
    """
    amp = pw.amplitude
    conjugated = Spinor(amp.lower.conjugate(), amp.upper.conjugate())
    return PlaneWaveState(
        amplitude=conjugated,
        wave_number=-pw.wave_number.conjugate(),
        side=pw.side,
    )
