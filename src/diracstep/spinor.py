"""Two-component spinor algebra for the 1D Dirac equation.

The 1D Dirac Hamiltonian used throughout is

    H = −i σₓ d/dx + mc² σ_z + V(x)   (ħ = c = 1),

i.e. the representation with α = σₓ and β = σ_z.  The upper spinor
component is the large component, the lower the small one.  States are
plane waves  amplitude · e^{iqx}  with a possibly complex wave number q;
an imaginary part of q encodes evanescent decay.

``SCALAR`` and ``ARRAY`` are the two namespaces of arithmetic that the
open-regime chain runs on: Python numbers, and numpy arrays rounded as
CPython rounds.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

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
        return Spinor(*self._values(SCALAR, x))

    def values_at(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Array counterpart of ``value_at``: the upper and lower components
        at every position."""
        return self._values(ARRAY, xs)

    def _values(self, xp, x):
        """Both components at x, on a Python number or an array (``xp``)."""
        phase = xp.exp(xp.product(1j * self.wave_number, x))
        return xp.product(phase, self.amplitude.upper), xp.product(phase, self.amplitude.lower)


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


def complex_quotient(z, w) -> np.ndarray:
    """Element-wise z / w, rounded exactly as CPython's ``_Py_c_quot``.

    Operands as in ``complex_product``.  Like CPython it divides through by
    the larger part of w, in CPython's order of real operations; numpy's own
    complex division rounds differently on a large share of operands.  A
    zero divisor, where CPython raises ZeroDivisionError, gives NaN parts.
    """
    z_re, z_im, w_re, w_im = np.real(z), np.imag(z), np.real(w), np.imag(w)
    by_real = np.abs(w_re) >= np.abs(w_im)
    big, small = np.where(by_real, w_re, w_im), np.where(by_real, w_im, w_re)
    out = np.empty(np.broadcast(z, w).shape, dtype=complex)
    with np.errstate(all="ignore"):
        ratio = small / big
        denom = big + small * ratio
        out.real = np.where(by_real, z_re + z_im * ratio, z_re * ratio + z_im) / denom
        out.imag = np.where(by_real, z_im - z_re * ratio, z_im * ratio - z_re) / denom
    return out


def product(x, y):
    """x * y as CPython rounds it; a product of floats stays real."""
    return complex_product(x, y) if np.iscomplexobj(x) or np.iscomplexobj(y) else x * y


def quotient(x, y):
    """x / y as CPython rounds it; a quotient of floats stays real."""
    return complex_quotient(x, y) if np.iscomplexobj(x) or np.iscomplexobj(y) else x / y


def magnitude(x):
    """abs(): CPython's complex abs is hypot(re, im)."""
    return np.hypot(x.real, x.imag) if np.iscomplexobj(x) else np.abs(x)


def densities(upper, lower):
    """``density`` of arrays of components; np.float_power(x, 2) rounds as
    Python's x ** 2."""
    return np.float_power(magnitude(upper), 2.0) + np.float_power(magnitude(lower), 2.0)


def currents(upper, lower):
    """``current`` of arrays of components."""
    return 2.0 * product(np.conj(upper), lower).real


def _quotient(x, y):
    """x / y, with IEEE's ±inf or NaN (NaN parts for a complex divisor, as
    ``complex_quotient`` gives) where CPython raises on a zero divisor."""
    try:
        return x / y
    except ZeroDivisionError:
        if complex in (type(x), type(y)):
            return complex(math.nan, math.nan)
        return x * math.copysign(math.inf, y)


# The open-regime chain's operations on Python numbers, and on numpy arrays
# rounded as CPython rounds.
SCALAR = SimpleNamespace(
    sqrt=math.sqrt, magnitude=abs, product=operator.mul, quotient=_quotient, complex=complex,
    maximum=max, exp=cmath.exp, where=lambda c, x, y: x if c else y,
    select=lambda hits, values, default: values[hits.index(True)] if True in hits else default,
    nonfinite=lambda x: not cmath.isfinite(x),
    densities=lambda upper, lower: abs(upper) ** 2 + abs(lower) ** 2,
    currents=lambda upper, lower: 2.0 * (upper.conjugate() * lower).real)
ARRAY = SimpleNamespace(
    sqrt=np.sqrt, magnitude=magnitude, product=product, quotient=quotient,
    complex=lambda x: np.asarray(x, dtype=complex), maximum=np.maximum, exp=np.exp,
    where=np.where, select=np.select, nonfinite=lambda x: ~np.isfinite(x),
    densities=densities, currents=currents)


def density(s: Spinor) -> float:
    """Probability density |upper|² + |lower|²."""
    return SCALAR.densities(s.upper, s.lower)


def current(s: Spinor) -> float:
    """Probability current density 2c·Re(upper* · lower), with c = 1."""
    return SCALAR.currents(s.upper, s.lower)


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
