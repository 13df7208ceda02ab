"""Independent numerical scattering oracle for the step problem.

The sharp step is regularized to the smooth profile

    V(x) = V₀ · (1 + tanh(2x / w)) / 2,

which converges to the step pointwise as the transition width w → 0, and
the stationary Dirac equation is solved as the first-order system

    ψ′(x) = A(x) ψ(x),   A(x) = (i/ħc) σₓ (E − V(x) − mc² σ_z),

from right to left, starting from a *pure transmitted wave*.  That makes
the transmitted-wave convention an explicit boundary condition: imposing
the main convention reproduces R ≤ 1, while imposing the traditional one
reproduces R > 1 in the Klein zone, so the paradox is demonstrably a
boundary-condition choice and not a property of the equation.

Beyond |x| = 10w the profile equals 0 or V₀ to within V₀·e⁻⁴⁰, below double
precision, so there the solution *is* the free plane wave and only the
transition region [−10w, 10w] is integrated.  It is cut into n equal cells,
each propagated by the fourth-order Magnus step with two Gauss points
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151):

    Ω = (h/2)(A₁ + A₂) + (√3 h²/12)[A₂, A₁],
    exp Ω = cosh s · I + (sinh s / s) · Ω,   s² = −det Ω,

which holds because Ω is traceless.  n doubles until the change between the
n- and 2n-cell results, a Richardson estimate of the error, meets the
tolerance, so the cost depends on w times the wave numbers and on the
tolerance but not on the distance to a regime edge.

The oracle never touches the closed-form amplitudes; agreement between its
(R, T) and the matcher's is a genuine two-route check.  Smoothing biases
the reflection away from the sharp-step value by a relative
(π²/12)·k·k̄·w² + O(w⁴), so comparisons must either keep w·k small or
budget for that term.

The negative-energy convention is excluded by design: it is not a
stationary state at energy E, so no boundary condition of this ODE system
can represent it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import Kinematics, PhysicalSetup, Regime, kinematics
from .matching import Convention, match
from .observables import coefficients

__all__ = ["SmoothStep", "OracleResult", "integrate_scattering", "sharp_limit_study"]

_ORACLE_CONVENTIONS = (Convention.MAIN, Convention.TRADITIONAL)
# The transition region is [−10w, 10w]: 1 − tanh(20) ≈ 8.5e-18.
_FLAT_BEYOND = 10.0
_FIRST_CELLS = 8
_MAX_CELLS = 2**16
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


@dataclass(frozen=True)
class SmoothStep:
    """tanh regularization of the sharp step, with transition width w."""

    height: float
    width: float

    def __post_init__(self) -> None:
        if not (self.height > 0.0 and self.width > 0.0):
            raise ValueError("step height and width must be > 0")

    def profile(self, x):
        return self.height * (1.0 + np.tanh(2.0 * x / self.width)) / 2.0


@dataclass(frozen=True)
class OracleResult:
    """Scattering data extracted from one integration.

    ``integration_error_estimate`` is the largest of three defects: the
    Richardson estimate of the accepted pass (its change against the pass
    with half as many cells, over 15, relative to the incident amplitude),
    the current-conservation defect at every cell boundary, and |R + T − 1|.
    The Magnus step conserves the current exactly, so the last two measure
    rounding, and the first measures truncation.  ``n_steps`` is the number
    of Magnus cells in the accepted pass.
    """

    r_num: complex
    t_num: complex
    R_num: float
    T_num: float
    integration_error_estimate: float
    width: float
    n_steps: int


def _transmitted_start(kin: Kinematics, conv: Convention) -> tuple[np.ndarray, complex]:
    """Unit transmitted amplitude and its wave number for the right boundary."""
    if kin.regime is Regime.EVANESCENT:
        if conv is not Convention.MAIN:
            raise ValueError(
                "evanescent regime: only the decaying (main) transmitted wave "
                "is admissible"
            )
        q_t = 1j * kin.kbar_or_kappa
        amp = np.array([1.0, -kin.b], dtype=complex)
    elif conv is Convention.MAIN:
        q_t = complex(-kin.kbar_or_kappa)
        amp = np.array([1.0, -kin.b], dtype=complex)
    else:
        q_t = complex(kin.kbar_or_kappa)
        amp = np.array([1.0, kin.b], dtype=complex)
    return amp, q_t


def _magnus_cells(setup: PhysicalSetup, step: SmoothStep, n: int) -> np.ndarray:
    """Propagators of n equal cells from x = 10w to −10w, in the order they act.

    With A = i[[0, p], [q, 0]], p = (E − V + mc²)/ħc and q = (E − V − mc²)/ħc,
    the commutator is [A₂, A₁] = (p₁q₂ − p₂q₁) σ_z, so every Ω has the form
    [[γ, iα], [iβ, −γ]] with α, β, γ real and s² = γ² − αβ.  Each
    propagator therefore has the form [[a, ib], [ic, d]] with a, b, c, d
    real, and is stored as the column (a, b, c, d) of a (4, n) array.
    """
    half = _FLAT_BEYOND * step.width
    h = -2.0 * half / n
    starts = half + h * np.arange(n)
    e, m, hc = setup.energy, setup.mass_energy, setup.hbar_c
    u1 = (e - step.profile(starts + _GAUSS[0] * h)) / hc
    u2 = (e - step.profile(starts + _GAUSS[1] * h)) / hc
    mu = m / hc
    alpha = 0.5 * h * (u1 + u2 + 2.0 * mu)
    beta = 0.5 * h * (u1 + u2 - 2.0 * mu)
    # p₁q₂ − p₂q₁ = 2(m/ħc)(u₂ − u₁)
    gamma = (math.sqrt(3.0) / 12.0) * h * h * 2.0 * mu * (u2 - u1)
    s2 = gamma * gamma - alpha * beta
    s = np.sqrt(s2.astype(complex))
    # 1 + s²/6 equals sinh(s)/s to double precision for |s²| < 1e-8.
    small = np.abs(s2) < 1e-8
    s_safe = np.where(small, 1.0, s)
    # sinh(s)/s and cosh(s) are real: s is real or purely imaginary.
    sinhc = np.where(small, 1.0 + s2 / 6.0, (np.sinh(s_safe) / s_safe).real)
    cosh = np.cosh(s).real
    return np.array(
        [cosh + sinhc * gamma, sinhc * alpha, sinhc * beta, cosh - sinhc * gamma]
    )


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Products ``later @ earlier`` of propagators stored as (a, b, c, d)."""
    a1, b1, c1, d1 = later
    a2, b2, c2, d2 = earlier
    return np.array(
        [a1 * a2 - b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, d1 * d2 - c1 * b2]
    )


def _apply(props: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """[[a, ib], [ic, d]] · ψ for one propagator or a (4, n) stack of them."""
    a, b, c, d = props
    return np.array([a * psi[0] + 1j * b * psi[1], 1j * c * psi[0] + d * psi[1]])


def _chain(cells: np.ndarray) -> np.ndarray:
    """Product of a power-of-two count of cells, later cells on the left,
    by pairwise tree reduction."""
    while cells.shape[1] > 1:
        cells = _compose(cells[:, 1::2], cells[:, 0::2])
    return cells[:, 0]


def _prefix_chain(cells: np.ndarray) -> np.ndarray:
    """All prefix products M_i ··· M_1, by a log-depth (Hillis-Steele) scan."""
    prefix = cells.copy()
    span = 1
    while span < prefix.shape[1]:
        prefix[:, span:] = _compose(prefix[:, span:], prefix[:, :-span])
        span *= 2
    return prefix


def integrate_scattering(
    setup: PhysicalSetup,
    step: SmoothStep,
    conv: Convention = Convention.MAIN,
    domain_half_width: float | None = None,
    tol: float = 1e-10,
) -> OracleResult:
    """Integrate the smoothed-step problem and extract r, t, R, T.

    A pure transmitted wave of the chosen convention is imposed at
    x = +10w and propagated by Magnus cells to x = −10w, doubling the cell
    count until the Richardson estimate is at most ``tol``; the arrival
    value is decomposed onto the incident and reflected free waves.  Out to
    x = ±L the solution is a sum of free plane waves, so extending the
    domain would only shift the phase reference, and r and t are referred
    to x = 0: L does not change the result.  It is still checked to be at
    least 10·max(1/k, 1/k̄, w), its default.  Raises RuntimeError if the
    estimate stays above ``tol`` at the internal cell cap.
    """
    if conv not in _ORACLE_CONVENTIONS:
        raise ValueError(
            "oracle boundary conditions exist for the main and traditional "
            "conventions only (the negative-energy wave is not a stationary "
            "state at this energy)"
        )
    if not (1e-13 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-13, 1e-6], got {tol}")
    if abs(step.height - setup.step_height) > 1e-12 * setup.step_height:
        raise ValueError("smooth step height differs from the setup's step height")
    kin = kinematics(setup)
    min_half_width = 10.0 * max(1.0 / kin.k, 1.0 / kin.kbar_or_kappa, step.width)
    if domain_half_width is not None and domain_half_width < min_half_width:
        raise ValueError(
            f"domain half width {domain_half_width} below required {min_half_width}"
        )

    amp, q_t = _transmitted_start(kin, conv)
    a = kin.a
    # rows: incident and reflected amplitudes of the free waves at x = −10w
    to_waves = np.array([[a, 1.0], [a, -1.0]]) / (2.0 * a)

    def waves(cells: np.ndarray) -> np.ndarray:
        arrival = _apply(_chain(cells), amp)
        coeffs = to_waves @ arrival
        if abs(coeffs[0]) < 1e-8 * math.hypot(abs(arrival[0]), abs(arrival[1])):
            raise RuntimeError("decomposition ill-conditioned: no incident content")
        return coeffs

    n = _FIRST_CELLS
    coarse = waves(_magnus_cells(setup, step, n))
    while True:
        n *= 2
        cells = _magnus_cells(setup, step, n)
        fine = waves(cells)
        richardson = float(np.max(np.abs(fine - coarse)) / (15.0 * abs(fine[0])))
        if richardson <= tol:
            break
        if n >= _MAX_CELLS:
            raise RuntimeError(
                f"Richardson estimate {richardson:.2e} above tol {tol:.0e} "
                f"at the cap of {_MAX_CELLS} cells"
            )
        coarse = fine
    coeff_in, coeff_refl = complex(fine[0]), complex(fine[1])

    # Current conservation at every cell boundary, normalized by the local
    # density so exponentially growing evanescent solutions stay comparable.
    phi, chi = _apply(_prefix_chain(cells), amp)
    j_path = 2.0 * np.real(np.conj(phi) * chi)
    rho_path = np.abs(phi) ** 2 + np.abs(chi) ** 2
    j_ref = 2.0 * (amp[0].conjugate() * amp[1]).real
    conservation = float(
        np.max(np.abs(j_path - j_ref) / np.maximum(abs(j_ref), rho_path))
    )

    half = _FLAT_BEYOND * step.width
    r_num = (coeff_refl / coeff_in) * cmath.exp(-2j * kin.k * half)
    # log-form avoids overflow of exp(kappa*x) for strongly evanescent runs
    t_num = cmath.exp(-1j * (q_t + kin.k) * half - cmath.log(coeff_in))
    R_num = abs(coeff_refl / coeff_in) ** 2
    j_in = 2.0 * a * abs(coeff_in) ** 2
    if kin.regime is Regime.EVANESCENT:
        T_num = 0.0
        closure = 0.0
    else:
        T_num = float(j_ref / j_in)
        closure = abs(R_num + T_num - 1.0)
    return OracleResult(
        r_num=r_num,
        t_num=t_num,
        R_num=R_num,
        T_num=T_num,
        integration_error_estimate=max(richardson, conservation, closure),
        width=step.width,
        n_steps=n,
    )


def sharp_limit_study(
    setup: PhysicalSetup,
    conv: Convention,
    widths: list[float],
    tol: float = 1e-10,
) -> list[tuple[float, float]]:
    """|R_num(w) − R_closed| along a decreasing sequence of widths.

    Demonstrates convergence of the smooth profile to the sharp step; for
    tanh smoothing the error column shrinks like w².
    """
    kin = kinematics(setup)
    k_t = kin.kbar_or_kappa
    if any(w >= 1.0 / k_t for w in widths):
        raise ValueError("all widths must be below the transmitted wavelength 1/kbar")
    if any(w2 >= w1 for w1, w2 in zip(widths, widths[1:])):
        raise ValueError("widths must be strictly decreasing")
    r_closed = coefficients(match(kin, conv)).R
    rows = []
    for w in widths:
        res = integrate_scattering(setup, SmoothStep(setup.step_height, w), conv, tol=tol)
        rows.append((w, abs(res.R_num - r_closed)))
    return rows
