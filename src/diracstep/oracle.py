"""Independent numerical scattering oracle for the step problem.

The sharp step is regularized to the smooth profile

    V(x) = V₀ · (1 + tanh(2x / w)) / 2,

which converges to the step pointwise as the transition width w → 0, and
the stationary Dirac equation is solved as the first-order system

    ψ′(x) = A(x) ψ(x),   A(x) = i σₓ (E − V(x) − mc² σ_z),

from right to left, starting from a *pure transmitted wave*.  That makes
the transmitted-wave convention an explicit boundary condition: imposing
the main convention reproduces R ≤ 1, while imposing the traditional one
reproduces R > 1 in the Klein zone, so the paradox is demonstrably a
boundary-condition choice and not a property of the equation.

Beyond |x| = 10w the profile equals 0 or V₀ to within V₀·e⁻⁴⁰, below double
precision, so there the solution *is* the free plane wave and only the
transition region [−10w, 10w] is integrated.  It is cut into n cells with
nodes x = 10w·sinh(c·u)/sinh(c), u uniform from 1 to −1: fine near x = 0,
where V varies, and coarse in the flat tails, where a cell is exact.  Each
cell is propagated by the fourth-order Magnus step with two Gauss points
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151):

    Ω = (h/2)(A₁ + A₂) + (√3 h²/12)[A₂, A₁],
    exp Ω = cosh s · I + (sinh s / s) · Ω,   s² = −det Ω,

which holds because Ω is traceless.  n starts from a power of two sized
from w·(V₀ + E + mc²) and the tolerance, and doubles until the change
between the n- and 2n-cell results, a Richardson estimate of the error,
meets the tolerance.  The cost therefore depends on w times the wave
numbers and on the tolerance but not on the distance to a regime edge.
An estimate that rises from one doubling to the next has met the rounding
floor, which √R sets when R ≫ 1, and is refused there.

On the nodes 2x/w = 20·sinh(c·u)/sinh(c) does not depend on w, so the tanh
step at every Gauss point is cached per set of counts; a solve scales rows.
The first rung evaluates the cells of 4n, 2n and n at once and multiplies
them in one pairwise tree: the passes lie one after another, each at a
multiple of its own count, so one batched product per level pairs cells of
one pass only.  Every product has the operands it has in a tree of its own
pass, so every result is bit for bit that of one evaluation per pass under
the same cell formula.

The oracle never touches the closed-form amplitudes.  The tanh step is
exactly solvable (Sauter), so ``sauter_log_coefficients`` gives the exact R
and T it should reach at any width, and at w = 0 the sharp-step values of
the matcher.

The negative-energy convention is excluded by design: it is not a
stationary state at energy E, so no boundary condition of this ODE system
can represent it.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (GROWING, KBAR_ZERO, EdgePointError, PhysicalSetup, Regime, _kinematics,
                   classify_regime, refusal)
from .matching import Convention, _continuity
from .spinor import SCALAR

__all__ = ["SmoothStep", "OracleResult", "integrate_scattering", "sauter_log_coefficients"]

_ORACLE_CONVENTIONS = (Convention.MAIN, Convention.TRADITIONAL)
# The transition region is [−10w, 10w]: 1 − tanh(20) ≈ 8.5e-18.
_FLAT_BEYOND = 10.0
# c of the cell nodes: cells near x = 0 are c / sinh(c) ≈ 0.3 times as wide
# as uniform cells, those at ±10w c / tanh(c) ≈ 3 times.
_GRADING = 3.0
_MIN_CELLS = 8
_MAX_CELLS = 2**16
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_GAUSS_COLUMN = np.array(_GAUSS)[:, np.newaxis]


@dataclass(frozen=True)
class SmoothStep:
    """tanh regularization of the sharp step, with transition width w."""

    height: float
    width: float

    def __post_init__(self) -> None:
        for name, value in (("height", self.height), ("width", self.width)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"step {name} must be finite and > 0, got {value}")

    def profile(self, x):
        return self.height * _rise(2.0 * x / self.width)


def _rise(z):
    """(1 + tanh z) / 2, the step's profile in units of its height at z = 2x/w."""
    return (1.0 + np.tanh(z)) / 2.0


@dataclass(frozen=True)
class OracleResult:
    """Scattering data extracted from one integration.

    ``integration_error_estimate`` is the largest of three defects: the
    Richardson estimate of the accepted pass (its change against the pass
    with half as many cells, over 15, relative to the incident amplitude),
    the current-conservation defect at every cell boundary, and |R + T − 1|.
    The Magnus step conserves the current exactly, so the last two measure
    rounding, and the first measures truncation.  R squares the amplitudes
    whose change the estimate measures, so R's relative error can reach
    about twice the estimate.  ``n_steps`` is the number of Magnus cells in
    the accepted pass.
    """

    r_num: complex
    t_num: complex
    R_num: float
    T_num: float
    integration_error_estimate: float
    width: float
    n_steps: int


@functools.cache
def _grid(counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Rows Δs, Δs·(P₁ + P₂) and Δs²·(P₂ − P₁) of passes of ``counts`` cells
    that lie one after another, and the index of each pass's first cell.  With
    s = sinh(c·u) at the nodes x = 10w·s / sinh(c), z = (20 / sinh c)·s is 2x/w
    at every width, and P = (1 + tanh z)/2 at the Gauss points is V / V₀.  The
    counts are powers of two up to the cap: at most 24 entries, about 11 MB."""
    # n is a power of two, so u runs exactly from 1 to −1 and the u of fewer
    # cells are the same doubles as every (top/n)-th u of the most cells.
    top = max(counts)
    grid = np.sinh(_GRADING * (1.0 - (2.0 / top) * np.arange(top + 1)))
    left = np.concatenate([grid[: -1 : top // n] for n in counts])
    ds = np.concatenate([grid[top // n :: top // n] for n in counts]) - left
    p1, p2 = _rise((2.0 * _FLAT_BEYOND / math.sinh(_GRADING)) * (left + _GAUSS_COLUMN * ds))
    rows = np.array([ds, ds * (p1 + p2), ds * ds * (p2 - p1)])
    heads = np.array([0, *itertools.accumulate(counts[:-1])])
    rows.flags.writeable = heads.flags.writeable = False
    return rows, heads


def _magnus_cells(setup: PhysicalSetup, step: SmoothStep, counts: list[int]) -> np.ndarray:
    """Propagators of n graded cells from x = 10w to −10w, in the order they
    act, for every power-of-two n in ``counts``, from one evaluation, one
    pass after another in one (N, 2, 2) array.

    With A = i[[0, p], [q, 0]], p = E − V + mc² and q = E − V − mc²,
    the commutator is [A₂, A₁] = (p₁q₂ − p₂q₁) σ_z, so every Ω has the form
    [[γ, iα], [iβ, −γ]] with α, β, γ real and s² = γ² − αβ.  Each
    propagator is then [[a, ib], [ic, d]] = S·[[a, −b], [c, d]]·S⁻¹ with
    a, b, c, d real and S = diag(1, i); the real matrices are returned, and
    their products are the real forms of products.
    """
    (ds, dsp, ds2dp), _ = _grid(tuple(counts))
    m, e, v0 = setup.mass_energy, setup.energy, step.height
    # h = c·Δs and V = V₀·P, so −α = (h/2)(V₁ + V₂) − h(E + mc²) and
    # β = h(E − mc²) − (h/2)(V₁ + V₂).
    c = _FLAT_BEYOND * step.width / math.sinh(_GRADING)
    half_v = (0.5 * c * v0) * dsp
    minus_alpha = half_v - (c * (e + m)) * ds
    beta = (c * (e - m)) * ds - half_v
    # p₁q₂ − p₂q₁ = 2mc²(V₁ − V₂); m·c·c·V₀ in turn never forms c², and is 0 at mc² = 0.
    gamma = (-math.sqrt(3.0) / 6.0 * m * c * c * v0) * ds2dp
    s2 = gamma * gamma + minus_alpha * beta
    # s is real for s² > 0 and imaginary for s² < 0, so cosh s and sinh(s)/s
    # are cosh and sinh(r)/r, or cos and sin(r)/r, of r = |s|.
    r = np.sqrt(np.abs(s2))
    grow = s2 > 0.0
    cosh = np.cosh(r, out=np.cos(r), where=grow)
    sinhc = np.divide(
        np.sinh(r, out=np.sin(r), where=grow), r, out=np.ones(len(r)), where=r > 0.0
    )
    sg = sinhc * gamma
    cells = np.empty((len(r), 2, 2))
    np.add(cosh, sg, out=cells[:, 0, 0])
    np.multiply(sinhc, minus_alpha, out=cells[:, 0, 1])
    np.multiply(sinhc, beta, out=cells[:, 1, 0])
    np.subtract(cosh, sg, out=cells[:, 1, 1])
    return cells


def _chain(cells: np.ndarray) -> list[np.ndarray]:
    """Pairwise products of the passes of power-of-two counts of cells in
    ``cells``, one after another in descending order of count, later cells
    on the left, level by level.  Each pass starts at a multiple of its
    count, so one product per level pairs cells of one pass only; a pass
    down to one matrix is the last entry of its level and leaves the tree."""
    levels = [cells]
    while len(cells) > 1:
        upper = cells[1::2]
        cells = upper @ cells[0::2][: len(upper)]
        levels.append(cells)
    return levels


def _prefix_chain(levels: list[np.ndarray], head: int, n: int) -> np.ndarray:
    """All prefix products M_i ··· M_1 of the pass of n cells from ``head``
    on, from the levels of ``_chain``, by a down-sweep that takes one
    product per level.  The products of 2^d cells each are every 2^d-th
    prefix, so the odd ones of a level are already in place and each level
    adds the even ones."""
    prefix = np.empty((n, 2, 2))
    for depth in range(n.bit_length() - 1, -1, -1):
        span, first = 1 << depth, head >> depth
        level = levels[depth]
        prefix[span - 1] = level[first]
        if 3 * span <= n:
            np.matmul(
                level[first + 2 : first + (n >> depth) : 2],
                prefix[2 * span - 1 : -1 : 2 * span],
                out=prefix[3 * span - 1 :: 2 * span],
            )
    return prefix


def _overflow(step: SmoothStep, n: int, regime: Regime, kappa: float) -> RuntimeError:
    """The refusal of a solution that leaves the double range; on an evanescent
    step it names the density's growth across the flat tail [0, 10w], exp(κ·20w)."""
    message = f"the solution overflows the double range at width {step.width:g} with {n} cells"
    if regime is Regime.EVANESCENT:
        exponent = 2.0 * _FLAT_BEYOND * step.width * kappa
        message += f": the evanescent density grows by about exp(κ·20w) = exp({exponent:.4g})"
    return RuntimeError(message)


def _transmitted_wave(setup: PhysicalSetup, conv: Convention):
    """The regime of an open setup, k, k̄ (κ if evanescent), a and the unit-coefficient
    transmitted column (upper, lower, q_t) of ``conv``; refused on a regime edge
    and where k̄ rounds to 0 (EdgePointError), and where the wave grows."""
    regime = classify_regime(setup)
    m, v0, e = setup.mass_energy, setup.step_height, setup.energy
    if regime in (Regime.EDGE_POINT, Regime.EDGE_LOWER):
        raise EdgePointError(
            f"kinematics degenerate at {regime.value} (V0={v0}); use the limits module")
    evanescent = regime is Regime.EVANESCENT
    (k, kappa, a, b, b_dprime), kbar_zero = _kinematics(SCALAR, m, v0, e, evanescent)
    if kbar_zero:
        raise refusal(KBAR_ZERO, m, v0, e)
    values, (growing, _) = _continuity(SCALAR, a, b, b_dprime, kappa, conv, evanescent)
    if growing:
        raise refusal(GROWING, m, v0, e, conv)
    return regime, k, kappa, a, values[:3]


def integrate_scattering(
    setup: PhysicalSetup,
    step: SmoothStep,
    conv: Convention = Convention.MAIN,
    tol: float = 1e-10,
) -> OracleResult:
    """Integrate the smoothed-step problem and extract r, t, R, T.

    A pure transmitted wave of the chosen convention is imposed at
    x = +10w and propagated by Magnus cells to x = −10w, doubling the cell
    count until the Richardson estimate is at most ``tol``; the arrival
    value is decomposed onto the incident and reflected free waves, and r
    and t are referred to x = 0.  Raises RuntimeError if the estimate stays
    above ``tol`` at the internal cell cap or rises from one doubling to the
    next, as it does once it meets the rounding floor (about √R times the
    rounding of the incident amplitude), or if the solution overflows the
    double range, as an evanescent one does once exp(κ·20w) nears 1e308 and
    a wide Klein-zone one does inside its band where |E − V(x)| < mc².
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
    regime, k, kappa, a, (upper, lower, q_t) = _transmitted_wave(setup, conv)
    amp_up, amp_low = complex(upper), complex(lower)
    # S⁻¹ψ of the start, with its real and imaginary parts as the columns.
    start = np.array([[amp_up.real, amp_up.imag], [amp_low.imag, -amp_low.real]])
    # The incident and reflected amplitudes of the free waves at x = −10w are
    # [[a, 1], [a, −1]] / 2a times the arrival; Python's complex arithmetic
    # forms the same doubles as numpy's matrix product.
    half, by_2a = a / (2.0 * a), 1.0 / (2.0 * a)

    def decompose(levels: list[np.ndarray], head: int, n: int) -> tuple[complex, complex]:
        depth = n.bit_length() - 1
        (x00, x01), (x10, x11) = levels[depth][head >> depth].tolist()
        up, low = complex(x00, x01), complex(-x11, x10)
        coeff_in, coeff_refl = half * up + by_2a * low, half * up + -by_2a * low
        if abs(coeff_in) < 1e-8 * math.hypot(abs(up), abs(low)):
            raise RuntimeError("decomposition ill-conditioned: no incident content")
        return coeff_in, coeff_refl

    def solve(counts: list[int]) -> tuple[list[np.ndarray], list[int]]:
        """The levels of the passes of ``counts`` cells, in descending order,
        and the index of the first cell of each."""
        cells = _magnus_cells(setup, step, counts)
        # The first cell of a pass carries the start, so every product is a state.
        heads = _grid(tuple(counts))[1]
        cells[heads] = cells[heads] @ start
        return _chain(cells), heads.tolist()

    # First rung: a power of two n fitted to a quarter of the count the
    # tolerance needs, which grows with w times the largest wave number and,
    # for a fourth-order method, like tol^(−1/4), with 2n and 4n, from one
    # evaluation of the cells and one tree; each further doubling is one
    # more of each.
    energies = step.height + setup.energy + setup.mass_energy
    reach = step.width * energies
    if reach == math.inf:
        raise ValueError(f"step width {step.width:g} too wide: its reach "
                         f"w (V0 + E + mc2) = {step.width:g} * {energies:g} overflows")
    guess = 130.0 * reach**0.6 * (tol / 1e-10) ** -0.25
    n = min(2 ** math.floor(math.log2(max(_MIN_CELLS, guess))), _MAX_CELLS // 2)
    # A wide enough step overflows its cells; its estimate is then not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        levels, rung = solve([c for c in (4 * n, 2 * n, n) if c <= _MAX_CELLS])
        coarse = decompose(levels, rung.pop(), n)
        previous = math.inf
        while True:
            n *= 2
            if rung:
                head = rung.pop()
            else:
                levels, (head,) = solve([n])
            fine = decompose(levels, head, n)
            # np.abs of an array, whose last bit can differ from abs of a scalar,
            # and np.max's rule that a NaN in either wins.
            d_in, d_refl = np.abs([fine[0] - coarse[0], fine[1] - coarse[1]]).tolist()
            change = max(d_in, d_refl) if d_in == d_in and d_refl == d_refl else math.nan
            richardson = change / (15.0 * abs(fine[0]))
            if richardson <= tol:
                break
            # A non-finite estimate never meets tol: refuse it at once.
            if not math.isfinite(richardson):
                raise _overflow(step, n, regime, kappa)
            # Truncation error falls with every doubling; an estimate that
            # rises has met the rounding of the reflected amplitude, |r| = √R
            # times that of the incident one, and more cells cannot help.
            if richardson > previous or n >= _MAX_CELLS:
                refusal = (
                    f"Richardson estimate {richardson:.2e} misses tol {tol:.0e} at width "
                    f"{step.width:g} with {n} cells"
                )
                if richardson > previous:
                    raise RuntimeError(
                        f"{refusal}: it rose from {previous:.2e} with half as many, so it "
                        f"has met the rounding floor that √R = {abs(fine[1] / fine[0]):.3g} sets"
                    )
                raise RuntimeError(f"{refusal} (cap {_MAX_CELLS})")
            coarse, previous = fine, richardson
    coeff_in, coeff_refl = fine

    half_width = _FLAT_BEYOND * step.width
    j_ref = 2.0 * (amp_up.conjugate() * amp_low).real
    # A pass whose arrival is finite can still overflow the squares below.
    try:
        with np.errstate(over="raise", invalid="raise"):
            # Current conservation at every cell boundary, normalized by the
            # local density so exponentially growing evanescent solutions stay
            # comparable.  For ψ = S·(X[:, 0] + i X[:, 1]) the current
            # 2 Re(φ̄χ) is −2 det X.
            x = _prefix_chain(levels, head, n)
            j_path = -2.0 * (x[:, 0, 0] * x[:, 1, 1] - x[:, 0, 1] * x[:, 1, 0])
            rho_path = (x * x).sum(axis=(1, 2))
            conservation = float(
                (np.abs(j_path - j_ref) / np.maximum(abs(j_ref), rho_path)).max()
            )
            # log-form avoids overflow of exp(kappa*x) for strongly evanescent runs
            t_num = cmath.exp(-1j * (q_t + k) * half_width - cmath.log(coeff_in))
            j_in = 2.0 * a * abs(coeff_in) ** 2
    except (FloatingPointError, OverflowError):
        raise _overflow(step, n, regime, kappa) from None
    r_num = (coeff_refl / coeff_in) * cmath.exp(-2j * k * half_width)
    R_num = abs(coeff_refl / coeff_in) ** 2
    T_num = closure = 0.0
    if regime is not Regime.EVANESCENT:
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


def sauter_log_coefficients(
    setup: PhysicalSetup, width: float, conv: Convention = Convention.MAIN
) -> tuple[float, float]:
    """Exact ln R and ln |T| of ``SmoothStep(V₀, width)`` in the Klein zone and
    the transmission regime (F. Sauter, Z. Phys. 73 (1932) 547).

    With c = πw/4 and f(z) = ln|sinh(cz)/c|, under MAIN
        ln R = f(V₀+k+k̄) + f(V₀−k−k̄) − f(V₀+k−k̄) − f(V₀−k+k̄),
        ln T = f(2k) + f(2k̄) − f(V₀+k−k̄) − f(V₀−k+k̄);
    under TRADITIONAL k̄ → −k̄, and T has the sign of 1 − R.  The factor that
    nearly vanishes at high energy is formed from E − k = m²/(E + k) and
    |E − V₀| − k̄ = m²/(|E − V₀| + k̄).  As w → 0, f(z) → ln|z|: width 0 gives
    the sharp step, and sinh z = z(1 + z²/6 + …) raises ln R by
    (π²/12)·k·k̄·w² + O(w⁴), since (k + k̄)² − (k − k̄)² = 4kk̄.
    """
    # MAIN's wave never grows: only the edges and a k̄ that rounds to 0 are refused here.
    regime, k, kb, _, _ = _transmitted_wave(setup, Convention.MAIN)
    if conv not in _ORACLE_CONVENTIONS or regime is Regime.EVANESCENT:
        raise ValueError("Sauter's R and T are those of the main and traditional "
                         "conventions in the Klein zone and the transmission regime")
    m, e, v0 = setup.mass_energy, setup.energy, setup.step_height
    c = math.pi * width / 4.0

    def f(z: float) -> float:
        x = abs(c * z)
        if x < 1e-8:  # sinh x = x to double precision
            return math.log(abs(z)) if z else -math.inf
        if x < 1.0:
            return math.log(math.sinh(x) / c)
        return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0 * c)

    small = m * m / (e + k) + m * m / (abs(e - v0) + kb)
    if regime is Regime.KLEIN_ZONE:
        minus_sum, minus_diff = small, v0 - k + kb
    else:
        minus_sum, minus_diff = v0 - k - kb, -v0 * small / (k + kb)
    sum_pair = f(v0 + k + kb) + f(minus_sum)
    diff_pair = f(v0 + k - kb) + f(minus_diff)
    if conv is Convention.TRADITIONAL:
        sum_pair, diff_pair = diff_pair, sum_pair
    return sum_pair - diff_pair, f(2.0 * k) + f(2.0 * kb) - diff_pair
