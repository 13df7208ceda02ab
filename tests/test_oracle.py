"""ODE oracle against the closed forms and Sauter's exact tanh-step R."""

import cmath
import math
import random
import re

import numpy as np
import pytest

from diracstep import (
    Convention,
    EdgePointError,
    PhysicalSetup,
    Regime,
    SmoothStep,
    classify_regime,
    integrate_scattering,
    observe,
    sauter_log_coefficients,
    solve,
)
from diracstep import oracle
from diracstep.table import record

GOLDEN = PhysicalSetup(1.0, 4.0, 2.0)


def test_smooth_step_profile_limits():
    step = SmoothStep(4.0, 1e-3)
    assert step.profile(-1.0) == pytest.approx(0.0, abs=1e-300)
    assert step.profile(1.0) == pytest.approx(4.0, abs=1e-12)
    assert step.profile(0.0) == pytest.approx(2.0, abs=1e-12)
    # narrower width approaches the sharp step pointwise
    x = 0.01
    wide, narrow = SmoothStep(4.0, 1e-2), SmoothStep(4.0, 1e-4)
    assert abs(narrow.profile(x) - 4.0) < abs(wide.profile(x) - 4.0)


def test_golden_agreement_main():
    res = integrate_scattering(GOLDEN, SmoothStep(4.0, 1e-3), Convention.MAIN)
    assert res.R_num == pytest.approx(0.25, abs=1e-6)
    assert res.T_num == pytest.approx(0.75, abs=1e-6)
    assert res.R_num + res.T_num == pytest.approx(1.0, abs=1e-9)
    assert res.integration_error_estimate < 1e-9
    assert abs(res.r_num) <= 1.0  # outgoing-wave condition keeps |r| bounded


def test_golden_traditional_reproduces_paradox():
    res = integrate_scattering(GOLDEN, SmoothStep(4.0, 1e-3), Convention.TRADITIONAL)
    assert res.R_num > 1.0
    assert res.R_num == pytest.approx(4.0, abs=1e-5)
    assert res.T_num == pytest.approx(-3.0, abs=1e-5)


def test_evanescent_total_reflection_any_width():
    setup = PhysicalSetup(1.0, 2.5, 2.0)
    for width in (1e-2, 1e-3):
        res = integrate_scattering(setup, SmoothStep(2.5, width), Convention.MAIN)
        assert res.R_num == pytest.approx(1.0, abs=1e-8)
        assert res.T_num == 0.0


def test_transmission_regime_agreement():
    setup = PhysicalSetup(1.0, 0.8, 3.0)
    closed = observe(solve(setup, Convention.TRADITIONAL))
    res = integrate_scattering(setup, SmoothStep(0.8, 1e-3), Convention.TRADITIONAL)
    assert res.R_num == pytest.approx(closed.R, abs=1e-6)
    assert res.T_num == pytest.approx(closed.T, abs=1e-6)


def test_phase_of_reflection_amplitude():
    res = integrate_scattering(GOLDEN, SmoothStep(4.0, 1e-4), Convention.MAIN)
    assert res.r_num.real == pytest.approx(-0.5, abs=1e-6)
    assert abs(res.r_num.imag) < 1e-5


def test_randomized_agreement_in_low_bias_window():
    """E/mc2 in (1.02, 1.7) and the step at most 0.2 mc2 above the Klein edge:
    the smoothing bias at w = 1e-3 stays below 1e-6."""
    rng = np.random.default_rng(101)
    for _ in range(8):
        e = math.exp(rng.uniform(math.log(1.02), math.log(1.7)))
        delta = math.exp(rng.uniform(math.log(1e-3), math.log(0.2)))
        setup = PhysicalSetup(1.0, e + 1.0 + delta, e)
        closed = observe(solve(setup, Convention.MAIN)).R
        res = integrate_scattering(
            setup, SmoothStep(setup.step_height, 1e-3), Convention.MAIN
        )
        assert abs(res.R_num - closed) < 1e-6
        assert res.integration_error_estimate < 1e-9


def _sauter(setup, width, conv):
    """Sauter's exact R and T of the tanh step; T has the sign of 1 - R."""
    log_r, log_t = sauter_log_coefficients(setup, width, conv)
    r = math.exp(log_r)
    return r, math.copysign(math.exp(log_t), 1.0 - r)


# Klein zone under both conventions, from near the edge to far above it, and
# the transmission regime under both.
SAUTER_SETUPS = [
    (PhysicalSetup(1.0, v0, e), conv)
    for e, v0 in [(1.2, 2.2 + 1e-6), (1.5, 2.6), (2.0, 4.0), (5.0, 20.0), (50.0, 120.0),
                  (3.0, 0.8), (2.0, 1.0 - 1e-6), (40.0, 10.0)]
    for conv in (Convention.MAIN, Convention.TRADITIONAL)
]


@pytest.mark.parametrize("width", [0.0, 1e-3, 0.3, 2.0, 10.0])
def test_sauter_reflection_and_transmission_add_to_one(width):
    """sinh(x+y)·sinh(x-y) = sinh(x)^2 - sinh(y)^2 makes R + T = 1 an identity
    of the exact formulas, which the code evaluates as two separate sums.  The
    logarithms are about w·V0 in size, and so is their rounding."""
    for setup, conv in SAUTER_SETUPS:
        log_r, log_t = sauter_log_coefficients(setup, width, conv)
        # (R + T - 1) / max(1, R), without forming an R beyond the double range
        scale = max(0.0, log_r)
        t = math.copysign(math.exp(log_t - scale), -log_r)
        defect = math.exp(log_r - scale) + t - math.exp(-scale)
        assert abs(defect) <= 1e-15 * (100.0 + width * setup.step_height), (setup, conv.value)


def test_sauter_at_zero_width_is_the_sharp_step():
    for setup, conv in SAUTER_SETUPS:
        closed = observe(solve(setup, conv))
        r, t = _sauter(setup, 0.0, conv)
        assert r == pytest.approx(closed.R, rel=1e-12, abs=1e-14), (setup, conv.value)
        assert t == pytest.approx(closed.T, rel=1e-12, abs=1e-14), (setup, conv.value)


def test_sauter_matches_the_direct_sinh_products():
    """At moderate energies no factor nearly cancels, and the sinh products
    can be formed as written."""
    for setup, conv in SAUTER_SETUPS[:8]:
        row = record(setup)
        v0, k = setup.step_height, row["k"]
        kb = row["kbar_or_kappa"] if conv is Convention.MAIN else -row["kbar_or_kappa"]
        for width in (1e-3, 0.3, 2.0):
            c = math.pi * width / 4.0
            s1, s2, s3, s4 = (math.sinh(c * (v0 + z)) for z in (k + kb, -k - kb, k - kb, kb - k))
            r, t = _sauter(setup, width, conv)
            assert r == pytest.approx(s1 * s2 / (s3 * s4), rel=1e-12)
            assert t == pytest.approx(math.sinh(2.0 * c * k) * math.sinh(2.0 * c * kb) / (s3 * s4),
                                      rel=1e-12)


def test_smoothing_bias_is_the_derived_w2_and_w4_law():
    """sinh z = z(1 + z^2/6 + z^4/120 + ...) gives ln R(w) - ln R(0) =
    A w^2 + B w^4 + O(w^6), with A = (pi^2/12) k kb, from
    (k + kb)^2 - (k - kb)^2 = 4 k kb, and B = -pi^4 k kb (3 V0^2 + k^2 + kb^2)
    / 2880, from the fourth powers.  So R(w) = R(0) (1 + A w^2 + (B + A^2/2)
    w^4 + ...): the w^2 coefficient of R(w) is (pi^2/12) k kb R."""
    for setup, conv in SAUTER_SETUPS:
        row = record(setup)
        v0, k = setup.step_height, row["k"]
        kb = row["kbar_or_kappa"] if conv is Convention.MAIN else -row["kbar_or_kappa"]
        a2 = math.pi**2 / 12.0 * k * kb
        b4 = -(math.pi**4) * k * kb * (3.0 * v0**2 + k**2 + kb**2) / 2880.0
        r0 = _sauter(setup, 0.0, conv)[0]
        label = f"E={setup.energy} V0={setup.step_height} {conv.value}"
        # Widths where the next term is O(w^2 (V0 + E)^2) relative to the one
        # checked, and rounding of R stays below it.
        w = 1e-3 / (v0 + setup.energy)
        w2_coefficient = (_sauter(setup, w, conv)[0] - r0) / w**2
        assert w2_coefficient == pytest.approx(a2 * r0, rel=1e-5), label
        w = 4e-2 / (v0 + setup.energy)
        r = _sauter(setup, w, conv)[0]
        w4_coefficient = (r - r0 * (1.0 + a2 * w**2)) / w**4
        assert w4_coefficient == pytest.approx((b4 + a2**2 / 2.0) * r0, rel=1e-3), label


@pytest.mark.parametrize("width", [0.1, 1e-2, 1e-3, 1e-4])
def test_oracle_follows_sauter_toward_the_sharp_step(width):
    """The oracle's distance from the sharp step is Sauter's smoothing bias,
    (pi^2/12) k kb R w^2 to leading order, at every width."""
    for setup, conv in SAUTER_SETUPS:
        res = integrate_scattering(setup, SmoothStep(setup.step_height, width), conv)
        r, t = _sauter(setup, width, conv)
        label = f"w={width} E={setup.energy} V0={setup.step_height} {conv.value}"
        assert abs(res.R_num - r) <= 1e-9 * max(1.0, r), label
        assert abs(math.log(abs(res.T_num / t))) <= 1e-9, label


def test_current_conserved_along_trajectory():
    for tol in (1e-10, 1e-11):
        res = integrate_scattering(
            GOLDEN, SmoothStep(4.0, 1e-3), Convention.MAIN, tol=tol
        )
        assert res.integration_error_estimate < 10.0 * max(tol, 1e-11)


def test_oracle_rejects_unsupported_inputs():
    with pytest.raises(ValueError):
        integrate_scattering(GOLDEN, SmoothStep(4.0, 1e-3), Convention.NEGATIVE_ENERGY)
    with pytest.raises(ValueError):
        integrate_scattering(GOLDEN, SmoothStep(4.0, 1e-3), Convention.MAIN, tol=1e-3)
    with pytest.raises(ValueError):
        integrate_scattering(GOLDEN, SmoothStep(3.9, 1e-3), Convention.MAIN)
    evan = PhysicalSetup(1.0, 2.5, 2.0)
    with pytest.raises(ValueError, match="^'traditional' transmitted wave grows under the step"):
        integrate_scattering(evan, SmoothStep(2.5, 1e-3), Convention.TRADITIONAL)
    # Sauter's formula refuses the evanescent band before any wave can grow.
    with pytest.raises(ValueError, match="^Sauter's R and T are those of the main"):
        sauter_log_coefficients(evan, 1e-3, Convention.TRADITIONAL)
    # A k̄ that rounds to 0 is refused as an edge.
    rounded = PhysicalSetup(1.0, 0.9999999999999999, 2.0)
    with pytest.raises(EdgePointError, match="within rounding of the regime edge E - mc2"):
        integrate_scattering(rounded, SmoothStep(rounded.step_height, 1e-3))
    with pytest.raises(EdgePointError, match="within rounding of the regime edge E - mc2"):
        sauter_log_coefficients(rounded, 1e-3)


@pytest.mark.parametrize("v0,regime", [(3.0, "EdgePoint"), (1.0, "EdgeLower")],
                         ids=["point", "lower"])
def test_oracle_and_sauter_refuse_both_edges(v0, regime):
    """On a regime edge k̄ = 0 and the amplitudes degenerate: the oracle and
    Sauter's formula refuse it and name the limits module."""
    setup = PhysicalSetup(1.0, v0, 2.0)
    message = "^" + re.escape(f"kinematics degenerate at {regime} (V0={v0}); "
                              "use the limits module") + "$"
    with pytest.raises(EdgePointError, match=message):
        integrate_scattering(setup, SmoothStep(v0, 1e-3))
    with pytest.raises(EdgePointError, match=message):
        sauter_log_coefficients(setup, 1e-3)


def _edge_setups(energy, delta):
    """Setups delta above the Klein edge and delta below the lower edge,
    with every convention the oracle admits there."""
    klein = PhysicalSetup(1.0, energy + 1.0 + delta, energy)
    lower = PhysicalSetup(1.0, energy - 1.0 - delta, energy)
    return [
        (klein, Convention.MAIN),
        (klein, Convention.TRADITIONAL),
        (lower, Convention.TRADITIONAL),
    ]


DELTAS = [10.0**-d for d in range(1, 7)]


@pytest.mark.parametrize("width", [1e-3, 0.3, 1.0, 2.0])
def test_exact_sauter_reflection_at_both_edges(width):
    for delta in DELTAS:
        for setup, conv in _edge_setups(1.2, delta):
            res = integrate_scattering(
                setup, SmoothStep(setup.step_height, width), conv
            )
            exact, t = _sauter(setup, width, conv)
            err = abs(res.R_num - exact) / max(1.0, exact)
            label = f"w={width} delta={delta} V0={setup.step_height} {conv.value}"
            assert err <= 1e-9, label
            assert err <= 10.0 * res.integration_error_estimate + 1e-13, label
            assert abs(math.log(abs(res.T_num / t))) <= 1e-9, label


@pytest.mark.parametrize("width", [1e-3, 0.3, 1.0, 2.0])
def test_cell_count_bounded_toward_the_edges(width):
    # E - mc2 = 2 is large against delta = 0.1, so the lower-edge step is
    # nearly as high at delta = 1e-1 as at 1e-6.
    for (near, conv), (far, _) in zip(_edge_setups(3.0, 1e-6), _edge_setups(3.0, 1e-1)):
        n_near = integrate_scattering(
            near, SmoothStep(near.step_height, width), conv
        ).n_steps
        n_far = integrate_scattering(far, SmoothStep(far.step_height, width), conv).n_steps
        assert n_near <= n_far, f"w={width} {conv.value} V0={near.step_height}"


def test_cell_cap_raises_when_estimate_above_tol(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_CELLS", 32)
    with pytest.raises(RuntimeError, match="Richardson"):
        integrate_scattering(GOLDEN, SmoothStep(4.0, 1.0), Convention.MAIN)


@pytest.mark.parametrize(
    "setup, width, conv, tol",
    [
        # main in the transmission regime, R ~ 5e11
        (PhysicalSetup(1.0, 16.264875658634125, 315.75974032196524), 0.013886384318014863,
         Convention.MAIN, 1e-10),
        # traditional in the Klein zone, R ~ 1.7e5
        (PhysicalSetup(1.0, 1140.4735942683808, 701.4078652311506), 0.0018617004572031475,
         Convention.TRADITIONAL, 1e-13),
    ],
)
def test_estimate_that_rises_is_refused_at_the_rounding_floor(setup, width, conv, tol):
    """The estimate is relative to the incident amplitude, so when R >> 1 the
    rounding of the reflected one, sqrt(R) times larger, floors it above tol.
    It falls to that floor and then rises; the ladder refuses at the first
    rise, at 8192 cells, instead of doubling on to the 65536-cell cap."""
    estimate = r"\d\.\d\de-\d\d"
    message = (rf"^Richardson estimate {estimate} misses tol {tol:.0e} at width {width:g} "
               rf"with 8192 cells: it rose from {estimate} with half as many, so it has met "
               rf"the rounding floor that √R = \S+ sets$")
    with pytest.raises(RuntimeError, match=message):
        integrate_scattering(setup, SmoothStep(setup.step_height, width), conv, tol=tol)


# Wide steps across the regimes: Klein zone under both conventions, the
# transmission regime under ``traditional`` and the evanescent band.
WIDE_SETUPS = [
    (PhysicalSetup(1.0, 4.0, 2.0), Convention.MAIN),
    (PhysicalSetup(1.0, 4.0, 2.0), Convention.TRADITIONAL),
    (PhysicalSetup(1.0, 20.0, 1.5), Convention.MAIN),
    (PhysicalSetup(1.0, 20.0, 5.0), Convention.TRADITIONAL),
    (PhysicalSetup(1.0, 8.0, 5.0), Convention.MAIN),
    (PhysicalSetup(1.0, 2.0, 5.0), Convention.TRADITIONAL),
    (PhysicalSetup(1.0, 0.5, 2.0), Convention.TRADITIONAL),
    (PhysicalSetup(1.0, 0.3, 1.5), Convention.TRADITIONAL),
    (PhysicalSetup(1.0, 2.5, 2.0), Convention.MAIN),
    (PhysicalSetup(1.0, 5.5, 5.0), Convention.MAIN),
]


@pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-6])
@pytest.mark.parametrize("width", [0.1, 0.5, 1.0, 2.0])
def test_exact_sauter_reflection_on_wide_steps(width, tol):
    """The graded cells and the sized first pass keep the exact R at every
    tolerance; evanescent setups reflect totally."""
    for setup, conv in WIDE_SETUPS:
        res = integrate_scattering(
            setup, SmoothStep(setup.step_height, width), conv, tol=tol
        )
        label = f"w={width} tol={tol} E={setup.energy} V0={setup.step_height} {conv.value}"
        if classify_regime(setup) is Regime.EVANESCENT:
            exact = 1.0
            assert res.T_num == 0.0
        else:
            exact, t = _sauter(setup, width, conv)
            assert abs(math.log(abs(res.T_num / t))) <= max(1e-9, 10.0 * tol), label
        err = abs(res.R_num - exact) / max(1.0, exact)
        # The estimate is of the amplitudes and R squares them, so at the
        # loosest tolerance R may miss by a few times tol.
        assert err <= max(1e-9, 10.0 * tol), label
        assert err <= 10.0 * res.integration_error_estimate + 1e-13, label


def test_golden_wide_step_cell_count():
    res = integrate_scattering(GOLDEN, SmoothStep(4.0, 1.0), Convention.MAIN)
    assert res.n_steps <= 2048


@pytest.mark.parametrize("compensated", [False, True])
def test_conservation_check_catches_a_broken_cell(monkeypatch, compensated):
    """A cell scaled by 1 + 1e-6 breaks current conservation after it.  With
    the next cell scaled back, the product over all cells is intact and only
    the check at every cell boundary can see the defect."""
    step = SmoothStep(4.0, 0.3)
    clean = integrate_scattering(GOLDEN, step, Convention.MAIN)
    assert clean.integration_error_estimate < 1e-9
    build = oracle._magnus_cells

    def broken(setup, step, counts):
        cells = build(setup, step, counts)
        for head, n in zip(oracle._grid(tuple(counts))[1], counts):
            cells[head + n // 2] *= 1.0 + 1e-6
            if compensated:
                cells[head + n // 2 + 1] /= 1.0 + 1e-6
        return cells

    monkeypatch.setattr(oracle, "_magnus_cells", broken)
    res = integrate_scattering(GOLDEN, step, Convention.MAIN)
    assert res.integration_error_estimate > 1e-7
    if compensated:
        assert res.R_num == pytest.approx(clean.R_num, abs=1e-12)


def test_smooth_step_refuses_non_finite_height_or_width():
    for height, width, bad in [(4.0, math.inf, "width"), (math.inf, 1.0, "height"),
                               (4.0, math.nan, "width"), (-math.inf, 1.0, "height")]:
        with pytest.raises(ValueError, match=f"step {bad} must be finite and > 0, got"):
            SmoothStep(height, width)


def test_width_whose_reach_underflows_starts_at_the_smallest_pass():
    # w·(V0 + E + mc2) rounds to 0; the first pass is still 8 cells.  A
    # massless particle crosses the step without reflection.
    res = integrate_scattering(PhysicalSetup(0.0, 0.2, 0.1), SmoothStep(0.2, 5e-324))
    assert (res.n_steps, res.R_num, res.T_num) == (16, 0.0, 1.0)


def test_width_whose_reach_overflows_is_refused_with_its_cause():
    # w·(V0 + E + mc2) overflows before the first pass is sized.
    with pytest.raises(ValueError) as info:
        integrate_scattering(PhysicalSetup(1.0, 4.0, 2.0), SmoothStep(4.0, 1.7e308))
    assert str(info.value) == ("step width 1.7e+308 too wide: its reach "
                               "w (V0 + E + mc2) = 1.7e+308 * 7 overflows")


@pytest.mark.parametrize(
    "setup, width, tol, cells, conv",
    [
        # Every cell overflows, and the first count is already half the cap.
        (GOLDEN, 1e300, 1e-10, 2**16, Convention.MAIN),
        # An evanescent wave grows past the largest double across 20w, and
        # the first estimate is already NaN, far below the cap.
        (PhysicalSetup(1.0, 2.5, 2.0), 100.0, 1e-10, 8192, Convention.MAIN),
        (PhysicalSetup(1.0, 2.5, 2.0), 1e3, 1e-6, 4096, Convention.MAIN),
        # A wide Klein-zone step overflows inside its band where |E - V(x)| < mc2.
        (PhysicalSetup(1.0, 3.0001, 2.0), 1e3, 1e-10, 32768, Convention.MAIN),
        (PhysicalSetup(1.0, 3.0001, 2.0), 1e3, 1e-10, 32768, Convention.TRADITIONAL),
    ],
)
def test_overflowing_cells_raise_at_the_first_non_finite_estimate(setup, width, tol, cells, conv):
    """No numpy warning escapes (the suite turns RuntimeWarning into an
    error), and the ladder stops at the first estimate, which is NaN; the
    refusal names the overflow, not the NaN."""
    message = f"the solution overflows the double range at width {width:g} with {cells} cells"
    step = SmoothStep(setup.step_height, width)
    with pytest.raises(RuntimeError, match=re.escape(message)) as info:
        integrate_scattering(setup, step, conv, tol=tol)
    assert "nan" not in str(info.value)


def _reference_rows(n):
    """Delta s and the step P at the two Gauss points of every cell of one
    pass of n cells, from z = 20 sinh(3u) / sinh(3) = 2x/w."""
    u = 1.0 - (2.0 / n) * np.arange(n + 1)
    s = np.sinh(3.0 * u)
    ds = s[1:] - s[:-1]
    z = (20.0 / math.sinh(3.0)) * (s[:-1] + np.multiply.outer(oracle._GAUSS, ds))
    p1, p2 = (1.0 + np.tanh(z)) / 2.0
    return ds, p1, p2


def _exponential(alpha, beta, gamma):
    """exp of every [[gamma, i alpha], [i beta, -gamma]], in the real form."""
    s2 = gamma * gamma - alpha * beta
    r = np.sqrt(np.abs(s2))
    grow = s2 > 0.0
    cosh = np.cosh(r, out=np.cos(r), where=grow)
    sinhc = np.divide(
        np.sinh(r, out=np.sin(r), where=grow), r, out=np.ones(len(r)), where=r > 0.0
    )
    return np.array(
        [[cosh + sinhc * gamma, -sinhc * alpha], [sinhc * beta, cosh - sinhc * gamma]]
    ).transpose(2, 0, 1)


def _reference_cells(setup, step, n):
    """The cells of one pass, built one count at a time by the oracle's cell
    formula: h = c·Delta s with c = 10w / sinh(3), and V = V0·P."""
    ds, p1, p2 = _reference_rows(n)
    c = 10.0 * step.width / math.sinh(3.0)
    m, e, v0 = setup.mass_energy, setup.energy, step.height
    half_v = 0.5 * c * v0 * (ds * (p1 + p2))
    alpha = (c * (e + m)) * ds - half_v
    beta = (c * (e - m)) * ds - half_v
    gamma = -math.sqrt(3.0) / 6.0 * m * c * c * v0 * (ds * ds * (p2 - p1))
    return _exponential(alpha, beta, gamma)


def _x_nodes(step, n):
    """The left node and the width of every cell of one pass as x, from the
    nodes 10w sinh(3u) / sinh(3) rounded to doubles."""
    u = 1.0 - (2.0 / n) * np.arange(n + 1)
    nodes = (10.0 * step.width / math.sinh(3.0)) * np.sinh(3.0 * u)
    return nodes[:-1], nodes[1:] - nodes[:-1]


def _x_node_cells(setup, step, n):
    """The cells of one pass by the x-node formula: E - V at the Gauss points
    of the x nodes, with V from ``SmoothStep.profile``."""
    left, h = _x_nodes(step, n)
    u1, u2 = setup.energy - step.profile(left + np.multiply.outer(oracle._GAUSS, h))
    m = setup.mass_energy
    alpha = 0.5 * h * (u1 + u2 + 2.0 * m)
    beta = 0.5 * h * (u1 + u2 - 2.0 * m)
    gamma = (math.sqrt(3.0) / 6.0 * m) * h * h * (u2 - u1)
    return _exponential(alpha, beta, gamma)


def _reference_chain(cells):
    """Pairwise products of one pass, level by level, one pass at a time."""
    levels = [cells]
    while len(cells) > 1:
        cells = cells[1::2] @ cells[0::2]
        levels.append(cells)
    return levels


def _reference_prefix_chain(levels):
    """All prefix products M_i ... M_1 of one pass by a down-sweep over the
    levels of ``_reference_chain``."""
    prefix = levels[-1]
    for level in reversed(levels[:-1]):
        parent, prefix = prefix, level.copy()
        prefix[1::2] = parent
        prefix[2::2] = level[2::2] @ parent[:-1]
    return prefix


def _reference_ladder(setup, step, conv, tol):
    """``integrate_scattering`` with one evaluation of the cells per doubling,
    as it was before the first rung; also returns the number of passes."""
    regime, k, _, a, (upper, lower, q_t) = oracle._transmitted_wave(setup, conv)
    amp = np.array([upper, lower], dtype=complex)
    start = np.array([[amp[0].real, amp[0].imag], [amp[1].imag, -amp[1].real]])
    to_waves = np.array([[a, 1.0], [a, -1.0]]) / (2.0 * a)

    def solve(n):
        cells = _reference_cells(setup, step, n)
        cells[0] = cells[0] @ start
        levels = _reference_chain(cells)
        (x00, x01), (x10, x11) = levels[-1][0]
        arrival = np.array([complex(x00, x01), complex(-x11, x10)])
        coeffs = to_waves @ arrival
        if abs(coeffs[0]) < 1e-8 * math.hypot(abs(arrival[0]), abs(arrival[1])):
            raise RuntimeError("decomposition ill-conditioned: no incident content")
        return levels, coeffs

    reach = step.width * (step.height + setup.energy + setup.mass_energy)
    guess = 130.0 * reach**0.6 * (tol / 1e-10) ** -0.25
    n = min(max(8, 2 ** math.floor(math.log2(guess))), oracle._MAX_CELLS // 2)
    _, coarse = solve(n)
    passes = 1
    while True:
        n *= 2
        levels, fine = solve(n)
        passes += 1
        richardson = float(np.max(np.abs(fine - coarse)) / (15.0 * abs(fine[0])))
        if richardson <= tol:
            break
        if n >= oracle._MAX_CELLS:
            raise RuntimeError(f"Richardson estimate {richardson:.2e} misses tol {tol:.0e}")
        coarse = fine
    coeff_in, coeff_refl = complex(fine[0]), complex(fine[1])
    x = _reference_prefix_chain(levels)
    j_path = -2.0 * (x[:, 0, 0] * x[:, 1, 1] - x[:, 0, 1] * x[:, 1, 0])
    rho_path = np.sum(x * x, axis=(1, 2))
    j_ref = 2.0 * (amp[0].conjugate() * amp[1]).real
    conservation = float(
        np.max(np.abs(j_path - j_ref) / np.maximum(abs(j_ref), rho_path))
    )
    half = 10.0 * step.width
    r_num = (coeff_refl / coeff_in) * cmath.exp(-2j * k * half)
    t_num = cmath.exp(-1j * (q_t + k) * half - cmath.log(coeff_in))
    R_num = abs(coeff_refl / coeff_in) ** 2
    j_in = 2.0 * a * abs(coeff_in) ** 2
    T_num = closure = 0.0
    if regime is not Regime.EVANESCENT:
        T_num = float(j_ref / j_in)
        closure = abs(R_num + T_num - 1.0)
    result = oracle.OracleResult(
        r_num=r_num, t_num=t_num, R_num=R_num, T_num=T_num,
        integration_error_estimate=max(richardson, conservation, closure),
        width=step.width, n_steps=n,
    )
    return result, passes


def _rung_cases():
    """Both edges at every delta, the wide-step setups of every regime (the
    Klein zone and the transmission regime under ``traditional``, and the
    evanescent band) and the golden setup, at widths from 1e-3 to 2."""
    for tol in (1e-13, 1e-10, 1e-6):
        for delta in DELTAS:
            for width in (1e-3, 0.3):
                for setup, conv in _edge_setups(1.2, delta):
                    yield setup, width, conv, tol
        for width in (1e-3, 1e-2, 0.1, 0.5, 2.0):
            for setup, conv in WIDE_SETUPS:
                yield setup, width, conv, tol


def _compare_with_reference(cases):
    """Passes and cell counts of the reference solves, or "refused"."""
    seen = set()
    for setup, width, conv, tol in cases:
        step = SmoothStep(setup.step_height, width)
        label = f"w={width} tol={tol} E={setup.energy} V0={setup.step_height} {conv.value}"
        try:
            expected, passes = _reference_ladder(setup, step, conv, tol)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=re.escape(str(exc))):
                integrate_scattering(setup, step, conv, tol=tol)
            seen.add("refused")
            continue
        assert repr(integrate_scattering(setup, step, conv, tol=tol)) == repr(expected), label
        seen.add((passes, expected.n_steps))
    return seen


def test_first_rung_is_bit_identical_to_one_pass_per_doubling():
    """The n-, 2n- and 4n-cell passes from one evaluation give every field
    of the result, the cell count included, exactly as a ladder that builds
    each pass on its own."""
    passes = {p for p, _ in _compare_with_reference(_rung_cases())}
    assert passes == {2, 3, 4}


def test_clipped_rung_is_bit_identical_at_a_low_cap(monkeypatch):
    """With a cap of 32 cells a first count of 16 leaves a rung of two
    passes; solves that need more than 32 cells are refused alike."""
    monkeypatch.setattr(oracle, "_MAX_CELLS", 32)
    seen = _compare_with_reference(_rung_cases())
    assert {(2, 16), (3, 32), (2, 32), "refused"} <= seen


# kappa = sqrt(3)/2: the density grows by about exp(kappa*20w) across the step.
EVANESCENT = PhysicalSetup(1.0, 2.5, 2.0)


@pytest.mark.parametrize(
    "width, exponent",
    # Up to w = 42 the ladder accepts a finite pass and the squares of the
    # conservation check overflow; from about w = 100 on the ladder's own
    # estimate is NaN.
    [(40.5, "701.5"), (41.0, "710.1"), (42.0, "727.5"), (100.0, "1732")],
)
def test_wide_evanescent_step_names_width_and_growth(width, exponent):
    """A RuntimeError, and no numpy warning (the suite turns RuntimeWarning
    into an error)."""
    growth = re.escape(f"grows by about exp(κ·20w) = exp({exponent})")
    with pytest.raises(RuntimeError, match=f"at width {width:g}.*{growth}"):
        integrate_scattering(EVANESCENT, SmoothStep(2.5, width))


@pytest.mark.parametrize("width", [1.0, 10.0, 30.0, 40.0])
def test_evanescent_steps_that_fit_are_unchanged(width):
    step = SmoothStep(2.5, width)
    expected, _ = _reference_ladder(EVANESCENT, step, Convention.MAIN, 1e-10)
    assert repr(integrate_scattering(EVANESCENT, step)) == repr(expected)


def _oracle_scan_cases(rounds: int, seed: int):
    """Solves drawn as the benchmark's oracle-scan rounds draw them: both
    edges at delta from 1e-1 to 1e-4 with w = 1e-3, Klein-zone and
    transmission setups over widths from 1e-3 to 1, and one evanescent setup,
    17 per round."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for _ in range(rounds):
        for decade in (1, 2, 3, 4):
            for edge in (1.0, -1.0):
                e = rng.uniform(1.18, 1.22)
                delta = 10.0 ** -(decade + rng.uniform(-0.1, 0.1))
                conv = Convention.MAIN if edge > 0 else Convention.TRADITIONAL
                yield PhysicalSetup(1.0, e + edge * (1.0 + delta), e), 1e-3, conv, 1e-10
        for lo, hi in ((1e-3, 1e-2), (1e-2, 1e-1), (1e-1, 1.0), (1e-1, 1.0)):
            e = rng.uniform(1.9, 2.1)
            conv = rng.choice((Convention.MAIN, Convention.TRADITIONAL))
            klein = PhysicalSetup(1.0, e + 1.0 + rng.uniform(0.9, 1.1), e)
            yield klein, log_uniform(lo, hi), conv, 1e-10
            transmission = PhysicalSetup(1.0, rng.uniform(0.9, 1.1), rng.uniform(2.9, 3.1))
            yield transmission, log_uniform(lo, hi), Convention.TRADITIONAL, 1e-10
        e = rng.uniform(1.9, 2.1)
        evanescent = PhysicalSetup(1.0, e + rng.uniform(-0.6, 0.6), e)
        yield evanescent, log_uniform(1e-3, 1.0), Convention.MAIN, 1e-10


def test_oracle_scan_solves_are_bit_identical_to_one_pass_per_doubling():
    """510 solves of the benchmark's kind: the overflow guard changes no
    field of a result that fits in doubles."""
    cases = list(_oracle_scan_cases(30, seed=20261018))
    assert len(cases) == 510
    assert "refused" not in _compare_with_reference(cases)


@pytest.mark.parametrize("n", [8, 64, 1024, 4096])
def test_cells_agree_with_the_x_node_formula(n):
    """Within 4 eps of each cell's scale times 1 + |x|·(|E| + V0 + mc2): the
    x-node formula rounds its nodes to ulp(x), which moves a cell's phase by
    that much."""
    setups = [GOLDEN, EVANESCENT, PhysicalSetup(1.0, 0.5, 2.0), PhysicalSetup(0.0, 4.0, 2.0),
              PhysicalSetup(2.0, 20.0, 5.0), PhysicalSetup(1e-3, 1e3, 2e-3),
              *(setup for setup, _ in _edge_setups(1.2, 1e-4))]
    for setup in setups:
        for width in (1e-9, 1e-3, 0.37, 1.0, 3.0):
            step = SmoothStep(setup.step_height, width)
            cells = oracle._magnus_cells(setup, step, [n])
            expected = _x_node_cells(setup, step, n)
            left, h = _x_nodes(step, n)
            reach = np.maximum(abs(left), abs(left + h)) * (
                abs(setup.energy) + setup.step_height + setup.mass_energy)
            scale = np.abs(expected).max(axis=(1, 2)) * (1.0 + reach)
            excess = np.abs(cells - expected).max(axis=(1, 2)) / scale
            assert excess.max() <= 4.0 * np.finfo(float).eps, (setup, width)


def test_cached_rows_refuse_writes():
    rows, heads = oracle._grid((32, 16, 8))
    for array in (rows, rows[1], heads):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


@pytest.mark.parametrize("counts", [(32, 16, 8), (1024, 512, 256), (4096,)])
def test_cached_rows_are_the_step_at_the_gauss_points_at_every_width(counts):
    """Each pass's rows are those of the pass built on its own, bit for bit,
    and V0·P is within eps·V0 of ``SmoothStep.profile`` at the Gauss points
    of the x nodes, whatever the width."""
    rows, heads = oracle._grid(counts)
    for head, n in zip(heads.tolist(), counts):
        ds, p1, p2 = _reference_rows(n)
        assert np.array_equal(rows[:, head : head + n], [ds, ds * (p1 + p2), ds * ds * (p2 - p1)])
        for width in (1e-9, 1e-3, 0.37, 1.0, 123.0, 1e3):
            for height in (4.0, 0.37, 3e5):
                step = SmoothStep(height, width)
                left, h = _x_nodes(step, n)
                profile = step.profile(left + np.multiply.outer(oracle._GAUSS, h))
                excess = np.abs(height * np.array([p1, p2]) - profile).max()
                assert excess <= np.finfo(float).eps * height, (n, width, height)


def test_grid_cache_holds_at_most_24_entries_up_to_the_cap(monkeypatch):
    """Ladders from every first count up to the cap of 2^16 cells ask for 13
    first rungs and 11 single passes.  A first cell scaled by 1 + 1/n keeps
    every Richardson estimate near 1/30n, falling but above tol, so each
    ladder runs to the cap; the transmission setup has no evanescent band to
    overflow in at any width."""
    setup = PhysicalSetup(1.0, 0.5, 2.0)
    build, grid = oracle._magnus_cells, oracle._grid
    asked = set()

    def stalled(setup, step, counts):
        cells = build(setup, step, counts)
        for head, n in zip(grid(tuple(counts))[1], counts):
            cells[head] *= 1.0 + 1.0 / n
        return cells

    def recorded(counts):
        asked.add(counts)
        return grid(counts)

    monkeypatch.setattr(oracle, "_magnus_cells", stalled)
    monkeypatch.setattr(oracle, "_grid", recorded)
    grid.cache_clear()
    for first in (2**k for k in range(3, 16)):
        # w·(V0 + E + mc2) that sizes the first pass to ``first`` cells
        reach = (1.5 * first / 130.0) ** (1.0 / 0.6)
        with pytest.raises(RuntimeError, match=r"with 65536 cells \(cap 65536\)"):
            integrate_scattering(setup, SmoothStep(0.5, reach / 3.5), Convention.TRADITIONAL)
    assert len(asked) == grid.cache_info().currsize == 24
    assert max(map(max, asked)) == oracle._MAX_CELLS


@pytest.mark.parametrize(
    "width, setup, conv, outcome",
    [
        (1e-300, PhysicalSetup(0.0, 4.0, 2.0), Convention.MAIN, (16, 0.0, 1.0)),
        (1e-300, PhysicalSetup(0.0, 0.2, 0.1), Convention.MAIN, (16, 0.0, 1.0)),
        (1e-300, PhysicalSetup(0.0, 4.0, 2.0), Convention.TRADITIONAL,
         "decomposition ill-conditioned: no incident content"),
        (1e150, PhysicalSetup(0.0, 4.0, 2.0), Convention.MAIN,
         "Richardson estimate * misses tol 1e-10 at width 1e+150 with 65536 cells (cap 65536)"),
        (1e150, PhysicalSetup(0.0, 4.0, 2.0), Convention.TRADITIONAL,
         "decomposition ill-conditioned: no incident content"),
        (1e200, PhysicalSetup(0.0, 4.0, 2.0), Convention.MAIN,
         "the solution overflows the double range at width 1e+200 with 65536 cells"),
        (1e200, PhysicalSetup(0.0, 0.2, 0.1), Convention.MAIN,
         "the solution overflows the double range at width 1e+200 with 65536 cells"),
    ],
)
def test_massless_extreme_widths_keep_their_outcome(width, setup, conv, outcome):
    """mc2 = 0 gives gamma = 0 at every width, also where c² over- or
    underflows: the cell counts and refusals of the x-node formula.  At
    w = 1e150 a cell turns the phase by about 1e145 radians, so the estimate
    (*) is rounding noise and only the refusal is pinned."""
    step = SmoothStep(setup.step_height, width)
    if isinstance(outcome, tuple):
        res = integrate_scattering(setup, step, conv)
        assert (res.n_steps, res.R_num, res.T_num) == outcome
        return
    pattern = re.escape(outcome).replace(r"\*", r"\d\.\d\de[-+]\d\d")
    with pytest.raises(RuntimeError, match=f"^{pattern}$"):
        integrate_scattering(setup, step, conv)
