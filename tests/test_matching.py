"""Continuity matcher against the per-convention closed forms."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracstep import (
    Convention,
    PhysicalSetup,
    Regime,
    Spinor,
    classify_regime,
    observe,
    physical_convention,
    scatter_table,
    solve,
)
from diracstep import verify
from diracstep.core import _kinematics
from diracstep.matching import GROWING_UNDER_EVANESCENT
from diracstep.spinor import SCALAR
from diracstep.table import record

GOLDEN = PhysicalSetup(1.0, 4.0, 2.0)


def closed_form_rt(setup, conv):
    """Independent closed-form amplitudes for each convention in the Klein
    zone, from a, b and b″ of ``core._kinematics``."""
    (_, _, a, b, bpp), _ = _kinematics(SCALAR, setup.mass_energy, setup.step_height,
                                       setup.energy, False)
    if conv is Convention.MAIN:
        return (a + b) / (a - b), 2.0 * a / (a - b)
    if conv is Convention.LOWER_COMPONENT:
        return (a * bpp - 1.0) / (a * bpp + 1.0), 2.0 * a / (1.0 + a * bpp)
    if conv is Convention.TRADITIONAL:
        return (a - b) / (a + b), 2.0 * a / (a + b)
    return (a * b + 1.0) / (a * b - 1.0), 2.0 * a / (1.0 - a * b)


def test_main_closed_form_golden():
    sol = solve(GOLDEN, Convention.MAIN)
    assert sol.r == pytest.approx(-0.5, abs=1e-14)
    assert sol.t == pytest.approx(0.5, abs=1e-14)


def test_traditional_closed_form_golden():
    sol = solve(GOLDEN, Convention.TRADITIONAL)
    assert sol.r == pytest.approx(-2.0, abs=1e-13)
    assert sol.t == pytest.approx(-1.0, abs=1e-13)


def test_lower_component_closed_form_golden():
    sol = solve(GOLDEN, Convention.LOWER_COMPONENT)
    assert sol.r == pytest.approx(-0.5, abs=1e-14)
    assert sol.t == pytest.approx(0.86602540378443865, abs=1e-14)


def test_negative_energy_closed_form():
    sol = solve(PhysicalSetup(1.0, 5.0, 2.0), Convention.NEGATIVE_ENERGY)
    assert sol.r == pytest.approx(-0.1010205144336438, abs=1e-13)
    assert sol.t == pytest.approx(0.63567449039156449, abs=1e-13)


@pytest.mark.parametrize("conv", list(Convention))
def test_matcher_agrees_with_closed_forms_randomized(conv):
    rng = np.random.default_rng(42)
    for _ in range(300):
        e = float(np.exp(rng.uniform(np.log(1.001), np.log(1e3))))
        v0 = float(rng.uniform(e + 1.0, 3.0 * (e + 1.0)))
        setup = PhysicalSetup(1.0, v0, e)
        sol = solve(setup, conv)
        r_ref, t_ref = closed_form_rt(setup, conv)
        assert sol.r == pytest.approx(r_ref, rel=1e-12, abs=1e-12)
        assert sol.t == pytest.approx(t_ref, rel=1e-12, abs=1e-12)


def test_evaluate_golden_at_origin():
    sol = solve(GOLDEN, Convention.MAIN)
    psi0 = sol.spinor_at(0.0)
    assert psi0.upper == pytest.approx(0.5, abs=1e-14)
    assert psi0.lower == pytest.approx(0.8660254037844386, abs=1e-14)


def _residual_at_zero(sol) -> float:
    left_in = sol.incident.value_at(0.0)
    left_re = sol.reflected.value_at(0.0)
    left = Spinor(left_in.upper + left_re.upper, left_in.lower + left_re.lower)
    right = sol.spinor_at(0.0)
    scale = max(1.0, abs(left.upper), abs(left.lower))
    return max(abs(left.upper - right.upper), abs(left.lower - right.lower)) / scale


@settings(max_examples=200, deadline=None)
@given(
    e=st.floats(min_value=1.001, max_value=1e3),
    u=st.floats(min_value=1e-6, max_value=3.0),
    conv=st.sampled_from(list(Convention)),
)
def test_continuity_property_klein_zone(e, u, conv):
    assert _residual_at_zero(solve(PhysicalSetup(1.0, (e + 1.0) * (1.0 + u), e), conv)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    e=st.floats(min_value=1.001, max_value=1e3),
    frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_continuity_property_evanescent(e, frac):
    v0 = (e - 1.0) + 2.0 * frac
    setup = PhysicalSetup(1.0, v0, e)
    if classify_regime(setup) is not Regime.EVANESCENT:
        return
    assert _residual_at_zero(solve(setup, Convention.MAIN)) < 1e-12
    assert _residual_at_zero(solve(setup, Convention.LOWER_COMPONENT)) < 1e-12


def test_growing_conventions_rejected_in_evanescent_regime():
    setup = PhysicalSetup(1.0, 2.5, 2.0)
    with pytest.raises(ValueError):
        solve(setup, Convention.TRADITIONAL)
    with pytest.raises(ValueError):
        solve(setup, Convention.NEGATIVE_ENERGY)


@pytest.mark.parametrize("conv", list(Convention), ids=lambda conv: conv.value)
def test_evanescent_growth_rule_is_one_fact(conv, monkeypatch):
    """The scalar matcher, the array core and the conservation suite agree
    on which conventions exist under an evanescent step."""
    growing = conv in GROWING_UNDER_EVANESCENT
    message = re.escape(f"{conv.value!r} transmitted wave grows under the step "
                        "in the evanescent regime")
    for build in (lambda: solve(PhysicalSetup(1.0, 2.5, 2.0), conv),
                  lambda: scatter_table(1.0, 2.5, 2.0, conv)):
        if growing:
            with pytest.raises(ValueError, match=message):
                build()
        else:
            build()
    drawn = set()

    def spy(mass, step_heights, energies, conv):
        table = scatter_table(mass, step_heights, energies, conv)
        if (table["regime"] == Regime.EVANESCENT.value).all():
            drawn.add(conv)
        return table

    monkeypatch.setattr(verify, "scatter_table", spy)
    assert verify.run_conservation(trials=3, seed=7).passed
    assert drawn == set(Convention) - set(GROWING_UNDER_EVANESCENT)


def test_main_and_lower_produce_identical_piecewise_solutions():
    rng = np.random.default_rng(3)
    for _ in range(100):
        e = float(np.exp(rng.uniform(np.log(1.01), np.log(100.0))))
        v0 = float(rng.uniform(e + 1.0, 4.0 * (e + 1.0)))
        setup = PhysicalSetup(1.0, v0, e)
        main = solve(setup, Convention.MAIN)
        lower = solve(setup, Convention.LOWER_COMPONENT)
        assert main.r == pytest.approx(lower.r, rel=1e-12)
        for x in (-2.3, -0.4, 0.0, 0.9, 3.1):
            pm, pl = main.spinor_at(x), lower.spinor_at(x)
            assert pm.upper == pytest.approx(pl.upper, rel=1e-11, abs=1e-13)
            assert pm.lower == pytest.approx(pl.lower, rel=1e-11, abs=1e-13)
        om, ol = observe(main), observe(lower)
        assert om.R == pytest.approx(ol.R, rel=1e-12)
        assert om.T == pytest.approx(ol.T, rel=1e-12)


def test_reflection_magnitudes():
    rng = np.random.default_rng(11)
    for _ in range(200):
        e = float(np.exp(rng.uniform(np.log(1.01), np.log(1e2))))
        v0 = float(rng.uniform(e + 1.0, 4.0 * (e + 1.0)))
        sol = solve(PhysicalSetup(1.0, v0, e), Convention.MAIN)
        assert abs(sol.r) <= 1.0 + 1e-14
    for _ in range(200):
        e = float(np.exp(rng.uniform(np.log(1.01), np.log(1e2))))
        v0 = float(rng.uniform(e - 1.0 + 1e-9, e + 1.0 - 1e-9))
        sol = solve(PhysicalSetup(1.0, v0, e), Convention.MAIN)
        assert abs(sol.r) == pytest.approx(1.0, abs=1e-12)


def test_near_edge_matcher_stays_finite_and_consistent():
    """|b| ~ 1e8 near the impenetrable point: scaled solve must stay stable."""
    e = 2.0
    for delta in (1e-10, 1e-12, 1e-14):
        setup = PhysicalSetup(1.0, (e + 1.0) + delta, e)
        assert abs(record(setup)["b_re"]) > 1e4
        sol = solve(setup, Convention.MAIN)
        r_ref, t_ref = closed_form_rt(setup, Convention.MAIN)
        assert sol.r == pytest.approx(r_ref, rel=1e-10)
        assert sol.t == pytest.approx(t_ref, rel=1e-10)
        assert _residual_at_zero(sol) < 1e-12


def test_physical_convention_choice():
    assert physical_convention(Regime.KLEIN_ZONE) is Convention.MAIN
    assert physical_convention(Regime.EVANESCENT) is Convention.MAIN
    assert physical_convention(Regime.TRANSMISSION) is Convention.TRADITIONAL
    with pytest.raises(ValueError):
        physical_convention(Regime.EDGE_POINT)


def test_transmission_regime_standard_result():
    """Sub-threshold step: the right-moving wave gives the textbook R, T."""
    setup = PhysicalSetup(1.0, 0.8, 3.0)
    sol = solve(setup, Convention.TRADITIONAL)
    obs = observe(sol)
    row = record(setup, Convention.TRADITIONAL)
    a, b = row["a"], row["b_re"]
    assert obs.R == pytest.approx(((a - b) / (a + b)) ** 2, rel=1e-13)
    assert obs.T == pytest.approx(4.0 * a * b / (a + b) ** 2, rel=1e-13)
    assert 0.0 < obs.T < 1.0 and obs.j0 > 0.0


def test_singular_continuity_system_raises():
    # Massless Klein zone: the traditional wave [1, b] with b = -1 is parallel
    # to the reflected wave [1, -a], a = 1, so det = û·a + l̂ vanishes.
    with pytest.raises(ValueError, match="singular for 'traditional'"):
        solve(PhysicalSetup(0.0, 3.0, 1.0), Convention.TRADITIONAL)
