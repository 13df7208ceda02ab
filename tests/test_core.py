"""Regime classification and kinematic quantities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracstep import (
    EdgePointError,
    PhysicalSetup,
    Regime,
    classify_regime,
    kinematics,
)


def test_setup_rejects_subthreshold_energy():
    with pytest.raises(ValueError):
        PhysicalSetup(mass_energy=1.0, step_height=1.0, energy=1.0)
    with pytest.raises(ValueError):
        PhysicalSetup(mass_energy=1.0, step_height=1.0, energy=0.5)


def test_setup_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PhysicalSetup(mass_energy=-1.0, step_height=1.0, energy=2.0)
    with pytest.raises(ValueError):
        PhysicalSetup(mass_energy=1.0, step_height=0.0, energy=2.0)


@pytest.mark.parametrize(
    "v0,expected",
    [
        (4.0, Regime.KLEIN_ZONE),
        (2.5, Regime.EVANESCENT),
        (3.0, Regime.EDGE_POINT),
        (1.0, Regime.EDGE_LOWER),
        (0.5, Regime.TRANSMISSION),
        (1.5, Regime.EVANESCENT),
    ],
)
def test_classify_regime(v0, expected):
    setup = PhysicalSetup(mass_energy=1.0, step_height=v0, energy=2.0)
    assert classify_regime(setup) is expected


def test_classify_regime_massless_single_edge():
    assert (
        classify_regime(PhysicalSetup(0.0, 1.0, 1.0)) is Regime.EDGE_POINT
    )
    assert classify_regime(PhysicalSetup(0.0, 2.0, 1.0)) is Regime.KLEIN_ZONE
    assert classify_regime(PhysicalSetup(0.0, 0.5, 1.0)) is Regime.TRANSMISSION


@given(
    e=st.floats(min_value=1.0 + 1e-9, max_value=1e6),
    v0=st.floats(min_value=1e-9, max_value=1e7),
)
def test_classification_total_and_exclusive(e, v0):
    setup = PhysicalSetup(mass_energy=1.0, step_height=v0, energy=e)
    regime = classify_regime(setup)
    matches = [
        regime is Regime.KLEIN_ZONE and v0 > e + 1.0,
        regime is Regime.EVANESCENT and e - 1.0 < v0 < e + 1.0,
        regime is Regime.TRANSMISSION and v0 < e - 1.0,
        regime is Regime.EDGE_POINT and v0 == e + 1.0,
        regime is Regime.EDGE_LOWER and v0 == e - 1.0,
    ]
    assert sum(matches) == 1


def test_kinematics_golden_values():
    kin = kinematics(PhysicalSetup(1.0, 4.0, 2.0))
    assert kin.a == pytest.approx(0.57735026918962576, abs=1e-15)
    assert kin.k == pytest.approx(1.7320508075688773, abs=1e-15)
    assert kin.kbar_or_kappa == pytest.approx(1.7320508075688773, abs=1e-15)
    assert kin.b == pytest.approx(-1.7320508075688773, abs=1e-15)
    assert kin.b_dprime == pytest.approx(0.57735026918962576, abs=1e-15)


def test_kinematics_massless():
    kin = kinematics(PhysicalSetup(0.0, 2.0, 1.0))
    assert kin.a == 1.0
    assert kin.b == pytest.approx(-1.0, abs=1e-15)
    assert kin.k == pytest.approx(1.0, abs=1e-15)


def test_kinematics_rejects_edges():
    with pytest.raises(EdgePointError):
        kinematics(PhysicalSetup(1.0, 3.0, 2.0))
    with pytest.raises(EdgePointError):
        kinematics(PhysicalSetup(1.0, 1.0, 2.0))


def test_kinematics_evanescent_pure_imaginary_b():
    kin = kinematics(PhysicalSetup(1.0, 2.5, 2.0))
    assert kin.regime is Regime.EVANESCENT
    assert kin.kbar_or_kappa == pytest.approx(0.86602540378443865, abs=1e-15)
    assert kin.b.real == 0.0
    assert kin.b.imag < 0.0  # decaying continuation
    # |b| = kappa / (E - V0 + mc2) = 0.8660254 / 0.5
    assert abs(kin.b) == pytest.approx(1.7320508075688772, abs=1e-15)


def test_transmission_regime_positive_b():
    kin = kinematics(PhysicalSetup(1.0, 0.8, 3.0))
    assert kin.regime is Regime.TRANSMISSION
    assert kin.b.real > 0.0 and kin.b.imag == 0.0


@pytest.mark.parametrize("e,v0", [(2.0, 4.0), (1.3, 5.0), (7.0, 11.0)])
def test_b_family_identities(e, v0):
    kin = kinematics(PhysicalSetup(1.0, v0, e))
    assert kin.b < 0.0
    assert kin.a * kin.b < 0.0
    assert kin.b * kin.b_dprime == pytest.approx(-1.0, abs=1e-15)
    assert kin.b_dprime == -(1.0 / kin.b)  # defined identity, exact
    assert kin.b_dprime > 0.0


@pytest.mark.parametrize("v0", [0.5, 2.5, 4.0], ids=["transmission", "evanescent", "klein"])
def test_b_dprime_is_minus_the_reciprocal_of_b_bit_for_bit(v0):
    # -(1/b), signed zeros included: -1.0 / b would flip the sign of the zero
    # real part in the evanescent band.
    kin = kinematics(PhysicalSetup(1.0, v0, 2.0))
    expected = complex(-(1.0 / kin.b))
    got = complex(kin.b_dprime)
    assert (got.real.hex(), got.imag.hex()) == (expected.real.hex(), expected.imag.hex())


def test_a_monotone_to_one():
    values = [
        kinematics(PhysicalSetup(1.0, 3.0 * e, e)).a
        for e in (1.5, 2.0, 5.0, 20.0, 200.0)
    ]
    assert all(0.0 < a < 1.0 for a in values)
    assert values == sorted(values)
    assert values[-1] > 0.99


@settings(max_examples=50)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    e=st.floats(min_value=1.01, max_value=50.0),
    u=st.floats(min_value=0.01, max_value=3.0),
)
def test_energy_scale_invariance(scale, e, u):
    """A common energy rescaling leaves a, b invariant and rescales k, kbar."""
    v0 = (e + 1.0) * (1.0 + u)
    base = kinematics(PhysicalSetup(1.0, v0, e))
    scaled = kinematics(PhysicalSetup(scale, v0 * scale, e * scale))
    assert scaled.a == pytest.approx(base.a, rel=1e-12)
    assert scaled.b.real == pytest.approx(base.b.real, rel=1e-12)
    assert scaled.k == pytest.approx(base.k * scale, rel=1e-12)
    assert scaled.kbar_or_kappa == pytest.approx(base.kbar_or_kappa * scale, rel=1e-12)


@pytest.mark.parametrize("field,kwargs", [
    ("energy", {"energy": math.inf}),
    ("energy", {"energy": math.nan}),
])
def test_setup_rejects_non_finite_energy_and_hbar_c(field, kwargs):
    with pytest.raises(ValueError, match=field):
        PhysicalSetup(mass_energy=1.0, step_height=4.0, **kwargs)


@pytest.mark.parametrize("e,v0,regime,edge", [
    (2.0, 0.9999999999999999, Regime.TRANSMISSION, "E - mc2"),
    (1.2, 0.2, Regime.EVANESCENT, "E - mc2"),
], ids=["transmission", "evanescent"])
def test_kinematics_refuses_wave_number_rounded_to_zero(e, v0, regime, edge):
    """One ulp inside an open regime, E − V₀ can round to mc², so that k̄ or κ
    is exactly 0; that is refused as an edge point, not divided by."""
    setup = PhysicalSetup(1.0, v0, e)
    assert classify_regime(setup) is regime
    with pytest.raises(EdgePointError, match=f"within rounding of the regime edge {edge}"):
        kinematics(setup)


@pytest.mark.parametrize("e,v0,quantity", [
    (2.0, 1e300, "(E - V0 - mc2)(E - V0 + mc2) overflows"),
    (1e200, 1.0, "(E - mc2)(E + mc2) overflows"),
    (1e200, 3e200, "(E - mc2)(E + mc2) overflows"),
])
def test_kinematics_refuses_overflowing_magnitudes(e, v0, quantity):
    with pytest.raises(ValueError) as info:
        kinematics(PhysicalSetup(1.0, v0, e))
    assert quantity in str(info.value)


@pytest.mark.parametrize("m,e,v0,quantity", [
    (1e-200, 2e-200, 1e-199, "(E - mc2)(E + mc2) underflows"),
    (0.0, 1e-150, 9.999999999999999e-151, "(E - V0 - mc2)(E - V0 + mc2) underflows"),
], ids=["k2", "kbar2"])
def test_kinematics_refuses_underflowing_magnitudes(m, e, v0, quantity):
    """A product of nonzero factors below the normal range has lost its
    digits, or is 0: refused with its cause, not as a rounded edge."""
    with pytest.raises(ValueError) as info:
        kinematics(PhysicalSetup(m, v0, e))
    assert not isinstance(info.value, EdgePointError)
    assert quantity in str(info.value)
