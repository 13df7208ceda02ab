"""Regime classification and kinematic quantities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracstep import EdgePointError, PhysicalSetup, Regime, classify_regime, solve
from diracstep.core import _kinematics
from diracstep.spinor import SCALAR


def _open(m, v0, e):
    """``core._kinematics`` of an open setup, (k, k̄ or κ, a, b, b″), with
    the evanescent continuation where the setup classifies so."""
    evanescent = classify_regime(PhysicalSetup(m, v0, e)) is Regime.EVANESCENT
    values, kbar_zero = _kinematics(SCALAR, m, v0, e, evanescent)
    assert not kbar_zero
    return values


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
    k, kbar, a, b, b_dprime = _open(1.0, 4.0, 2.0)
    assert a == pytest.approx(0.57735026918962576, abs=1e-15)
    assert k == pytest.approx(1.7320508075688773, abs=1e-15)
    assert kbar == pytest.approx(1.7320508075688773, abs=1e-15)
    assert b == pytest.approx(-1.7320508075688773, abs=1e-15)
    assert b_dprime == pytest.approx(0.57735026918962576, abs=1e-15)


def test_kinematics_massless():
    k, _, a, b, _ = _open(0.0, 2.0, 1.0)
    assert a == 1.0
    assert b == pytest.approx(-1.0, abs=1e-15)
    assert k == pytest.approx(1.0, abs=1e-15)


def test_kinematics_rejects_edges():
    """On both edges k̄ is exactly 0, which ``_kinematics`` flags for its
    callers to refuse."""
    for v0 in (3.0, 1.0):
        assert _kinematics(SCALAR, 1.0, v0, 2.0, False)[1]


def test_kinematics_evanescent_pure_imaginary_b():
    assert classify_regime(PhysicalSetup(1.0, 2.5, 2.0)) is Regime.EVANESCENT
    _, kappa, _, b, _ = _open(1.0, 2.5, 2.0)
    assert kappa == pytest.approx(0.86602540378443865, abs=1e-15)
    assert b.real == 0.0
    assert b.imag < 0.0  # decaying continuation
    # |b| = kappa / (E - V0 + mc2) = 0.8660254 / 0.5
    assert abs(b) == pytest.approx(1.7320508075688772, abs=1e-15)


def test_transmission_regime_positive_b():
    assert classify_regime(PhysicalSetup(1.0, 0.8, 3.0)) is Regime.TRANSMISSION
    b = _open(1.0, 0.8, 3.0)[3]
    assert b.real > 0.0 and b.imag == 0.0


@pytest.mark.parametrize("e,v0", [(2.0, 4.0), (1.3, 5.0), (7.0, 11.0)])
def test_b_family_identities(e, v0):
    _, _, a, b, b_dprime = _open(1.0, v0, e)
    assert b < 0.0
    assert a * b < 0.0
    assert b * b_dprime == pytest.approx(-1.0, abs=1e-15)
    assert b_dprime == -(1.0 / b)  # defined identity, exact
    assert b_dprime > 0.0


@pytest.mark.parametrize("v0", [0.5, 2.5, 4.0], ids=["transmission", "evanescent", "klein"])
def test_b_dprime_is_minus_the_reciprocal_of_b_bit_for_bit(v0):
    # -(1/b), signed zeros included: -1.0 / b would flip the sign of the zero
    # real part in the evanescent band.
    *_, b, b_dprime = _open(1.0, v0, 2.0)
    expected = complex(-(1.0 / b))
    got = complex(b_dprime)
    assert (got.real.hex(), got.imag.hex()) == (expected.real.hex(), expected.imag.hex())


def test_a_monotone_to_one():
    values = [
        _open(1.0, 3.0 * e, e)[2]
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
    k, kbar, a, b, _ = _open(1.0, v0, e)
    k_s, kbar_s, a_s, b_s, _ = _open(scale, v0 * scale, e * scale)
    assert a_s == pytest.approx(a, rel=1e-12)
    assert b_s.real == pytest.approx(b.real, rel=1e-12)
    assert k_s == pytest.approx(k * scale, rel=1e-12)
    assert kbar_s == pytest.approx(kbar * scale, rel=1e-12)


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
        solve(setup)


def _assert_scales(m, v0, e):
    """The kinematics of (mc², V₀, E) is that of the setup divided by 2^s, s
    the binary exponent of its largest energy, with k and k̄ times 2^s and the
    regime, a, b and b″ identical, bit for bit."""
    s = math.frexp(max(m, v0, e))[1]
    scaled = [math.ldexp(x, -s) for x in (m, v0, e)]
    assert classify_regime(PhysicalSetup(m, v0, e)) is classify_regime(PhysicalSetup(*scaled))
    k, kbar, *ratios = _open(m, v0, e)
    k_base, kbar_base, *base = _open(*scaled)
    assert [k.hex(), kbar.hex()] == [
        math.ldexp(k_base, s).hex(), math.ldexp(kbar_base, s).hex()]
    assert [(complex(z).real.hex(), complex(z).imag.hex()) for z in ratios] == [
        (complex(z).real.hex(), complex(z).imag.hex()) for z in base]


@pytest.mark.parametrize("e,v0", [(2.0, 1e300), (1e200, 1.0), (1e200, 3e200)])
def test_kinematics_refuses_overflowing_magnitudes(e, v0):
    """k² and k̄² of these setups overflow the double range in their own unit;
    they are formed from power-of-two-scaled pairs, so the setups are
    accepted, equal to the same setups scaled into the normal range."""
    _assert_scales(1.0, v0, e)


@pytest.mark.parametrize("m,e,v0", [
    (1e-200, 2e-200, 1e-199),
    (0.0, 1e-150, 9.999999999999999e-151),
], ids=["k2", "kbar2"])
def test_kinematics_refuses_underflowing_magnitudes(m, e, v0):
    """k², resp. k̄², of these setups underflows the double range in their own
    unit; formed from scaled pairs they are normal, and the setups are
    accepted, equal to the same setups scaled into the normal range."""
    _assert_scales(m, v0, e)
