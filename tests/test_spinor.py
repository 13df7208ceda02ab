"""Spinor algebra: densities, currents, Hamiltonian action, conjugation."""

import cmath

import numpy as np
import pytest

from diracstep import (
    Convention,
    PhysicalSetup,
    PlaneWaveState,
    Side,
    Spinor,
    apply_hamiltonian,
    charge_conjugate,
    current,
    density,
    kinematics,
    match,
)
from diracstep.spinor import complex_quotient

# Fixed matrices of the representation: alpha = sigma_x, beta = sigma_z.
ALPHA = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
BETA = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

A_GOLDEN = 0.57735026918962576
B_GOLDEN = -1.7320508075688773


def test_matrix_algebra():
    identity = np.eye(2)
    np.testing.assert_allclose(ALPHA @ ALPHA, identity, atol=1e-15)
    np.testing.assert_allclose(BETA @ BETA, identity, atol=1e-15)
    np.testing.assert_allclose(ALPHA @ BETA + BETA @ ALPHA, 0.0 * identity, atol=1e-15)


def test_density_examples():
    assert density(Spinor(0.0, 2.0 * A_GOLDEN)) == pytest.approx(
        1.3333333333333333, abs=1e-12
    )
    assert density(Spinor(1.0, 0.0)) == 1.0
    assert density(Spinor(0.5, -0.8660254037844386j)) == pytest.approx(1.0, abs=1e-12)


def test_current_examples():
    assert current(Spinor(1.0, A_GOLDEN)) == pytest.approx(
        1.1547005383792515, abs=1e-12
    )
    assert current(Spinor(0.0, 2.0 * A_GOLDEN)) == 0.0
    assert current(Spinor(1.0, 1.0j)) == 0.0


def test_density_zero_iff_zero_spinor():
    assert density(Spinor(0.0, 0.0)) == 0.0
    assert density(Spinor(1e-150, 0.0)) > 0.0


@pytest.mark.parametrize(
    "spinor",
    [
        Spinor(1.0, A_GOLDEN),
        Spinor(0.3 + 0.4j, -0.8 + 0.1j),
        Spinor(2.0, -1.0j),
    ],
)
def test_velocity_bound(spinor):
    assert abs(current(spinor)) <= density(spinor) + 1e-15


def test_growing_right_wave_rejected():
    with pytest.raises(ValueError):
        PlaneWaveState(Spinor(1.0, 0.5), -1.0j, Side.RIGHT)
    PlaneWaveState(Spinor(1.0, 0.5), 1.0j, Side.RIGHT)  # decaying: fine


def test_plane_wave_evaluation():
    pw = PlaneWaveState(Spinor(1.0, A_GOLDEN), 2.0, Side.LEFT)
    value = pw.value_at(-0.7)
    phase = cmath.exp(2.0j * -0.7)
    assert value.upper == pytest.approx(phase, abs=1e-15)
    assert value.lower == pytest.approx(A_GOLDEN * phase, abs=1e-15)


def _transmitted(conv, setup=PhysicalSetup(1.0, 4.0, 2.0)):
    sol = match(kinematics(setup), conv)
    return sol.transmitted, setup


@pytest.mark.parametrize(
    "conv",
    [Convention.MAIN, Convention.LOWER_COMPONENT, Convention.TRADITIONAL],
)
def test_transmitted_waves_are_eigenstates(conv):
    pw, setup = _transmitted(conv)
    result = apply_hamiltonian(pw, setup.step_height, setup.mass_energy)
    assert abs(result.upper - setup.energy * pw.amplitude.upper) < 1e-12
    assert abs(result.lower - setup.energy * pw.amplitude.lower) < 1e-12


def test_negative_energy_wave_is_not_an_eigenstate_at_e():
    pw, setup = _transmitted(Convention.NEGATIVE_ENERGY)
    e, v0 = setup.energy, setup.step_height
    shifted = apply_hamiltonian(pw, v0, setup.mass_energy)
    # under +V0 the eigenvalue is 2V0 - E, not E
    assert abs(shifted.upper - (2.0 * v0 - e) * pw.amplitude.upper) < 1e-12
    assert abs(shifted.lower - (2.0 * v0 - e) * pw.amplitude.lower) < 1e-12
    assert abs(shifted.upper - e * pw.amplitude.upper) > 1.0
    flipped = apply_hamiltonian(pw, -v0, setup.mass_energy)
    assert abs(flipped.upper + e * pw.amplitude.upper) < 1e-12
    assert abs(flipped.lower + e * pw.amplitude.lower) < 1e-12


def test_hamiltonian_linear_in_amplitude():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c1, c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        s1 = Spinor(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
        s2 = Spinor(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
        q = rng.normal()
        combo = Spinor(c1 * s1.upper + c2 * s2.upper, c1 * s1.lower + c2 * s2.lower)
        h = lambda s: apply_hamiltonian(
            PlaneWaveState(s, q, Side.LEFT), 0.7, 1.3
        )
        lhs = h(combo)
        rhs_u = c1 * h(s1).upper + c2 * h(s2).upper
        rhs_l = c1 * h(s1).lower + c2 * h(s2).lower
        assert abs(lhs.upper - rhs_u) < 1e-12
        assert abs(lhs.lower - rhs_l) < 1e-12


def test_charge_conjugation_by_hand():
    pw = PlaneWaveState(Spinor(1.0, -B_GOLDEN), -1.7320508075688773, Side.RIGHT)
    conj = charge_conjugate(pw)
    assert conj.amplitude.upper == pytest.approx(-B_GOLDEN, abs=1e-15)
    assert conj.amplitude.lower == pytest.approx(1.0, abs=1e-15)
    assert conj.wave_number == pytest.approx(1.7320508075688773, abs=1e-15)


def test_charge_conjugation_is_involution():
    pw = PlaneWaveState(Spinor(0.3 + 0.2j, -1.1 + 0.7j), 0.9 + 0.1j, Side.LEFT)
    back = charge_conjugate(charge_conjugate(pw))
    assert back.amplitude == pw.amplitude
    assert back.wave_number == pw.wave_number


def test_charge_conjugation_preserves_density_flips_current():
    pw = PlaneWaveState(Spinor(0.8 + 0.1j, 0.2 - 0.5j), 1.2, Side.LEFT)
    conj = charge_conjugate(pw)
    assert density(conj.amplitude) == pytest.approx(density(pw.amplitude), abs=1e-15)
    assert current(conj.amplitude) == pytest.approx(current(pw.amplitude), abs=1e-15)
    # wave number flips, so the physical propagation direction flips too
    assert conj.wave_number == -pw.wave_number.conjugate()


def test_conjugate_of_main_wave_matches_negative_energy_wave():
    """The negative-energy transmitted wave is the conjugate of the main one."""
    setup = PhysicalSetup(1.0, 4.0, 2.0)
    kin = kinematics(setup)
    main = match(kin, Convention.MAIN).transmitted
    negative = match(kin, Convention.NEGATIVE_ENERGY).transmitted
    conj = charge_conjugate(main)
    assert conj.wave_number == pytest.approx(negative.wave_number, abs=1e-14)
    # proportional amplitudes: cross-ratio of components must vanish
    cross = (
        conj.amplitude.upper * negative.amplitude.lower
        - conj.amplitude.lower * negative.amplitude.upper
    )
    assert abs(cross) < 1e-14


def _parts(z: complex) -> tuple[str, str]:
    """Exact identity of a complex, including the signs of zero."""
    return (z.real.hex(), z.imag.hex())


def _assert_quotients_match(zs, ws):
    got = complex_quotient(np.array(zs, dtype=complex), np.array(ws, dtype=complex))
    mismatches = [
        (z, w) for z, w, q in zip(zs, ws, got.tolist()) if _parts(z / w) != _parts(q)
    ]
    assert mismatches == []


def test_complex_quotient_matches_cpython_on_random_pairs():
    rng = np.random.default_rng(20261018)

    def draw(n):
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-30.0, 30.0, n)

    n = 200_000
    zs = [complex(x, y) for x, y in zip(draw(n), draw(n))]
    ws = [complex(x, y) for x, y in zip(draw(n), draw(n))]
    _assert_quotients_match(zs, ws)


def test_complex_quotient_matches_cpython_on_special_operands():
    # Signed zeros, |Re w| = |Im w|, subnormal and near-overflow parts, and
    # divisors with a real part of +-0.
    parts = [0.0, -0.0, 1.0, -1.0, 3.0, -3.0, 0.1, 5e-324, -5e-324, 1e-310,
             2.2250738585072014e-308, 1e308, -1.7e308, 1.7976931348623157e308]
    values = [complex(x, y) for x in parts for y in parts]
    pairs = [(z, w) for z in values for w in values if w != 0]
    _assert_quotients_match([z for z, _ in pairs], [w for _, w in pairs])


def test_complex_quotient_takes_real_operands_as_cpython_does():
    # A float operand counts as having imaginary part +0.0.
    ws = [complex(0.0, -2.5), complex(-0.0, 3.0), complex(-4.0, -0.0), complex(2.0, 1e-300)]
    got = complex_quotient(1.0, np.array(ws)).tolist()
    assert [_parts(q) for q in got] == [_parts(1.0 / w) for w in ws]
    zs = [complex(-0.0, 1.0), complex(3.0, -0.0), complex(-2.0, 5.0)]
    got = complex_quotient(np.array(zs), np.array([2.0, -3.0, 0.5])).tolist()
    assert [_parts(q) for q in got] == [
        _parts(z / d) for z, d in zip(zs, (2.0, -3.0, 0.5))
    ]


def test_complex_quotient_zero_divisor_gives_nan():
    got = complex_quotient(np.array([1.0 + 1.0j]), np.array([0.0j]))
    assert np.isnan(got.real).all() and np.isnan(got.imag).all()
