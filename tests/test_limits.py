"""Closed-form limits and the exact approach to the impenetrable point."""

import math

import numpy as np
import pytest

from diracstep import (
    BoundaryCondition,
    Convention,
    LimitKind,
    PhysicalSetup,
    PlaneWaveState,
    Side,
    Spinor,
    apply_hamiltonian,
    classify_boundary,
    coefficients,
    current,
    density,
    edge_limit,
    external_force_mean,
    impenetrable_limit,
    infinite_potential_limit,
    kinematics,
    match,
    nonrelativistic_limit,
    sample,
)


def test_impenetrable_main_golden():
    limit = impenetrable_limit(2.0, 1.0, Convention.MAIN)
    psi0 = limit.spinor_at(0.0)
    assert psi0.upper == 0.0
    assert psi0.lower == pytest.approx(1.1547005383792515, abs=1e-13)
    obs = coefficients(limit)
    assert (obs.R, obs.T, obs.v_t) == (1.0, 0.0, 0.0)
    assert limit.force == pytest.approx(-4.0, abs=1e-13)


def test_impenetrable_negative_golden():
    limit = impenetrable_limit(2.0, 1.0, Convention.NEGATIVE_ENERGY)
    psi0 = limit.spinor_at(0.0)
    assert psi0.upper == pytest.approx(2.0, abs=1e-14)
    assert psi0.lower == 0.0
    assert limit.force == pytest.approx(-12.0, abs=1e-13)


def test_impenetrable_lower_equals_main():
    main = impenetrable_limit(2.0, 1.0, Convention.MAIN)
    lower = impenetrable_limit(2.0, 1.0, Convention.LOWER_COMPONENT)
    assert lower.kind is LimitKind.IMPENETRABLE_MAIN
    for x in (-3.0, -0.5, 0.0, 1.0):
        pm, pl = main.spinor_at(x), lower.spinor_at(x)
        assert pm.upper == pl.upper and pm.lower == pl.lower


def test_impenetrable_rejects_traditional():
    with pytest.raises(ValueError):
        impenetrable_limit(2.0, 1.0, Convention.TRADITIONAL)


def _assert_eigen(amplitude, q, potential, mass, eigenvalue):
    pw = PlaneWaveState(amplitude, q, Side.LEFT)
    result = apply_hamiltonian(pw, potential, mass)
    assert abs(result.upper - eigenvalue * amplitude.upper) < 1e-12
    assert abs(result.lower - eigenvalue * amplitude.lower) < 1e-12


def test_main_limit_is_piecewise_eigenstate_at_e():
    """2i sin(kx) / 2a cos(kx) decomposes into two free plane waves, each an
    exact eigenvector; the constant branch beyond the wall is one too."""
    e, m = 2.0, 1.0
    limit = impenetrable_limit(e, m, Convention.MAIN)
    k, a = limit.wave_number, limit.a
    _assert_eigen(Spinor(1.0, a), k, 0.0, m, e)
    _assert_eigen(Spinor(-1.0, a), -k, 0.0, m, e)
    _assert_eigen(Spinor(0.0, 2.0 * a), 0.0, e + m, m, e)


def test_negative_limit_right_branch_keeps_shifted_eigenvalue():
    """The conjugate-wave limit solves the left problem at E, but beyond the
    wall it inherits the 2V0 - E eigenvalue (= E + 2mc2 at the wall), which
    is exactly why it is not a stationary state of the step problem."""
    e, m = 2.0, 1.0
    limit = impenetrable_limit(e, m, Convention.NEGATIVE_ENERGY)
    k, a = limit.wave_number, limit.a
    _assert_eigen(Spinor(1.0, a), k, 0.0, m, e)
    _assert_eigen(Spinor(1.0, -a), -k, 0.0, m, e)
    _assert_eigen(Spinor(2.0, 0.0), 0.0, e + m, m, e + 2.0 * m)


def test_limit_current_vanishes_everywhere():
    for conv in (Convention.MAIN, Convention.NEGATIVE_ENERGY):
        limit = impenetrable_limit(2.0, 1.0, conv)
        for x in (-5.0, -1.2, 0.0, 0.7, 4.0):
            assert abs(current(limit.spinor_at(x))) < 1e-14


def test_limit_force_scale_invariance():
    for scale in (1e-3, 1.0, 42.0):
        limit = impenetrable_limit(2.0 * scale, 1.0 * scale, Convention.MAIN)
        assert limit.force / ((2.0 - 1.0) * scale) == pytest.approx(-4.0, rel=1e-13)


def test_nonrelativistic_main():
    m = 1.0
    e_nr = 0.005
    limit = nonrelativistic_limit(e_nr, m, Convention.MAIN)
    assert limit.a == pytest.approx(0.05, abs=1e-15)
    # exact-formula cross-check at E = mc2 + E_nr
    a_exact = kinematics(PhysicalSetup(m, 4.0, m + e_nr)).a
    assert a_exact == pytest.approx(0.049937616943892234, abs=1e-14)
    assert abs(limit.a - a_exact) < 1e-4
    psi0 = limit.spinor_at(0.0)
    assert psi0.upper == 0.0 and psi0.lower == 0.0
    assert limit.spinor_at(1.0).upper == 0.0
    assert limit.force == pytest.approx(-4.0 * e_nr, rel=1e-14)


def test_nonrelativistic_negative_neumann_form():
    limit = nonrelativistic_limit(0.005, 1.0, Convention.NEGATIVE_ENERGY)
    assert limit.nr_derivative_at_origin() == 0.0
    assert limit.spinor_at(0.0).upper == pytest.approx(2.0)
    assert limit.spinor_at(2.0).upper == pytest.approx(2.0)
    for x in (-3.0, -0.1, 0.0, 1.0):
        assert limit.spinor_at(x).lower == 0.0


def test_nonrelativistic_limit_validation():
    with pytest.raises(ValueError, match="main and negative conventions"):
        nonrelativistic_limit(0.01, 1.0, LimitKind.NONREL_MAIN)
    with pytest.raises(ValueError):
        nonrelativistic_limit(-0.01, 1.0, Convention.MAIN)


def test_infinite_potential_limit_values():
    limit = infinite_potential_limit(2.0, 1.0)
    assert limit.b_limit == -1.0
    assert limit.R == pytest.approx(0.071796769724490826, abs=1e-12)
    assert limit.T == pytest.approx(0.92820323027550917, abs=1e-12)
    assert limit.R + limit.T == pytest.approx(1.0, abs=1e-14)


def _approach(energy, delta):
    """The MAIN solution at V0 = E + mc2 + delta (delta < 0 from the
    evanescent side), its observables, a, and eps = sqrt(|delta| / 2mc2) with
    delta as the setup holds it: V0 - E, and then - mc2, are exact."""
    setup = PhysicalSetup(1.0, energy + 1.0 + delta, energy)
    kin = kinematics(setup)
    sol = match(kin, Convention.MAIN)
    eps = math.sqrt(abs(setup.step_height - energy - 1.0) / 2.0)
    return sol, coefficients(sol), kin.a, eps


DELTAS = [10.0**p for p in range(-12, -3)]


@pytest.mark.parametrize("energy", [1.05, 2.0, 10.0])
def test_klein_side_approach_follows_the_exact_expansion(energy):
    """T = 4a eps (1 - 2a eps + O(eps^2)) and the wall force is
    -4(E - mc2)(1 - 2a eps) + O(delta); their O(eps^2) and O(delta)
    coefficients are -0.43 and -0.205 at E = 1.05, 0.50 and -5.3 at E = 2,
    1.95 and -65 at E = 10."""
    rows = []
    for delta in DELTAS:
        sol, obs, a, eps = _approach(energy, delta)
        assert abs(obs.T / (4.0 * a * eps) - (1.0 - 2.0 * a * eps)) <= 3.0 * eps**2, delta
        wall = -4.0 * (energy - 1.0) * (1.0 - 2.0 * a * eps)
        assert abs(external_force_mean(sol) - wall) <= 4.0 * energy**2 * eps**2, delta
        rows.append((obs.T, obs.R, obs.v_t))
    # T and v_t grow and R falls away from the wall.
    t_values, r_values, v_values = zip(*rows)
    assert list(t_values) == sorted(t_values)
    assert list(r_values) == sorted(r_values, reverse=True)
    assert list(v_values) == sorted(v_values)


def test_near_edge_transmission_value():
    _, obs, a, eps = _approach(2.0, 1e-6)
    assert obs.T == pytest.approx(0.0016316602369923989, rel=1e-9)
    assert obs.T == pytest.approx(4.0 * a * eps * (1.0 - 2.0 * a * eps), rel=eps**2)


@pytest.mark.parametrize("energy", [1.05, 2.0, 10.0])
def test_evanescent_side_force_has_no_sqrt_delta_term(energy):
    for delta in DELTAS:
        sol, obs, _, _ = _approach(energy, -delta)
        assert obs.R == pytest.approx(1.0, abs=1e-12)
        assert obs.T == 0.0
        assert math.isnan(obs.v_t)
        assert external_force_mean(sol) == pytest.approx(-4.0 * (energy - 1.0), rel=1e-12)


EDGE_POINT = PhysicalSetup(1.0, 3.0, 2.0)
EDGE_LOWER = PhysicalSetup(1.0, 1.0, 2.0)


@pytest.mark.parametrize("conv,kind,r,t", [
    (None, LimitKind.IMPENETRABLE_MAIN, -1.0, 0.0),
    (Convention.MAIN, LimitKind.IMPENETRABLE_MAIN, -1.0, 0.0),
    (Convention.LOWER_COMPONENT, LimitKind.IMPENETRABLE_MAIN, -1.0, 2.0 / math.sqrt(3.0)),
    (Convention.TRADITIONAL, LimitKind.IMPENETRABLE_MAIN, -1.0, 0.0),
    (Convention.NEGATIVE_ENERGY, LimitKind.IMPENETRABLE_NEGATIVE, 1.0, 0.0),
])
def test_edge_point_amplitudes_per_parameterization(conv, kind, r, t):
    limit = edge_limit(EDGE_POINT, conv)
    assert limit.kind is kind
    assert limit.convention is (conv or Convention.MAIN)
    assert limit.r == r
    assert limit.t == pytest.approx(t, abs=1e-15)
    reference = impenetrable_limit(
        2.0, 1.0, Convention.NEGATIVE_ENERGY if kind is LimitKind.IMPENETRABLE_NEGATIVE
        else Convention.MAIN,
    )
    assert (limit.wave_number, limit.a, limit.force) == (
        reference.wave_number, reference.a, reference.force)


@pytest.mark.parametrize("conv", [None, Convention.MAIN, Convention.TRADITIONAL])
def test_lower_edge_state(conv):
    """r = 1, t = 2: the IMPENETRABLE_NEGATIVE function with force -4(E - mc2)."""
    limit = edge_limit(EDGE_LOWER, conv)
    assert limit.kind is LimitKind.EDGE_LOWER
    assert limit.convention is (conv or Convention.TRADITIONAL)
    assert (limit.r, limit.t) == (1.0, 2.0)
    obs = coefficients(limit)
    assert (obs.R, obs.T, obs.v_t) == (1.0, 0.0, 0.0)
    assert limit.force == -4.0 * (2.0 - 1.0)
    assert limit.force == -EDGE_LOWER.step_height * density(limit.spinor_at(0.0))
    negative = impenetrable_limit(2.0, 1.0, Convention.NEGATIVE_ENERGY)
    for x in (-3.0, -0.4, 0.0, 2.0):
        assert limit.spinor_at(x) == negative.spinor_at(x)
    report = classify_boundary(limit)
    assert report.classification is BoundaryCondition.DIRICHLET_LOWER
    assert report.impenetrable
    grid = sample(limit, -2.0, 1.0, 7)
    assert grid.metadata["regime"] == "edge-lower"
    assert grid.metadata["convention"] == limit.convention.value
    assert all(j == 0.0 for j in grid.j)


@pytest.mark.parametrize("limit", [
    impenetrable_limit(2.0, 1.0, Convention.MAIN),
    impenetrable_limit(1.3, 1.0, Convention.NEGATIVE_ENERGY),
    edge_limit(EDGE_POINT, Convention.LOWER_COMPONENT),
    edge_limit(EDGE_LOWER),
    edge_limit(PhysicalSetup(0.0, 1.0, 1.0)),
], ids=["main", "negative", "edge-point-lower", "edge-lower", "massless-edge-point"])
def test_limit_coefficients_are_the_closed_form_limits(limit):
    """The plane-wave currents of a limit give R = 1, T = 0, v_t = 0."""
    obs = coefficients(limit)
    assert (obs.R, obs.T, obs.v_t) == (1.0, 0.0, 0.0)
    psi0 = limit.spinor_at(0.0)
    assert (obs.rho0, obs.j0) == (density(psi0), current(psi0))


def test_lower_edge_state_is_an_eigenstate_at_e():
    """Beyond the wall E - V0 = mc2, where the constant [2, 0] is exact."""
    e, m = 2.0, 1.0
    limit = edge_limit(PhysicalSetup(m, e - m, e))
    k, a = limit.wave_number, limit.a
    _assert_eigen(Spinor(1.0, a), k, 0.0, m, e)
    _assert_eigen(Spinor(1.0, -a), -k, 0.0, m, e)
    _assert_eigen(Spinor(2.0, 0.0), 0.0, e - m, m, e)


@pytest.mark.parametrize("conv", [Convention.LOWER_COMPONENT, Convention.NEGATIVE_ENERGY])
def test_lower_edge_refuses_degenerate_parameterizations(conv):
    with pytest.raises(ValueError, match="degenerate at the lower edge"):
        edge_limit(EDGE_LOWER, conv)


def test_edge_limit_refuses_open_regimes():
    with pytest.raises(ValueError, match="KleinZone is not a regime edge"):
        edge_limit(PhysicalSetup(1.0, 4.0, 2.0))


def test_massless_edge_point():
    limit = edge_limit(PhysicalSetup(0.0, 1.0, 1.0), Convention.LOWER_COMPONENT)
    assert (limit.wave_number, limit.a, limit.r, limit.t) == (1.0, 1.0, -1.0, 2.0)
    assert limit.force == -4.0


@pytest.mark.parametrize("conv,kind", [
    (Convention.MAIN, LimitKind.NONREL_MAIN),
    (Convention.NEGATIVE_ENERGY, LimitKind.NONREL_NEGATIVE),
])
def test_nonrelativistic_limit_accepts_the_convention(conv, kind):
    by_conv = nonrelativistic_limit(0.01, 1.0, conv)
    assert (by_conv.kind, by_conv.convention) == (kind, conv)


@pytest.mark.parametrize("conv", [Convention.LOWER_COMPONENT, Convention.TRADITIONAL])
def test_nonrelativistic_limit_refuses_other_conventions(conv):
    with pytest.raises(ValueError, match="main and negative conventions"):
        nonrelativistic_limit(0.01, 1.0, conv)


@pytest.mark.parametrize("energy,mass_energy,cause", [
    (math.inf, 1.0, "energy must be finite, got inf"),
    (math.nan, 1.0, "energy must be finite, got nan"),
    (2.0, math.nan, "mass_energy must be finite and >= 0, got nan"),
    (2.0, -1.0, "mass_energy must be finite and >= 0, got -1.0"),
], ids=["energy-inf", "energy-nan", "mass-nan", "mass-negative"])
@pytest.mark.parametrize("build", [
    lambda e, m: impenetrable_limit(e, m, Convention.MAIN),
    lambda e, m: infinite_potential_limit(e, m),
], ids=["impenetrable", "infinite"])
def test_relativistic_limits_refuse_non_finite_inputs(build, energy, mass_energy, cause):
    with pytest.raises(ValueError, match=cause):
        build(energy, mass_energy)


@pytest.mark.parametrize("energy_nr,mass_energy,cause", [
    (math.inf, 1.0, "energy must be finite, got inf"),
    (math.nan, 1.0, "energy must be finite, got nan"),
    (0.01, math.inf, "mass_energy must be finite and >= 0, got inf"),
    (0.01, math.nan, "mass_energy must be finite and >= 0, got nan"),
], ids=["energy-inf", "energy-nan", "mass-inf", "mass-nan"])
def test_nonrelativistic_limit_refuses_non_finite_inputs(energy_nr, mass_energy, cause):
    with pytest.raises(ValueError, match=cause):
        nonrelativistic_limit(energy_nr, mass_energy, Convention.MAIN)


# Every limit kind as built by the public constructors, at two energies
# (the kinetic energy for the NONREL kinds).
LIMIT_BUILDERS = {
    LimitKind.IMPENETRABLE_MAIN: lambda e: impenetrable_limit(e, 1.0, Convention.MAIN),
    LimitKind.IMPENETRABLE_NEGATIVE:
        lambda e: impenetrable_limit(e, 1.0, Convention.NEGATIVE_ENERGY),
    LimitKind.NONREL_MAIN:
        lambda e: nonrelativistic_limit(e - 1.0, 1.0, Convention.MAIN),
    LimitKind.NONREL_NEGATIVE:
        lambda e: nonrelativistic_limit(e - 1.0, 1.0, Convention.NEGATIVE_ENERGY),
    LimitKind.EDGE_LOWER: lambda e: edge_limit(PhysicalSetup(1.0, e - 1.0, e)),
}


def _standing_wave(kind, k, a, xs):
    """The limit eigenstates in their standing-wave form: the left branch
    at every position, and the constant right branch."""
    s, c, zero = np.sin(k * xs), np.cos(k * xs), np.zeros(len(xs))
    left = {
        LimitKind.IMPENETRABLE_MAIN: (2j * s, 2.0 * a * c),
        LimitKind.IMPENETRABLE_NEGATIVE: (2.0 * c, 2j * a * s),
        LimitKind.EDGE_LOWER: (2.0 * c, 2j * a * s),
        LimitKind.NONREL_MAIN: (2j * s, zero),
        LimitKind.NONREL_NEGATIVE: (2.0 * c, zero),
    }[kind]
    right = {
        LimitKind.IMPENETRABLE_MAIN: (0.0, 2.0 * a),
        LimitKind.NONREL_MAIN: (0.0, 0.0),
    }.get(kind, (2.0, 0.0))
    return left, right


@pytest.mark.parametrize("energy", [1.01, 1.3, 7.0])
@pytest.mark.parametrize("kind", list(LimitKind), ids=lambda kind: kind.value)
def test_sampled_limit_equals_its_standing_wave(kind, energy):
    """Sampled as a sum of plane waves, each limit equals its standing-wave
    form exactly (up to the sign of zero) on a grid across the wall."""
    limit = LIMIT_BUILDERS[kind](energy)
    assert limit.kind is kind
    grid = sample(limit, -7.0, 5.0, 2001)
    xs = np.array(grid.xs)
    # The right branch starts at the second of the two entries at x = 0.
    right = np.arange(len(xs)) > np.flatnonzero(xs == 0.0)[0]
    (phi_left, chi_left), (phi_right, chi_right) = _standing_wave(
        kind, limit.wave_number, limit.a, xs)
    phi, chi = np.array(grid.phi), np.array(grid.chi)
    assert (phi[~right] == phi_left[~right]).all()
    assert (chi[~right] == chi_left[~right]).all()
    assert (phi[right] == phi_right).all()
    assert (chi[right] == chi_right).all()
