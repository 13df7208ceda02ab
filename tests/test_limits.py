"""Closed-form limits and the exact approach to the impenetrable point."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracstep import (
    BoundaryCondition,
    Convention,
    LimitKind,
    PhysicalSetup,
    PlaneWaveState,
    Side,
    Spinor,
    apply_hamiltonian,
    current,
    density,
    edge_limit,
    impenetrable_limit,
    infinite_potential_limit,
    nonrelativistic_limit,
    observe,
    sample,
    solve,
)
from diracstep.core import incident_wave


def test_impenetrable_main_golden():
    limit = impenetrable_limit(2.0, 1.0, Convention.MAIN)
    psi0 = limit.spinor_at(0.0)
    assert psi0.upper == 0.0
    assert psi0.lower == pytest.approx(1.1547005383792515, abs=1e-13)
    obs = observe(limit)
    assert (obs.R, obs.T, obs.v_t) == (1.0, 0.0, 0.0)
    assert observe(limit).force == pytest.approx(-4.0, abs=1e-13)


def test_impenetrable_negative_golden():
    limit = impenetrable_limit(2.0, 1.0, Convention.NEGATIVE_ENERGY)
    psi0 = limit.spinor_at(0.0)
    assert psi0.upper == pytest.approx(2.0, abs=1e-14)
    assert psi0.lower == 0.0
    assert observe(limit).force == pytest.approx(-12.0, abs=1e-13)


def test_impenetrable_lower_equals_main():
    main = impenetrable_limit(2.0, 1.0, Convention.MAIN)
    lower = impenetrable_limit(2.0, 1.0, Convention.LOWER_COMPONENT)
    assert lower.kind is LimitKind.IMPENETRABLE_MAIN
    assert (lower.convention, lower.t) == (Convention.LOWER_COMPONENT, 2.0 * lower.a)
    for x in (-3.0, -0.5, 0.0, 1.0):
        pm, pl = main.spinor_at(x), lower.spinor_at(x)
        assert pm.upper == pl.upper and pm.lower == pl.lower


def _outcome(build, *args):
    """The state ``build`` returns, or the type and message of its ValueError."""
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("conv", [Convention.MAIN, Convention.LOWER_COMPONENT,
                                  Convention.NEGATIVE_ENERGY], ids=lambda c: c.value)
@settings(max_examples=300, deadline=None)
@given(massless=st.booleans(), log_mc2=st.floats(-150.0, 150.0),
       log_excess=st.floats(-12.0, 12.0))
def test_impenetrable_limit_is_the_edge_point_state(conv, massless, log_mc2, log_excess):
    """impenetrable_limit is edge_limit at V0 = E + mc2, field for field and
    in the parameterization asked for, or refuses alike."""
    if massless:
        mc2, e = 0.0, 10.0 ** log_mc2
    else:
        mc2 = 10.0 ** log_mc2
        e = mc2 * (1.0 + 10.0 ** log_excess)
    assert _outcome(impenetrable_limit, e, mc2, conv) == _outcome(
        edge_limit, PhysicalSetup(mc2, e + mc2, e), conv)


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
        assert observe(limit).force / ((2.0 - 1.0) * scale) == pytest.approx(-4.0, rel=1e-13)


def test_nonrelativistic_main():
    m = 1.0
    e_nr = 0.005
    limit = nonrelativistic_limit(e_nr, m, Convention.MAIN)
    assert limit.a == pytest.approx(0.05, abs=1e-15)
    # exact-formula cross-check at E = mc2 + E_nr
    a_exact = incident_wave(m + e_nr, m)[1]
    assert a_exact == pytest.approx(0.049937616943892234, abs=1e-14)
    assert abs(limit.a - a_exact) < 1e-4
    psi0 = limit.spinor_at(0.0)
    assert psi0.upper == 0.0 and psi0.lower == 0.0
    assert limit.spinor_at(1.0).upper == 0.0
    assert observe(limit).force == pytest.approx(-4.0 * e_nr, rel=1e-14)


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


@pytest.mark.parametrize("e_kin,mc2", [(5e307, 1e308), (4.5e307, 4.5e307),
                                        (1.7e308, 1.7e308)])
def test_nonrelativistic_limit_refuses_overflow(e_kin, mc2):
    """Below E_kin = 2mc2 the force -4 E_kin is the one value that can leave
    the double range; k = sqrt(2 mc2 E_kin) overflows only with it (the last
    case)."""
    with pytest.raises(ValueError) as info:
        nonrelativistic_limit(e_kin, mc2, Convention.MAIN)
    assert str(info.value) == f"-4 E_kin overflows (E_kin={e_kin}, mc2={mc2})"


@pytest.mark.parametrize("conv", [Convention.MAIN, Convention.NEGATIVE_ENERGY],
                         ids=lambda conv: conv.value)
@pytest.mark.parametrize("e_kin,mc2", [(2.0, 1.0), (6.0, 1.0), (999.0, 1.0), (3e-300, 1e-300),
                                       (1e308, 1.0), (1e300, 1e-300), (5e307, 1.0)])
def test_nonrelativistic_limit_refuses_kinetic_energy_from_2mc2(e_kin, mc2, conv):
    """a = sqrt(E_kin / 2mc2) < 1 for every relativistic state, so the
    reduction is refused from E_kin = 2mc2 on, with that cause, before any
    overflow; just below, it builds at any scale."""
    with pytest.raises(ValueError) as info:
        nonrelativistic_limit(e_kin, mc2, conv)
    a_limit = math.sqrt(e_kin / (2.0 * mc2))
    assert str(info.value) == (f"sqrt(E_kin / 2mc2) = {a_limit} >= 1: E_kin >= 2 mc2 is "
                               f"not nonrelativistic (E_kin={e_kin}, mc2={mc2})")
    assert nonrelativistic_limit(1.99 * mc2, mc2, conv).a < 1.0


@pytest.mark.parametrize("e_kin,mc2", [(2.0**-1024, 2.0**-1022), (5e-324, 1e-300),
                                       (2.0**-1044, 2.0**1000), (5e-324, 1e300)])
def test_nonrelativistic_limit_refuses_k_or_a_below_the_normal_range(e_kin, mc2):
    """k = sqrt(2 mc2 E_kin) below 2^-1022 (the first two) or a = sqrt(E_kin /
    2mc2) there (the other two) would lose bits, so the state is refused."""
    with pytest.raises(ValueError) as info:
        nonrelativistic_limit(e_kin, mc2, Convention.MAIN)
    assert str(info.value) == ("sqrt(2 mc2 E_kin) or sqrt(E_kin / 2mc2) underflows "
                               f"(E_kin={e_kin}, mc2={mc2})")


@pytest.mark.parametrize("e_kin,mc2,k,a", [
    (2.0**-1023, 2.0**-1022, 2.0**-1022, 0.5), (2.0**-1043, 2.0**1000, 2.0**-21, 2.0**-1022),
    (1e-10, 1e300, 1.4142135623730951e145, 7.071067811865475e-156),
    (5e-324, 1.0, 3.1434555694052576e-162, 1.5717277847026288e-162),
])
def test_nonrelativistic_limit_builds_k_and_a_at_any_ratio(e_kin, mc2, k, a):
    """k and a are each formed from the mantissas and exponents of E_kin and
    mc2, so each is built wherever it is a normal double, 2^-1022 included,
    whether or not 2 mc2 E_kin or E_kin / 2mc2 is, and the force is -4 E_kin."""
    limit = nonrelativistic_limit(e_kin, mc2, Convention.MAIN)
    assert (limit.wave_number, limit.a) == (k, a)
    assert abs(observe(limit).force + 4.0 * e_kin) <= 4.0 * math.ulp(4.0 * e_kin)


@settings(max_examples=300, deadline=None)
@given(st.floats(-12.0, math.log10(1.9)), st.integers(-960, 960),
       st.sampled_from((Convention.MAIN, Convention.NEGATIVE_ENERGY)))
def test_nonrelativistic_limit_at_every_power_of_two_scale(log_ratio, s, conv):
    """E_kin and mc2 times 2^s: k, the slope at the wall and the force are
    the unit state's times 2^s and a is unchanged, bit for bit, where 2 mc2
    E_kin itself would leave the normal range too (|s| > 500)."""
    base = nonrelativistic_limit(10.0**log_ratio, 1.0, conv)
    limit = nonrelativistic_limit(math.ldexp(10.0**log_ratio, s), math.ldexp(1.0, s), conv)
    assert limit.a == base.a
    for value, unit in ((limit.wave_number, base.wave_number),
                        (observe(limit).force, observe(base).force),
                        (limit.nr_derivative_at_origin().imag,
                         base.nr_derivative_at_origin().imag)):
        assert value.hex() == math.ldexp(unit, s).hex()


@pytest.mark.parametrize("conv,slope", [
    (Convention.MAIN, lambda k: 2j * k),
    (Convention.NEGATIVE_ENERGY, lambda k: 0j),
])
def test_nr_derivative_is_the_left_slope_of_the_upper_component(conv, slope):
    """i·k·(1 − r) gives 2ik (Dirichlet, 2i·sin kx) and 0 (Neumann,
    2·cos kx) bit for bit, and agrees with a centred difference of the left
    branch."""
    limit = nonrelativistic_limit(0.01, 1.0, conv)
    k = limit.wave_number
    deriv = limit.nr_derivative_at_origin()
    assert (deriv.real, deriv.imag) == (slope(k).real, slope(k).imag)
    h = 1e-6
    diff = (limit.left_value_at(h).upper - limit.left_value_at(-h).upper) / (2 * h)
    assert abs(diff - deriv) < 1e-9


@pytest.mark.parametrize("conv", [Convention.MAIN, Convention.NEGATIVE_ENERGY],
                         ids=lambda conv: conv.value)
def test_nr_second_derivative_is_the_left_curvature_of_the_upper_component(conv):
    """-k^2 (1 + r): 0 on the Dirichlet wall, -2k^2 on the Neumann wall, as
    a centred second difference of the left branch gives it."""
    limit = nonrelativistic_limit(0.01, 1.0, conv)
    k = limit.wave_number
    curvature = -(1.0 + limit.r) * k * k
    h = 1e-4
    left = [limit.left_value_at(x).upper for x in (-h, 0.0, h)]
    assert abs((left[0] - 2.0 * left[1] + left[2]) / h**2 - curvature) < 1e-6


# Paper values of the relativistic wall forces, -4(E -+ mc2), by kind.
PAPER_FORCE = {
    LimitKind.IMPENETRABLE_MAIN: lambda e, m: -4.0 * (e - m),
    LimitKind.IMPENETRABLE_NEGATIVE: lambda e, m: -4.0 * (e + m),
    LimitKind.EDGE_LOWER: lambda e, m: -4.0 * (e - m),
}


def _relativistic_limits(e, m):
    """Every relativistic limit at (E, mc2), by each constructor and
    convention that builds one."""
    limits = [impenetrable_limit(e, m, conv) for conv in
              (Convention.MAIN, Convention.LOWER_COMPONENT, Convention.NEGATIVE_ENERGY)]
    limits += [edge_limit(PhysicalSetup(m, e + m, e), conv)
               for conv in (None, *Convention)]
    if m > 0.0:
        limits += [edge_limit(PhysicalSetup(m, e - m, e), conv)
                   for conv in (None, Convention.MAIN, Convention.TRADITIONAL)]
    return limits


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((0.0, 1e-3, 1.0, 1e3)), st.floats(-12.0, 6.0))
def test_relativistic_limit_force_is_read_from_the_state(mc2, log_excess):
    """E/mc2 - 1 from 1e-12 to 1e6 (E from 1e-12 to 1e6 at mc2 = 0): the
    force of every relativistic kind is -V0 rho(0) of the state at its step
    height, bit for bit, within 4 ulps of the paper's value; its boundary
    force is within 4 ulps of -4(E - mc2) for every kind, 8mc2 above the
    force under the negative-energy wave."""
    e = mc2 * (1.0 + 10.0**log_excess) if mc2 > 0.0 else 10.0**log_excess
    kinds = set()
    for limit in _relativistic_limits(e, mc2):
        kinds.add(limit.kind)
        assert limit.step_height == (e - mc2 if limit.kind is LimitKind.EDGE_LOWER
                                     else e + mc2)
        force = observe(limit).force
        assert force == -limit.step_height * density(limit.spinor_at(0.0))
        paper = PAPER_FORCE[limit.kind](e, mc2)
        assert abs(force - paper) <= 4.0 * math.ulp(paper), limit.kind
        boundary = -4.0 * (e - mc2)
        assert abs(observe(limit).boundary_force - boundary) <= 4.0 * math.ulp(boundary)
    assert kinds == set(PAPER_FORCE) - ({LimitKind.EDGE_LOWER} if mc2 == 0.0 else set())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1e-3, 1.0, 1e3)), st.floats(-12.0, math.log10(1.9)),
       st.sampled_from((Convention.MAIN, Convention.NEGATIVE_ENERGY)))
def test_nonrelativistic_limit_force_is_read_from_the_state(mc2, log_ratio, conv):
    """E_kin/mc2 from 1e-12 to 1.9: the force of both NONREL kinds, and its
    boundary force, is the hard-wall force (Re psi* psi'' - |psi'|^2)/2m of the
    Schroedinger wavefunction, bit for bit, from its derivatives in units of k
    scaled by k^2/m, within 4 ulps of the paper's -4 E_kin.  On the Dirichlet
    wall it is also -|psi'(0)|^2/2m of the derivative itself, bit for bit."""
    e_kin = mc2 * 10.0**log_ratio
    limit = nonrelativistic_limit(e_kin, mc2, conv)
    assert limit.step_height == math.inf
    k, r, psi0 = limit.wave_number, limit.r, limit.spinor_at(0.0).upper
    slope, curvature = 1j * (1 - r), -(1 + r)
    assert limit.nr_derivative_at_origin() == k * slope
    force = observe(limit).force
    cross = (0.5 * complex(psi0).conjugate() * curvature).real
    assert force == k * (k / mc2) * (cross - 0.5 * abs(slope) * abs(slope))
    assert observe(limit).boundary_force == force
    if conv is Convention.MAIN:
        psi_x = limit.nr_derivative_at_origin()
        assert force == -0.5 * abs(psi_x) * (abs(psi_x) / mc2)
    assert abs(force + 4.0 * e_kin) <= 4.0 * math.ulp(4.0 * e_kin)


def test_infinite_potential_limit_values():
    limit = infinite_potential_limit(2.0, 1.0)
    assert limit.R == pytest.approx(0.071796769724490826, abs=1e-12)
    assert limit.T == pytest.approx(0.92820323027550917, abs=1e-12)
    assert limit.R + limit.T == pytest.approx(1.0, abs=1e-14)
    # b -> -1 in the continuity system: the far matched state approaches it.
    far = observe(solve(PhysicalSetup(1.0, 1e8, 2.0), Convention.MAIN))
    assert far.R == pytest.approx(limit.R, abs=1e-7)


@pytest.mark.parametrize("conv", list(Convention))
def test_infinite_potential_limit_is_observed_under_an_infinite_step(conv):
    """The one observation at V₀ = ∞ of a state that stores no step height:
    its force −V₀·ρ(0) reads −∞, and the transmitted wave t·[1, ±1] carries
    current at the speed of light, so the wall is neither classified nor
    impenetrable."""
    limit = infinite_potential_limit(2.0, 1.0, conv)
    assert limit.force == -math.inf
    assert limit.rho0 == pytest.approx(2.0 * abs(limit.t) ** 2, rel=1e-15)
    assert limit.v_t == (-1.0 if conv is Convention.TRADITIONAL else 1.0)
    assert limit.boundary is BoundaryCondition.NONE
    assert not limit.impenetrable


@settings(max_examples=400, deadline=None)
@given(st.floats(1.0 + 1e-12, 1e15), st.sampled_from([0.0, 1e-100, 1.0, 1e100]),
       st.sampled_from(list(Convention)))
def test_infinite_potential_limit_against_its_closed_forms(ratio, mc2, conv):
    """V0 -> infinity against R = ((a -+ 1)/(a +- 1))^2 and T = 1 - R, formed
    in exact rational arithmetic on a: the upper signs for main, lower and
    negative, the lower for traditional, which is singular where a = 1.
    The continuity solve and the currents round R at up to 9 places and T
    at 6, so the bound is 4 ulps of the value's scale, 4 * 2^-52 * |exact|,
    not of its binade: just below a power of two math.ulp is half that."""
    e = ratio * mc2 if mc2 else ratio
    _, a = incident_wave(e, mc2)
    traditional = conv is Convention.TRADITIONAL
    if traditional and a == 1.0:
        with pytest.raises(ValueError, match="singular for 'traditional'"):
            infinite_potential_limit(e, mc2, conv)
        return
    obs = infinite_potential_limit(e, mc2, conv)
    x = Fraction(a)
    exact_r = ((x + 1) / (x - 1) if traditional else (x - 1) / (x + 1)) ** 2
    for value, exact in ((obs.R, exact_r), (obs.T, 1 - exact_r)):
        assert abs(Fraction(value) - exact) <= 4 * Fraction(2.0**-52) * abs(exact)


def test_infinite_potential_limit_traditional_is_singular_where_a_rounds_to_1():
    assert incident_wave(1e17, 1.0)[1] == 1.0
    with pytest.raises(ValueError, match="singular for 'traditional'"):
        infinite_potential_limit(1e17, 1.0, Convention.TRADITIONAL)


def _approach(energy, delta):
    """The observation of the MAIN solution at V0 = E + mc2 + delta (delta < 0
    from the evanescent side), a, and eps = sqrt(|delta| / 2mc2) with
    delta as the setup holds it: V0 - E, and then - mc2, are exact."""
    setup = PhysicalSetup(1.0, energy + 1.0 + delta, energy)
    sol = solve(setup, Convention.MAIN)
    eps = math.sqrt(abs(setup.step_height - energy - 1.0) / 2.0)
    return observe(sol), sol.incident.amplitude.lower, eps


DELTAS = [10.0**p for p in range(-12, -3)]


@pytest.mark.parametrize("energy", [1.05, 2.0, 10.0])
def test_klein_side_approach_follows_the_exact_expansion(energy):
    """T = 4a eps (1 - 2a eps + O(eps^2)) and the wall force is
    -4(E - mc2)(1 - 2a eps) + O(delta); their O(eps^2) and O(delta)
    coefficients are -0.43 and -0.205 at E = 1.05, 0.50 and -5.3 at E = 2,
    1.95 and -65 at E = 10."""
    rows = []
    for delta in DELTAS:
        obs, a, eps = _approach(energy, delta)
        assert abs(obs.T / (4.0 * a * eps) - (1.0 - 2.0 * a * eps)) <= 3.0 * eps**2, delta
        wall = -4.0 * (energy - 1.0) * (1.0 - 2.0 * a * eps)
        assert abs(obs.force - wall) <= 4.0 * energy**2 * eps**2, delta
        rows.append((obs.T, obs.R, obs.v_t))
    # T and v_t grow and R falls away from the wall.
    t_values, r_values, v_values = zip(*rows)
    assert list(t_values) == sorted(t_values)
    assert list(r_values) == sorted(r_values, reverse=True)
    assert list(v_values) == sorted(v_values)


def test_near_edge_transmission_value():
    obs, a, eps = _approach(2.0, 1e-6)
    assert obs.T == pytest.approx(0.0016316602369923989, rel=1e-9)
    assert obs.T == pytest.approx(4.0 * a * eps * (1.0 - 2.0 * a * eps), rel=eps**2)


@pytest.mark.parametrize("energy", [1.05, 2.0, 10.0])
def test_evanescent_side_force_has_no_sqrt_delta_term(energy):
    for delta in DELTAS:
        obs, _, _ = _approach(energy, -delta)
        assert obs.R == pytest.approx(1.0, abs=1e-12)
        assert obs.T == 0.0
        assert math.isnan(obs.v_t)
        assert obs.force == pytest.approx(-4.0 * (energy - 1.0), rel=1e-12)


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
    assert (limit.wave_number, limit.a, observe(limit).force) == (
        reference.wave_number, reference.a, observe(reference).force)


@pytest.mark.parametrize("conv", [None, Convention.MAIN, Convention.TRADITIONAL])
def test_lower_edge_state(conv):
    """r = 1, t = 2: the IMPENETRABLE_NEGATIVE function with force -4(E - mc2)."""
    limit = edge_limit(EDGE_LOWER, conv)
    assert limit.kind is LimitKind.EDGE_LOWER
    assert limit.convention is (conv or Convention.TRADITIONAL)
    assert (limit.r, limit.t) == (1.0, 2.0)
    obs = observe(limit)
    assert (obs.R, obs.T, obs.v_t) == (1.0, 0.0, 0.0)
    assert observe(limit).force == -4.0 * (2.0 - 1.0)
    assert observe(limit).force == -EDGE_LOWER.step_height * density(limit.spinor_at(0.0))
    negative = impenetrable_limit(2.0, 1.0, Convention.NEGATIVE_ENERGY)
    for x in (-3.0, -0.4, 0.0, 2.0):
        assert limit.spinor_at(x) == negative.spinor_at(x)
    assert obs.boundary is BoundaryCondition.DIRICHLET_LOWER
    assert obs.impenetrable
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
    obs = observe(limit)
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
    assert observe(limit).force == -4.0


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


NONREL_KINDS = (LimitKind.NONREL_MAIN, LimitKind.NONREL_NEGATIVE)


# At 7.0 the NONREL kinds would have E_kin = 6 >= 2mc2, which
# test_nonrelativistic_limit_refuses_kinetic_energy_from_2mc2 refuses.
@pytest.mark.parametrize("kind,energy", [
    pytest.param(kind, energy, id=f"{kind.value}-{energy}")
    for kind in LimitKind for energy in (1.01, 1.3, 7.0)
    if energy < 7.0 or kind not in NONREL_KINDS
])
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
