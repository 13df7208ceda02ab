"""Wall forces: external step force and boundary quantum force, both read
from ``observe``."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracstep import (
    BoundaryCondition,
    Convention,
    PhysicalSetup,
    density,
    impenetrable_limit,
    infinite_potential_limit,
    nonrelativistic_limit,
    observe,
)
from diracstep.table import record, solve

GOLDEN = PhysicalSetup(1.0, 4.0, 2.0)


def test_external_force_golden():
    sol = solve(GOLDEN, Convention.MAIN)
    assert observe(sol).force == pytest.approx(-4.0, abs=1e-12)


def test_external_force_is_negative():
    rng = np.random.default_rng(3)
    for _ in range(200):
        e = float(np.exp(rng.uniform(np.log(1.01), np.log(1e2))))
        v0 = float(rng.uniform(e + 1.0, 4.0 * (e + 1.0)))
        sol = solve(PhysicalSetup(1.0, v0, e), Convention.MAIN)
        assert observe(sol).force < 0.0


def test_impenetrable_limit_forces_by_convention():
    main = impenetrable_limit(2.0, 1.0, Convention.MAIN)
    assert observe(main).force == pytest.approx(-4.0, abs=1e-14)
    negative = impenetrable_limit(2.0, 1.0, Convention.NEGATIVE_ENERGY)
    assert observe(negative).force == pytest.approx(-12.0, abs=1e-14)


def test_boundary_force_examples():
    """The wall spinors [0, 2a] and [2, 0] at E = 2 both carry the boundary
    force -4; so does a nonrelativistic limit, whose boundary force is its
    hard-wall force."""
    for conv in (Convention.MAIN, Convention.NEGATIVE_ENERGY):
        assert observe(impenetrable_limit(2.0, 1.0, conv)).boundary_force == pytest.approx(
            -4.0, abs=1e-13)
        obs = observe(nonrelativistic_limit(0.01, 1.0, conv))
        assert obs.boundary_force == obs.force == pytest.approx(-0.04, rel=1e-14)


def test_force_discrepancy_for_negative_energy_convention():
    """External and boundary force disagree at the wall for the conjugate wave."""
    for e in (1.5, 2.0, 7.0):
        obs = observe(impenetrable_limit(e, 1.0, Convention.NEGATIVE_ENERGY))
        assert obs.boundary_force == pytest.approx(-4.0 * (e - 1.0), rel=1e-13)
        assert obs.force == pytest.approx(-4.0 * (e + 1.0), rel=1e-13)
        assert obs.force != obs.boundary_force
        assert abs(obs.force - obs.boundary_force) == pytest.approx(8.0, rel=1e-12)


@pytest.mark.parametrize("conv", [Convention.MAIN, Convention.LOWER_COMPONENT])
@settings(max_examples=200, deadline=None)
@given(st.floats(1.0 + 1e-9, 1e6))
def test_force_is_constant_across_the_evanescent_band(conv, e):
    """Every evanescent state reflects totally, T = 0, so its wall force is
    -4(E - mc2) at every V0 in (E - mc2, E + mc2), not only at the edge: at
    V0 = E - 1/2, E and E + 1/2, the external force within 16 ulps relative,
    the boundary force within 32 ulps of E."""
    target = -4.0 * (e - 1.0)
    for v0 in (e - 0.5, e, e + 0.5):
        obs = observe(solve(PhysicalSetup(1.0, v0, e), conv))
        assert obs.T == 0.0
        assert abs(obs.force - target) <= 16 * 2.0**-52 * abs(target), v0
        assert abs(obs.boundary_force - target) <= 32 * 2.0**-52 * e, v0


def test_two_sided_force_limit():
    """Wall force from both approach branches converges to -4(E - mc2).

    The Klein branch converges like sqrt(delta), so a 1e-5 agreement at
    delta = 1e-8 requires a modest energy (a^3(E + mc2) small); the
    evanescent branch is constant, -4(E - mc2) at every V0 in the band.
    """
    e, delta = 1.05, 1e-8
    target = -4.0 * (e - 1.0)
    for sign in (+1.0, -1.0):
        setup = PhysicalSetup(1.0, (e + 1.0) + sign * delta, e)
        force = observe(solve(setup, Convention.MAIN)).force
        assert abs(force - target) < 1e-5


def test_two_sided_force_limit_tight_near_threshold():
    """At 1e-6 agreement the sqrt(delta) rate pins the energy even lower."""
    e, delta = 1.01, 1e-8
    target = -4.0 * (e - 1.0)
    for sign in (+1.0, -1.0):
        setup = PhysicalSetup(1.0, (e + 1.0) + sign * delta, e)
        force = observe(solve(setup, Convention.MAIN)).force
        assert abs(force - target) < 1e-6


def test_two_sided_density_converges_to_4a2():
    e = 2.0
    a2 = (e - 1.0) / (e + 1.0)
    for sign in (+1.0, -1.0):
        previous = None
        for delta in (1e-2, 1e-4, 1e-6, 1e-8):
            setup = PhysicalSetup(1.0, (e + 1.0) + sign * delta, e)
            sol = solve(setup, Convention.MAIN)
            gap = abs(observe(sol).force / -setup.step_height - 4.0 * a2)
            if previous is not None:
                assert gap < previous
            previous = gap
        assert previous < 1e-3


@settings(max_examples=200, deadline=None)
@given(st.floats(1.0 + 1e-9, 1e6), st.floats(1e-6, 1.0 - 1e-6))
def test_external_force_mean_is_minus_v0_density_at_the_wall_bit_for_bit(e, where):
    """On matched states in every open regime, both edge states and both
    impenetrable limits, under every convention that builds: the wall force
    of ``observe`` is −V₀ times the density of the spinor at the wall, and
    its R, T, rho0, j0, v_t, force and wall class are those of its setup's
    ``table.record`` row, bit for bit.  The nonrelativistic limits have no
    row: they are classified as Dirichlet or Neumann, carry no current (R, T
    and v_t NaN), are impenetrable, and their force is the hard-wall force."""
    steps = ((e + 1.0) * (1.0 + 2.0 * where), (e - 1.0) * where, e - 1.0 + 2.0 * where,
             e + 1.0, e - 1.0)
    edge = PhysicalSetup(1.0, e + 1.0, e)
    cases = [(edge, conv, impenetrable_limit(e, 1.0, conv))
             for conv in (Convention.MAIN, Convention.NEGATIVE_ENERGY)]
    for v0 in steps:
        for conv in Convention:
            setup = PhysicalSetup(1.0, v0, e)
            try:
                cases.append((setup, conv, solve(setup, conv)))
            except ValueError:  # growing, singular or degenerate at this setup
                pass
    fields = ("R", "T", "rho0", "j0", "v_t")
    for setup, conv, sol in cases:
        reference = -sol.step_height * density(sol.spinor_at(0.0))
        row = record(setup, conv)
        obs = observe(sol)
        assert obs.force.hex() == reference.hex() == row["force"].hex()
        assert obs.boundary.value == row["boundary"]
        assert [getattr(obs, name).hex() for name in fields] == [row[name].hex()
                                                                 for name in fields]
    for conv, wall in ((Convention.MAIN, BoundaryCondition.DIRICHLET_NR),
                       (Convention.NEGATIVE_ENERGY, BoundaryCondition.NEUMANN_NR)):
        sol = nonrelativistic_limit(where, 1.0, conv)
        obs = observe(sol)
        assert obs.boundary is wall
        assert all(math.isnan(value) for value in (obs.R, obs.T, obs.v_t))
        assert obs.force.hex() == observe(sol).force.hex() == obs.boundary_force.hex()
        assert obs.force == pytest.approx(-4.0 * where, rel=1e-14)
        assert obs.impenetrable


def _dirichlet_force(psi_nr_deriv0, mass_energy):
    """The hard-wall force with psi(0) = 0, as a formula of its own."""
    return -abs(psi_nr_deriv0) ** 2 / (2.0 * mass_energy)


def _neumann_force(psi_nr0, psi_nr_second_deriv0, mass_energy):
    """The wall force with psi_x(0) = 0, as a formula of its own."""
    return (complex(psi_nr0).conjugate() * psi_nr_second_deriv0).real / (2.0 * mass_energy)


@pytest.mark.parametrize("e_nr", [1e-2, 1e-4, 1e-6])
def test_hard_wall_force_on_a_dirichlet_wall(e_nr):
    m = 1.0
    limit = nonrelativistic_limit(e_nr, m, Convention.MAIN)
    assert limit.wave_number == math.sqrt(2.0 * m * e_nr)
    force = observe(limit).boundary_force
    assert force == _dirichlet_force(2j * limit.wave_number, m)
    assert force == pytest.approx(-4.0 * e_nr, rel=1e-13)


@pytest.mark.parametrize("e_nr", [1e-2, 1e-4, 1e-6])
def test_hard_wall_force_on_a_neumann_wall(e_nr):
    m = 1.0
    limit = nonrelativistic_limit(e_nr, m, Convention.NEGATIVE_ENERGY)
    assert limit.wave_number == math.sqrt(2.0 * m * e_nr)
    force = observe(limit).boundary_force
    assert force == _neumann_force(2.0, -2.0 * limit.wave_number**2, m)
    assert force == pytest.approx(-4.0 * e_nr, rel=1e-13)


def _wall_formula(limit, conv):
    """The hard-wall force of a nonrelativistic limit by its wall's formula,
    from the limit's own k: Dirichlet on the main wave, Neumann on the
    negative-energy wave."""
    k, m = limit.wave_number, limit.mass_energy
    if conv is Convention.MAIN:
        return _dirichlet_force(2j * k, m)
    return _neumann_force(2.0, -2.0 * k**2, m)


@pytest.mark.parametrize("conv", [Convention.MAIN, Convention.NEGATIVE_ENERGY])
@settings(max_examples=300, deadline=None)
@given(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300))
def test_hard_wall_force_within_two_ulps_of_each_wall_formula(conv, m, e_nr):
    """At any mass the square is divided by m before it is formed, one
    rounding away from the wall formulas above, wherever their squares
    (8 mc2 E_kin) stay normal and finite."""
    assume(e_nr < 1.9 * m and 1e-290 < 8.0 * m * e_nr < 1e308)
    limit = nonrelativistic_limit(e_nr, m, conv)
    force, reference = observe(limit).boundary_force, _wall_formula(limit, conv)
    if abs(reference) > 1e-290:
        assert abs(force - reference) <= 2.0 * math.ulp(reference)


@pytest.mark.parametrize("conv", [Convention.MAIN, Convention.NEGATIVE_ENERGY])
def test_hard_wall_force_does_not_overflow_where_it_is_finite(conv):
    """|psi_x|^2 = 4k^2 = 4e308 on the Dirichlet wall, and psi* psi_xx = -4k^2
    on the Neumann wall, overflow a double; the force -2e154 does not."""
    limit = nonrelativistic_limit(5e153, 1e154, conv)
    k = limit.wave_number
    assert 4.0 * (k * k) == math.inf
    assert observe(limit).boundary_force == pytest.approx(-2e154, rel=1e-15)


def test_nr_limit_of_relativistic_force():
    """boundary force / (-4 E_nr) -> 1 as E -> mc2."""
    ratios = []
    for e_nr in (1e-2, 1e-4, 1e-6):
        e = 1.0 + e_nr
        wall = observe(impenetrable_limit(e, 1.0, Convention.MAIN)).boundary_force
        ratios.append(wall / (-4.0 * (e - 1.0)))
    for ratio in ratios:
        assert ratio == pytest.approx(1.0, rel=1e-9)


def _flux_bracket(psi, energy, mass_energy):
    """The flux bracket -E rho + mc2 (|upper|^2 - |lower|^2), as a formula of
    its own."""
    up2, lo2 = abs(psi.upper) ** 2, abs(psi.lower) ** 2
    return -energy * (up2 + lo2) + mass_energy * (up2 - lo2)


def test_flux_bracket_constant_for_wall_state():
    """The d<p>/dt bracket has the same value at x=0 and far away,
    both pointwise and averaged over one oscillation period; at x = 0 it is
    the boundary force of ``observe``, bit for bit."""
    e = 2.0
    limit = impenetrable_limit(e, 1.0, Convention.MAIN)
    k = limit.wave_number
    at_zero = _flux_bracket(limit.spinor_at(0.0), e, 1.0)
    assert at_zero.hex() == observe(limit).boundary_force.hex()
    assert at_zero == pytest.approx(-4.0 * (e - 1.0), rel=1e-13)
    # pointwise far from the wall
    for x in (-25.0, -7.3, -0.1):
        assert _flux_bracket(limit.spinor_at(x), e, 1.0) == pytest.approx(at_zero, rel=1e-12)
    # cell average over one period at x -> -infinity
    period = math.pi / k
    xs = np.linspace(-40.0, -40.0 + period, 20001)
    values = [_flux_bracket(limit.spinor_at(x), e, 1.0) for x in xs]
    average = np.trapezoid(values, xs) / period
    assert average == pytest.approx(at_zero, rel=1e-10)


def test_boundary_force_is_the_bracket_where_only_e_rho_overflows():
    """A transmission state near 2.5e307 whose E·ρ(0) leaves the double range,
    while the bracket −(E − mc²)|upper|² − (E + mc²)|lower|² and the force do
    not: the boundary force is that bracket, up to its own cancellation
    (E − mc² ≈ 2e-5·mc² here), not NaN."""
    setup = PhysicalSetup(2.4731698131049733e307, 3.081786263551452e302, 2.4732205249599486e307)
    state = solve(setup, Convention.LOWER_COMPONENT)
    obs = observe(state)
    assert setup.energy * obs.rho0 == math.inf and math.isfinite(obs.force)
    assert obs.boundary_force == -2.0227377858244656e+304
    psi = state.spinor_at(0.0)
    up2, lo2 = (Fraction(c.real) ** 2 + Fraction(c.imag) ** 2 for c in (psi.upper, psi.lower))
    e, m = Fraction(setup.energy), Fraction(setup.mass_energy)
    exact = -(e - m) * up2 - (e + m) * lo2
    assert abs(Fraction(obs.boundary_force) - exact) <= Fraction(1e-10) * abs(exact)


@st.composite
def scaled_states(draw):
    """A scale 2^s, |s| ≤ 1020, most often one of the five largest that keep the
    scaled energies finite, and the builder of a state at mc² = 1, E − mc² from
    1e-6 to 1e3: on either edge, under V₀ from 1e-6 to 3 times E + mc², or the
    V₀ = ∞ state, in each convention.  Near E = mc² the bracket is far below E·ρ(0)."""
    e = 1.0 + 10.0 ** draw(st.floats(-6.0, 3.0))
    under = (e + 1.0) * draw(st.floats(1e-6, 3.0))
    v0 = draw(st.sampled_from((e + 1.0, e - 1.0, math.inf, under)))
    top = sys.float_info.max_exp - math.frexp(v0 if math.isfinite(v0) and v0 > e else e)[1]
    s = draw(st.integers(top - 4, min(top, 1020)) | st.integers(-1020, min(top, 1020)))
    # Every scaled energy stays normal, so the scaled setup is exact.
    assume(math.ldexp(min(v0, e), s) >= sys.float_info.min)
    conv = draw(st.sampled_from((None, *Convention)))
    if v0 == math.inf:
        return s, lambda x: infinite_potential_limit(e * x, x, conv or Convention.MAIN)
    return s, lambda x: solve(PhysicalSetup(x, v0 * x, e * x), conv)


@settings(max_examples=300, deadline=None)
@given(scaled_states())
def test_boundary_force_at_every_power_of_two_scale_is_the_scaled_force(case):
    """The state at (mc², V₀, E)·2^s has the amplitudes of the unscaled one, so
    its boundary force is the unscaled one times 2^s, bit for bit, wherever that
    product is finite and normal, and ±inf where it overflows."""
    s, build = case
    try:
        base, scaled = (observe(build(x)).boundary_force for x in (1.0, math.ldexp(1.0, s)))
    except ValueError:  # refused at one scale: no state to compare
        assume(False)
    try:
        expected = math.ldexp(base, s)
    except OverflowError:
        assert scaled == math.copysign(math.inf, base)
        return
    if abs(expected) >= sys.float_info.min:
        assert scaled.hex() == expected.hex()
