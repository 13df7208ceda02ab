"""Wall forces: external step force and boundary quantum force."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracstep import forces
from diracstep import (
    BoundaryCondition,
    Convention,
    PhysicalSetup,
    Spinor,
    density,
    impenetrable_limit,
    momentum_flux_bracket,
    nonrelativistic_limit,
    nr_boundary_force,
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
    a = math.sqrt(1.0 / 3.0)
    assert momentum_flux_bracket(Spinor(0.0, 2.0 * a), 2.0, 1.0) == pytest.approx(
        -4.0, abs=1e-13
    )
    assert momentum_flux_bracket(Spinor(2.0, 0.0), 2.0, 1.0) == pytest.approx(
        -4.0, abs=1e-13
    )
    assert momentum_flux_bracket(Spinor(0.0, 0.0), 2.0, 1.0) == 0.0


def test_force_discrepancy_for_negative_energy_convention():
    """External and boundary force disagree at the wall for the conjugate wave."""
    for e in (1.5, 2.0, 7.0):
        limit = impenetrable_limit(e, 1.0, Convention.NEGATIVE_ENERGY)
        wall = momentum_flux_bracket(limit.spinor_at(0.0), e, 1.0)
        assert wall == pytest.approx(-4.0 * (e - 1.0), rel=1e-13)
        assert observe(limit).force == pytest.approx(-4.0 * (e + 1.0), rel=1e-13)
        assert observe(limit).force != wall
        assert abs(observe(limit).force - wall) == pytest.approx(8.0, rel=1e-12)


def test_two_sided_force_limit():
    """Wall force from both approach branches converges to -4(E - mc2).

    The Klein branch converges like sqrt(delta), so a 1e-5 agreement at
    delta = 1e-8 requires a modest energy (a^3(E + mc2) small); the
    evanescent branch converges linearly.
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
        assert obs.force.hex() == observe(sol).force.hex()
        assert obs.force == pytest.approx(-4.0 * where, rel=1e-14)
        assert obs.impenetrable


def test_forces_does_not_import_observables():
    """The force formulas stand below the observation: ``observables`` forms
    the wall force from ``nr_boundary_force``, never the other way round."""
    tree = ast.parse(Path(forces.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    # ``from . import observables`` names the module among the aliases.
    imported += [name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for name in (node.module or "", *(alias.name for alias in node.names))]
    assert not [name for name in imported if name.split(".")[-1] == "observables"], imported


def _dirichlet_force(psi_nr_deriv0, mass_energy):
    """The hard-wall force with psi(0) = 0, as a formula of its own."""
    return -abs(psi_nr_deriv0) ** 2 / (2.0 * mass_energy)


def _neumann_force(psi_nr0, psi_nr_second_deriv0, mass_energy):
    """The wall force with psi_x(0) = 0, as a formula of its own."""
    return (complex(psi_nr0).conjugate() * psi_nr_second_deriv0).real / (2.0 * mass_energy)


@pytest.mark.parametrize("e_nr", [1e-2, 1e-4, 1e-6])
def test_nr_boundary_force_on_a_dirichlet_wall(e_nr):
    m = 1.0
    k_nr = math.sqrt(2.0 * m * e_nr)
    force = nr_boundary_force(0.0, 2j * k_nr, 0.0, m)
    assert force == _dirichlet_force(2j * k_nr, m)
    assert force == pytest.approx(-4.0 * e_nr, rel=1e-13)


@pytest.mark.parametrize("e_nr", [1e-2, 1e-4, 1e-6])
def test_nr_boundary_force_on_a_neumann_wall(e_nr):
    m = 1.0
    k_nr = math.sqrt(2.0 * m * e_nr)
    force = nr_boundary_force(2.0, 0.0, -2.0 * k_nr**2, m)
    assert force == _neumann_force(2.0, -2.0 * k_nr**2, m)
    assert force == pytest.approx(-4.0 * e_nr, rel=1e-13)


def test_nr_boundary_force_of_a_wavefunction_at_rest():
    assert nr_boundary_force(0.0, 0.0, 0.0, 1.0) == _dirichlet_force(0.0, 1.0) == 0.0
    assert nr_boundary_force(0.0, 0.0, 0.0, 1.0) == _neumann_force(0.0, 0.0, 1.0) == 0.0


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-300, 1e300), st.floats(1e-150, 1e150), st.floats(1e-150, 1e150))
def test_nr_boundary_force_within_two_ulps_of_each_wall_formula(m, slope, curvature):
    """At any mass the square is divided by m before it is formed, one
    rounding away from the formulas above."""
    for force, reference in (
        (nr_boundary_force(0.0, 1j * slope, 0.0, m), _dirichlet_force(1j * slope, m)),
        (nr_boundary_force(2.0, 0.0, -curvature, m), _neumann_force(2.0, -curvature, m)),
    ):
        if reference != 0.0 and math.isfinite(reference) and abs(reference) > 1e-290:
            assert abs(force - reference) <= 2.0 * math.ulp(reference)


def test_nr_boundary_force_does_not_overflow_where_it_is_finite():
    """|psi_x|^2 = 4e308 overflows a double; the force -2e154 does not."""
    k = math.sqrt(2.0 * 1e154 * 5e153)
    assert nr_boundary_force(0.0, 2j * k, 0.0, 1e154) == pytest.approx(-2e154, rel=1e-15)


def test_nr_limit_of_relativistic_force():
    """boundary force / (-4 E_nr) -> 1 as E -> mc2."""
    ratios = []
    for e_nr in (1e-2, 1e-4, 1e-6):
        e = 1.0 + e_nr
        limit = impenetrable_limit(e, 1.0, Convention.MAIN)
        wall = momentum_flux_bracket(limit.spinor_at(0.0), e, 1.0)
        ratios.append(wall / (-4.0 * (e - 1.0)))
    for ratio in ratios:
        assert ratio == pytest.approx(1.0, rel=1e-9)


def test_flux_bracket_constant_for_wall_state():
    """The d<p>/dt bracket has the same value at x=0 and far away,
    both pointwise and averaged over one oscillation period."""
    e = 2.0
    limit = impenetrable_limit(e, 1.0, Convention.MAIN)
    k = limit.wave_number
    at_zero = momentum_flux_bracket(limit.spinor_at(0.0), e, 1.0)
    assert at_zero == pytest.approx(-4.0 * (e - 1.0), rel=1e-13)
    # pointwise far from the wall
    for x in (-25.0, -7.3, -0.1):
        assert momentum_flux_bracket(limit.spinor_at(x), e, 1.0) == pytest.approx(
            at_zero, rel=1e-12
        )
    # cell average over one period at x -> -infinity
    period = math.pi / k
    xs = np.linspace(-40.0, -40.0 + period, 20001)
    values = [momentum_flux_bracket(limit.spinor_at(x), e, 1.0) for x in xs]
    average = np.trapezoid(values, xs) / period
    assert average == pytest.approx(at_zero, rel=1e-10)
