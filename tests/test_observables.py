"""Coefficients, densities, currents and the transmitted velocity field v_t of
``observe``."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracstep import (
    Convention,
    BoundaryCondition,
    PhysicalSetup,
    nonrelativistic_limit,
    observe,
    solve,
)
from diracstep.core import _kinematics
from diracstep.spinor import SCALAR
from diracstep.table import record

GOLDEN = PhysicalSetup(1.0, 4.0, 2.0)


def test_golden_coefficients_main():
    obs = observe(solve(GOLDEN, Convention.MAIN))
    assert obs.R == pytest.approx(0.25, abs=1e-13)
    assert obs.T == pytest.approx(0.75, abs=1e-13)
    assert obs.rho0 == pytest.approx(1.0, abs=1e-13)
    assert obs.j0 == pytest.approx(0.8660254037844386, abs=1e-13)
    assert obs.v_t == pytest.approx(0.8660254037844386, abs=1e-13)


def test_golden_coefficients_traditional_paradox():
    obs = observe(solve(GOLDEN, Convention.TRADITIONAL))
    assert obs.R == pytest.approx(4.0, abs=1e-12)
    assert obs.T == pytest.approx(-3.0, abs=1e-12)
    assert obs.R + obs.T == pytest.approx(1.0, abs=1e-12)


def test_massless_total_transmission():
    obs = observe(solve(PhysicalSetup(0.0, 2.0, 1.0), Convention.MAIN))
    assert obs.R == pytest.approx(0.0, abs=1e-14)
    assert obs.T == pytest.approx(1.0, abs=1e-14)
    assert obs.v_t == pytest.approx(1.0, abs=1e-14)


def test_negative_energy_density_at_origin():
    obs = observe(solve(PhysicalSetup(1.0, 5.0, 2.0),
                        Convention.NEGATIVE_ENERGY))
    rho0, j0 = obs.rho0, obs.j0
    assert rho0 == pytest.approx(1.2122461732037256, abs=1e-12)
    assert j0 == pytest.approx(1.1429166527197286, abs=1e-12)


def test_density_current_closed_forms_randomized():
    rng = np.random.default_rng(5)
    for _ in range(300):
        e = float(np.exp(rng.uniform(np.log(1.01), np.log(1e2))))
        v0 = float(rng.uniform(e + 1.0, 4.0 * (e + 1.0)))
        setup = PhysicalSetup(1.0, v0, e)
        row = record(setup, Convention.MAIN)
        a, b = row["a"], row["b_re"]
        obs = observe(solve(setup, Convention.MAIN))
        rho0, j0 = obs.rho0, obs.j0
        assert rho0 == pytest.approx(
            4.0 * a**2 * (1.0 + b**2) / (a - b) ** 2, rel=1e-12
        )
        assert j0 == pytest.approx(-8.0 * a**2 * b / (a - b) ** 2, rel=1e-12)
        assert j0 > 0.0


def test_near_edge_closed_forms_through_bounded_parameterization():
    """Close to the wall the b-independent forms in b'' stay accurate."""
    e = 2.0
    for delta in (1e-8, 1e-10, 1e-12):
        v0 = (e + 1.0) + delta
        (_, _, a, _, bpp), _ = _kinematics(SCALAR, 1.0, v0, e, False)
        obs = observe(solve(PhysicalSetup(1.0, v0, e), Convention.MAIN))
        assert obs.R == pytest.approx(
            ((a * bpp - 1.0) / (a * bpp + 1.0)) ** 2, rel=1e-10
        )
        assert obs.T == pytest.approx(
            4.0 * a * bpp / (1.0 + a * bpp) ** 2, rel=1e-10
        )
        assert obs.rho0 == pytest.approx(
            4.0 * a**2 * (1.0 + bpp**2) / (1.0 + a * bpp) ** 2, rel=1e-10
        )


def test_transmitted_velocity_closed_form_two_routes():
    rng = np.random.default_rng(17)
    for _ in range(200):
        e = float(np.exp(rng.uniform(np.log(1.01), np.log(1e2))))
        v0 = float(rng.uniform(e + 1.0, 4.0 * (e + 1.0)))
        setup = PhysicalSetup(1.0, v0, e)
        sol = solve(setup, Convention.MAIN)
        v_spinor = observe(sol).v_t
        v_closed = math.sqrt(1.0 - (1.0 / (e - v0)) ** 2)
        assert v_spinor == pytest.approx(v_closed, abs=1e-12)
        assert 0.0 < v_spinor < 1.0


def test_transmitted_velocity_golden():
    sol = solve(GOLDEN, Convention.MAIN)
    assert observe(sol).v_t == pytest.approx(0.8660254037844386, abs=1e-13)


def test_transmitted_velocity_vanishes_at_the_wall():
    values = []
    for delta in (1e-2, 1e-4, 1e-6, 1e-8):
        values.append(observe(solve(PhysicalSetup(1.0, 3.0 + delta, 2.0), Convention.MAIN)).v_t)
    assert values == sorted(values, reverse=True)
    assert values[-1] < 1e-3


def test_evanescent_regime_definitions():
    sol = solve(PhysicalSetup(1.0, 2.5, 2.0), Convention.MAIN)
    obs = observe(sol)
    assert obs.R == pytest.approx(1.0, abs=1e-13)
    assert obs.T == 0.0
    assert obs.rho0 == pytest.approx(1.6, abs=1e-13)
    assert abs(obs.j0) < 1e-15
    assert math.isnan(obs.v_t)


def test_special_case_v0_equals_2e():
    """V0 = 2E inside the Klein zone: b = -1/a and symmetric coefficients."""
    rng = np.random.default_rng(23)
    for _ in range(100):
        e = float(np.exp(rng.uniform(np.log(1.01), np.log(1e2))))
        setup = PhysicalSetup(1.0, 2.0 * e, e)
        row = record(setup, Convention.MAIN)
        a = row["a"]
        assert complex(row["b_re"], row["b_im"]) == pytest.approx(-1.0 / a, rel=1e-12)
        assert row["kbar_or_kappa"] == pytest.approx(row["k"], rel=1e-12)
        obs = observe(solve(setup, Convention.MAIN))
        assert obs.R == pytest.approx(
            ((a**2 - 1.0) / (a**2 + 1.0)) ** 2, rel=1e-10, abs=1e-13
        )
        assert obs.T == pytest.approx(4.0 * a**2 / (a**2 + 1.0) ** 2, rel=1e-10)
        assert obs.v_t == pytest.approx(row["k"] / e, rel=1e-12)


def test_infinite_step_limit_coefficients():
    """R and T approach the Klein-tunneling values as V0 grows."""
    e = 2.0
    a = record(PhysicalSetup(1.0, 4.0, e))["a"]
    r_inf = ((a - 1.0) / (a + 1.0)) ** 2
    t_inf = 4.0 * a / (a + 1.0) ** 2
    errors = []
    for v0 in (1e2, 1e4, 1e6):
        obs = observe(solve(PhysicalSetup(1.0, v0, e), Convention.MAIN))
        errors.append(abs(obs.R - r_inf) + abs(obs.T - t_inf))
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 1e-5
    assert t_inf > 0.9  # transmission survives an infinitely high step


def test_conservation_all_conventions_randomized():
    rng = np.random.default_rng(29)
    for conv in Convention:
        for _ in range(200):
            e = float(np.exp(rng.uniform(np.log(1.001), np.log(1e3))))
            v0 = float(rng.uniform(e + 1.0, 3.0 * (e + 1.0)))
            obs = observe(solve(PhysicalSetup(1.0, v0, e), conv))
            assert abs(obs.R + obs.T - 1.0) / max(1.0, obs.R) < 1e-12


def test_current_balance_main():
    """|j_r| + |j_t| = |j_i| for the physical convention."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        e = float(np.exp(rng.uniform(np.log(1.01), np.log(1e2))))
        v0 = float(rng.uniform(e + 1.0, 4.0 * (e + 1.0)))
        sol = solve(PhysicalSetup(1.0, v0, e), Convention.MAIN)
        from diracstep import current

        j_i = current(sol.incident.amplitude)
        j_r = current(sol.reflected.amplitude)
        j_t = current(sol.transmitted.amplitude)
        assert abs(j_r) + abs(j_t) == pytest.approx(abs(j_i), rel=1e-12)


@pytest.mark.parametrize("conv,wall", [(Convention.MAIN, BoundaryCondition.DIRICHLET_NR),
                                       (Convention.NEGATIVE_ENERGY, BoundaryCondition.NEUMANN_NR)])
def test_observe_of_nonrelativistic_limit_carries_no_current(conv, wall):
    """The incident wave of a nonrelativistic limit carries no current: R, T
    and v_t are NaN, while the wall class and the hard-wall force stay readable."""
    sol = nonrelativistic_limit(0.01, 1.0, conv)
    obs = observe(sol)
    assert all(math.isnan(value) for value in (obs.R, obs.T, obs.v_t))
    assert obs.force == pytest.approx(-0.04, rel=1e-14)
    assert obs.impenetrable
    assert obs.boundary is wall


def test_observation_is_a_frozen_record_of_the_state_alone():
    """``observe`` reads V₀ from the state, so it takes no step height, and
    its record cannot be changed after the fact."""
    assert list(inspect.signature(observe).parameters) == ["state"]
    obs = observe(solve(GOLDEN, Convention.MAIN))
    with pytest.raises(dataclasses.FrozenInstanceError):
        obs.force = 0.0
    assert obs.force == -GOLDEN.step_height * obs.rho0


magnitudes =st.floats(min_value=-300.0, max_value=300.0).map(lambda p: 10.0**p)


@st.composite
def extreme_setups(draw):
    """mc2, E - mc2 and V0 each from 1e-300 to 1e300, with V0 drawn freely or
    placed a relative offset from either regime edge."""
    m, kinetic, v0, offset = (draw(magnitudes) for _ in range(4))
    e = m + kinetic
    where = draw(st.sampled_from(["free", "klein", "lower"]))
    if where == "klein":
        v0 = (e + m) * (1.0 + draw(st.sampled_from([1.0, -1.0])) * min(offset, 0.5))
    elif where == "lower":
        v0 = (e - m) * (1.0 + draw(st.sampled_from([1.0, -1.0])) * min(offset, 0.5))
    return m, v0, e


@settings(max_examples=400, deadline=None)
@given(extreme_setups(), st.sampled_from(list(Convention)))
def test_extreme_magnitudes_conserve_or_are_refused_with_a_cause(args, conv):
    """Each input is refused with a ValueError that names its cause, or gives
    finite R and T with R + T = 1 to 1e-12 of max(1, R)."""
    m, v0, e = args
    try:
        obs = observe(solve(PhysicalSetup(m, v0, e), conv))
    except ValueError as exc:
        # A bare "math domain error" or "math range error" names nothing.
        assert str(exc) and not str(exc).startswith("math "), repr(exc)
        return
    assert math.isfinite(obs.R) and math.isfinite(obs.T)
    assert abs(obs.R + obs.T - 1.0) <= 1e-12 * max(1.0, obs.R)
