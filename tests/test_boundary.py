"""Boundary-condition classification at the wall, from ``observe``."""

import math
from dataclasses import fields

import numpy as np
import pytest

from diracstep import (
    BoundaryCondition,
    Convention,
    Observation,
    PhysicalSetup,
    PlaneWaveSolution,
    PlaneWaveState,
    Side,
    Spinor,
    classify_regime,
    impenetrable_limit,
    kinematics,
    match,
    nonrelativistic_limit,
    observe,
)
from diracstep.observables import _observation
from diracstep.table import solve


def test_impenetrable_main_is_dirichlet_upper():
    obs = observe(impenetrable_limit(2.0, 1.0, Convention.MAIN))
    assert obs.boundary is BoundaryCondition.DIRICHLET_UPPER
    assert obs.impenetrable
    psi0 = impenetrable_limit(2.0, 1.0, Convention.MAIN).spinor_at(0.0)
    assert psi0.upper == 0.0
    assert psi0.lower == pytest.approx(1.1547005383792515, abs=1e-13)


def test_impenetrable_negative_is_dirichlet_lower():
    obs = observe(impenetrable_limit(2.0, 1.0, Convention.NEGATIVE_ENERGY))
    assert obs.boundary is BoundaryCondition.DIRICHLET_LOWER
    assert obs.impenetrable
    psi0 = impenetrable_limit(2.0, 1.0, Convention.NEGATIVE_ENERGY).spinor_at(0.0)
    assert psi0.upper == pytest.approx(2.0, abs=1e-14)
    assert psi0.lower == 0.0


def test_generic_klein_zone_solution_classifies_none():
    sol = match(kinematics(PhysicalSetup(1.0, 4.0, 2.0)), Convention.MAIN)
    obs = observe(sol)
    assert obs.boundary is BoundaryCondition.NONE
    assert not obs.impenetrable
    assert obs.j0 == pytest.approx(0.8660254037844386, abs=1e-13)


def test_randomized_classification_agreement():
    rng = np.random.default_rng(14)
    for _ in range(100):
        e = float(np.exp(rng.uniform(np.log(1.001), np.log(1e3))))
        main = observe(impenetrable_limit(e, 1.0, Convention.MAIN))
        assert main.boundary is BoundaryCondition.DIRICHLET_UPPER
        negative = observe(impenetrable_limit(e, 1.0, Convention.NEGATIVE_ENERGY))
        assert negative.boundary is BoundaryCondition.DIRICHLET_LOWER
        v0 = float(rng.uniform((e + 1.0) * 1.001, 4.0 * (e + 1.0)))
        inside = observe(match(kinematics(PhysicalSetup(1.0, v0, e)), Convention.MAIN))
        assert inside.boundary is BoundaryCondition.NONE
        assert not inside.impenetrable


def test_evanescent_solution_impenetrable_but_unclassified():
    sol = match(kinematics(PhysicalSetup(1.0, 2.5, 2.0)), Convention.MAIN)
    obs = observe(sol)
    assert obs.impenetrable  # zero current through the wall
    assert obs.boundary is BoundaryCondition.NONE


def test_nonrelativistic_classifications():
    main = nonrelativistic_limit(0.01, 1.0, Convention.MAIN)
    assert observe(main).boundary is BoundaryCondition.DIRICHLET_NR
    negative = nonrelativistic_limit(0.01, 1.0, Convention.NEGATIVE_ENERGY)
    assert observe(negative).boundary is BoundaryCondition.NEUMANN_NR


def test_observation_fields_are_the_row_and_impenetrability():
    assert [f.name for f in fields(Observation)] == [
        "r", "t", "R", "T", "rho0", "j0", "v_t", "force", "continuity", "boundary",
        "impenetrable"]


def _hand_built(a: float, r: float, wall: Spinor, k: float = 1.5) -> PlaneWaveSolution:
    """Incident [1, a]·e^{ikx}, reflected r·[1, −a]·e^{−ikx}, and a constant
    ``wall`` spinor for x >= 0; no LimitKind: a hard wall at unit mass."""
    return PlaneWaveSolution.reflecting(
        k, a, r, PlaneWaveState(wall, 0.0, Side.RIGHT), Convention.MAIN, 0.0,
        mass_energy=1.0, step_height=math.inf, energy=1.0)


def test_whole_spinor_zero_is_not_classified():
    """ψ(0) = 0 entirely is deliberately given no classification (not a
    self-adjoint wall condition); no step limit reaches it, so the state is
    built by hand."""
    sol = _hand_built(0.5, -1.0, Spinor(0.0, 0.0))
    assert sol.spinor_at(0.0) == Spinor(0.0, 0.0)
    obs = observe(sol)
    assert obs.boundary is BoundaryCondition.NONE
    assert obs.impenetrable


@pytest.mark.parametrize("scale,expected", [
    (1.0, BoundaryCondition.NONE),
    (1e6, BoundaryCondition.DIRICHLET_UPPER),
])
def test_tolerance_is_relative(scale, expected):
    """The same near-zero upper component 1e-8 at the wall classifies as
    Dirichlet once the state's amplitudes are 1e6 times larger, and not at
    unit scale: TOLERANCE is relative to the amplitude scale."""
    a = impenetrable_limit(2.0, 1.0, Convention.MAIN).a
    sol = _hand_built(a, -1.0, Spinor(1e-8, 2.0 * a * scale))
    assert observe(sol).boundary is expected


@pytest.mark.parametrize("k", [1.5, 1e-12, 1e12])
@pytest.mark.parametrize("r,wall,expected", [
    (-1.0, Spinor(0.0, 0.0), BoundaryCondition.DIRICHLET_NR),
    (1.0, Spinor(2.0, 0.0), BoundaryCondition.NEUMANN_NR),
    (0.5, Spinor(1.5, 0.0), BoundaryCondition.NONE),
])
def test_state_without_incident_current_is_classified_nonrelativistically(r, wall,
                                                                          expected, k):
    """Incident ratio 0 and no LimitKind: the data alone selects the
    Schroedinger rule, whose slope test is relative to k and so holds in any
    energy unit."""
    sol = _hand_built(0.0, r, wall, k)
    assert not hasattr(sol, "kind")
    obs = observe(sol)
    assert obs.boundary is expected
    assert obs.impenetrable


def _wall_states():
    for v0 in (4.0, 2.5, 0.5, 3.0, 1.0):  # each open regime, then both edges
        setup = PhysicalSetup(1.0, v0, 2.0)
        yield pytest.param(solve(setup), v0, id=classify_regime(setup).value)
    for conv in (Convention.MAIN, Convention.NEGATIVE_ENERGY):
        for sol in (impenetrable_limit(2.0, 1.0, conv), nonrelativistic_limit(0.01, 1.0, conv)):
            yield pytest.param(sol, sol.step_height, id=sol.kind.value)


@pytest.mark.parametrize("sol,v0", _wall_states())
def test_observation_row_holds_the_wall_class(sol, v0):
    """One wall rule: the row ``table.record`` reads classifies as ``observe``
    does, the nonrelativistic limits included, under the step height each
    state carries."""
    assert sol.step_height == v0
    assert _observation(sol)["boundary"] == observe(sol).boundary.value


def test_a_state_without_a_step_height_is_refused_by_name():
    # The public constructor builds no state that sits under no step.
    wall = PlaneWaveState(Spinor(0.0, 1.0), 0.0, Side.RIGHT)
    with pytest.raises(TypeError, match="mass_energy', 'step_height', and 'energy'"):
        PlaneWaveSolution.reflecting(1.5, 0.5, -1.0, wall, Convention.MAIN, 0.0)
