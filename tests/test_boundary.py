"""Boundary-condition classification at the wall."""

import numpy as np
import pytest

from diracstep import (
    BoundaryCondition,
    Convention,
    PhysicalSetup,
    classify_boundary,
    impenetrable_limit,
    kinematics,
    match,
    nonrelativistic_limit,
)


def test_impenetrable_main_is_dirichlet_upper():
    report = classify_boundary(impenetrable_limit(2.0, 1.0, Convention.MAIN))
    assert report.classification is BoundaryCondition.DIRICHLET_UPPER
    assert report.impenetrable
    assert report.chi0 == pytest.approx(1.1547005383792515, abs=1e-13)
    assert not report.both_components_zero


def test_impenetrable_negative_is_dirichlet_lower():
    report = classify_boundary(
        impenetrable_limit(2.0, 1.0, Convention.NEGATIVE_ENERGY)
    )
    assert report.classification is BoundaryCondition.DIRICHLET_LOWER
    assert report.impenetrable
    assert report.phi0 == pytest.approx(2.0, abs=1e-14)


def test_generic_klein_zone_solution_classifies_none():
    sol = match(kinematics(PhysicalSetup(1.0, 4.0, 2.0)), Convention.MAIN)
    report = classify_boundary(sol)
    assert report.classification is BoundaryCondition.NONE
    assert not report.impenetrable
    assert report.j0 == pytest.approx(0.8660254037844386, abs=1e-13)


def test_randomized_classification_agreement():
    rng = np.random.default_rng(14)
    for _ in range(100):
        e = float(np.exp(rng.uniform(np.log(1.001), np.log(1e3))))
        main = classify_boundary(impenetrable_limit(e, 1.0, Convention.MAIN))
        assert main.classification is BoundaryCondition.DIRICHLET_UPPER
        negative = classify_boundary(
            impenetrable_limit(e, 1.0, Convention.NEGATIVE_ENERGY)
        )
        assert negative.classification is BoundaryCondition.DIRICHLET_LOWER
        v0 = float(rng.uniform((e + 1.0) * 1.001, 4.0 * (e + 1.0)))
        inside = classify_boundary(
            match(kinematics(PhysicalSetup(1.0, v0, e)), Convention.MAIN)
        )
        assert inside.classification is BoundaryCondition.NONE
        assert not inside.impenetrable


def test_evanescent_solution_impenetrable_but_unclassified():
    sol = match(kinematics(PhysicalSetup(1.0, 2.5, 2.0)), Convention.MAIN)
    report = classify_boundary(sol)
    assert report.impenetrable  # zero current through the wall
    assert report.classification is BoundaryCondition.NONE


def test_nonrelativistic_classifications():
    main = nonrelativistic_limit(0.01, 1.0, Convention.MAIN)
    assert classify_boundary(main).classification is BoundaryCondition.DIRICHLET_NR
    negative = nonrelativistic_limit(0.01, 1.0, Convention.NEGATIVE_ENERGY)
    assert (
        classify_boundary(negative).classification is BoundaryCondition.NEUMANN_NR
    )


def test_degenerate_whole_spinor_zero_flagged_not_classified():
    """ψ(0) = 0 entirely: flagged, but deliberately given no classification
    (not a self-adjoint wall condition) except in nonrelativistic mode."""
    nr = nonrelativistic_limit(0.01, 1.0, Convention.MAIN)
    nr_report = classify_boundary(nr)
    assert nr_report.classification is BoundaryCondition.DIRICHLET_NR
    # relativistic solution with both components zero at the origin cannot
    # arise from the step limits; probe the classifier's rule directly
    from diracstep.boundary import _classify_relativistic
    from diracstep import Spinor

    report = _classify_relativistic(Spinor(0.0, 0.0), scale=2.0, tolerance=1e-10)
    assert report.both_components_zero
    assert report.classification is BoundaryCondition.NONE
    assert report.impenetrable


def test_tolerance_is_relative():
    """A numerically produced near-zero component classifies at loose
    tolerance and stops classifying at a tighter one."""
    limit = impenetrable_limit(2.0, 1.0, Convention.MAIN)
    from diracstep.boundary import _classify_relativistic
    from diracstep import Spinor

    smudged = Spinor(1e-8, limit.spinor_at(0.0).lower)
    loose = _classify_relativistic(smudged, scale=2.0, tolerance=1e-6)
    tight = _classify_relativistic(smudged, scale=2.0, tolerance=1e-12)
    assert loose.classification is BoundaryCondition.DIRICHLET_UPPER
    assert tight.classification is BoundaryCondition.NONE
