"""Acceptance gate: one test per release criterion, each at its tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
PASS/FAIL line per criterion in addition to the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from diracstep import (
    BoundaryCondition,
    Convention,
    PhysicalSetup,
    PlaneWaveState,
    SmoothStep,
    apply_hamiltonian,
    density,
    impenetrable_limit,
    infinite_potential_limit,
    integrate_scattering,
    kinematics,
    match,
    momentum_flux_bracket,
    nonrelativistic_limit,
    observe,
    sauter_log_coefficients,
)
from diracstep.verify import (
    run_closed_vs_oracle,
    run_conservation,
    run_limits,
    run_suite,
)

GOLDEN = PhysicalSetup(1.0, 4.0, 2.0)


def _report(number: int, description: str) -> None:
    print(f"criterion {number:>2} PASS  {description}")


def test_criterion_1_closed_form_golden_values():
    kin = kinematics(GOLDEN)
    sol = match(kin, Convention.MAIN)
    obs = observe(sol)
    expected = {
        "a": (kin.a, 0.5773503),
        "b": (kin.b, -1.7320508),
        "r": (sol.r.real, -0.5),
        "t": (sol.t.real, 0.5),
        "R": (obs.R, 0.25),
        "T": (obs.T, 0.75),
        "rho0": (obs.rho0, 1.0),
        "j0": (obs.j0, 0.8660254),
        "v_t": (obs.v_t, 0.8660254),
        "force": (obs.force, -4.0),
    }
    for name, (actual, target) in expected.items():
        assert abs(actual - target) < 1e-6, f"{name}: {actual} vs {target}"
    assert abs(sol.r.imag) < 1e-14 and abs(sol.t.imag) < 1e-14
    _report(1, "golden setup reproduces all ten closed-form values to 1e-6")


def test_criterion_2_conservation_and_continuity():
    # |R+T-1| normalized by max(1, R): the paradox conventions reach R ~ 1e12
    # at ultrarelativistic energies where an absolute 1e-12 exceeds double
    # precision; for the physical conventions (R <= 1) the bound is absolute.
    result = run_conservation(trials=1000, seed=20240801)
    assert result.passed, result.failures[:5]
    assert result.max_error < 1e-12
    _report(
        2,
        f"R+T=1 and continuity to 1e-12 over 1000 setups/regime, "
        f"max defect {result.max_error:.2e}",
    )


def test_criterion_3_impenetrable_limit_values():
    rng = np.random.default_rng(77)
    energies = [float(np.exp(rng.uniform(np.log(1.001), np.log(1e3)))) for _ in range(25)]
    energies += [2.0]
    for e in energies:
        main = impenetrable_limit(e, 1.0, Convention.MAIN)
        obs = observe(main)
        assert (obs.R, obs.T, obs.v_t) == (1.0, 0.0, 0.0)
        psi0 = main.spinor_at(0.0)
        assert psi0.upper == 0.0
        assert psi0.lower == 2.0 * main.a
        # The wall force is read from the state, −V0·rho(0) with V0 = E + mc2,
        # within 4 ulps of the paper's -4(E - mc2) and -4(E + mc2).
        assert observe(main).force == -(e + 1.0) * density(psi0)
        assert abs(observe(main).force + 4.0 * (e - 1.0)) <= 4.0 * math.ulp(4.0 * (e - 1.0))
        assert momentum_flux_bracket(psi0, e, 1.0) == pytest.approx(
            -4.0 * (e - 1.0), rel=1e-13
        )
        negative = impenetrable_limit(e, 1.0, Convention.NEGATIVE_ENERGY)
        psi0_neg = negative.spinor_at(0.0)
        assert (psi0_neg.upper, psi0_neg.lower) == (2.0, 0.0)
        assert observe(negative).force == -(e + 1.0) * density(psi0_neg)
        assert abs(observe(negative).force + 4.0 * (e + 1.0)) <= 4.0 * math.ulp(4.0 * (e + 1.0))
        wall = momentum_flux_bracket(psi0_neg, e, 1.0)
        assert wall == pytest.approx(-4.0 * (e - 1.0), rel=1e-13)
        assert observe(negative).force != wall  # the documented discrepancy
    _report(3, "impenetrable limits exact at 26 energies, discrepancy asserted")


def test_criterion_4_two_sided_approach_against_exact_expansion():
    # With eps = sqrt(delta / 2mc2): from the Klein side T = 4a eps (1 - 2a eps
    # + O(eps^2)) and the wall force is -4(E - mc2)(1 - 2a eps) + O(delta);
    # from the evanescent side the force has no sqrt(delta) term.  At E = 1.05
    # and delta = 1e-8 the O(eps^2) and O(delta) terms are about 2e-9.
    e, delta = 1.05, 1e-8
    deviations = {}
    for sign, side in ((+1.0, "klein"), (-1.0, "evanescent")):
        setup = PhysicalSetup(1.0, (e + 1.0) + sign * delta, e)
        kin = kinematics(setup)
        sol = match(kin, Convention.MAIN)
        # delta as the setup holds it: V0 - E, and then - mc2, are exact.
        eps = math.sqrt(abs(setup.step_height - e - 1.0) / 2.0)
        shift = 1.0 - 2.0 * kin.a * eps if sign > 0.0 else 1.0
        obs = observe(sol)
        deviations[side] = abs(obs.force + 4.0 * (e - 1.0) * shift)
        assert deviations[side] < 1e-7, (side, deviations[side])
        if sign > 0.0:
            t_deviation = abs(obs.T / (4.0 * kin.a * eps) - shift)
            assert t_deviation < 1e-7, t_deviation
    _report(
        4,
        f"two-sided force within 1e-7 of its exact expansion at "
        f"|V0-(E+mc2)|=1e-8 (klein {deviations['klein']:.1e}, evanescent "
        f"{deviations['evanescent']:.1e}); T/(4a eps) off by {t_deviation:.1e}",
    )


def test_criterion_5_special_cases():
    # massless: a = 1, b = -1, R = 0, T = 1, v_t = c
    kin0 = kinematics(PhysicalSetup(0.0, 2.0, 1.0))
    obs0 = observe(match(kin0, Convention.MAIN))
    assert kin0.a == 1.0
    assert abs(kin0.b - (-1.0)) < 1e-10
    assert abs(obs0.R) < 1e-10 and abs(obs0.T - 1.0) < 1e-10
    assert abs(obs0.v_t - 1.0) < 1e-10

    # V0 = 2E: kbar = k and the symmetric closed forms
    rng = np.random.default_rng(13)
    for _ in range(25):
        e = float(np.exp(rng.uniform(np.log(1.01), np.log(1e2))))
        kin = kinematics(PhysicalSetup(1.0, 2.0 * e, e))
        a = kin.a
        assert abs(kin.kbar_or_kappa - kin.k) < 1e-10 * kin.k
        obs = observe(match(kin, Convention.MAIN))
        assert abs(obs.R - ((a**2 - 1.0) / (a**2 + 1.0)) ** 2) < 1e-10
        assert abs(obs.T - 4.0 * a**2 / (a**2 + 1.0) ** 2) < 1e-10

    # V0 -> infinity: R -> ((a-1)/(a+1))^2, T -> 4a/(a+1)^2
    limit = infinite_potential_limit(2.0, 1.0)
    a = kinematics(PhysicalSetup(1.0, 4.0, 2.0)).a
    assert abs(limit.R - ((a - 1.0) / (a + 1.0)) ** 2) < 1e-10
    assert abs(limit.T - 4.0 * a / (a + 1.0) ** 2) < 1e-10
    obs_far = observe(match(kinematics(PhysicalSetup(1.0, 1e8, 2.0)), Convention.MAIN))
    assert abs(obs_far.R - limit.R) < 1e-7 and abs(obs_far.T - limit.T) < 1e-7
    _report(5, "massless, V0=2E and V0->infinity cases match to 1e-10")


def test_criterion_6_nonrelativistic_limit():
    e_nr = 1e-6
    e = 1.0 + e_nr
    rel = impenetrable_limit(e, 1.0, Convention.MAIN)
    assert abs(observe(rel).force / (-4.0 * e_nr) - 1.0) < 1e-5
    wall = momentum_flux_bracket(rel.spinor_at(0.0), e, 1.0)
    assert abs(wall / (-4.0 * e_nr) - 1.0) < 1e-5
    neumann = nonrelativistic_limit(e_nr, 1.0, Convention.NEGATIVE_ENERGY)
    assert observe(neumann).boundary is BoundaryCondition.NEUMANN_NR
    assert observe(neumann).force == pytest.approx(-4.0 * e_nr, rel=1e-12)
    _report(6, "impenetrable force equals -4E_nr to 1e-5; Neumann NR classified")


def test_criterion_7_oracle_agreement():
    start = time.monotonic()
    result = run_closed_vs_oracle(trials=20, seed=20240802)
    elapsed = time.monotonic() - start
    assert result.passed, result.failures[:5]
    assert result.max_error < 1e-9
    assert elapsed < 60.0
    res = integrate_scattering(
        GOLDEN, SmoothStep(4.0, 1e-3), Convention.TRADITIONAL, tol=1e-10
    )
    exact = math.exp(sauter_log_coefficients(GOLDEN, 1e-3, Convention.TRADITIONAL)[0])
    assert res.R_num > 1.0
    assert abs(res.R_num / exact - 1.0) < 1e-9
    _report(
        7,
        f"oracle against Sauter's exact R and T on 20 setups across every "
        f"regime and both edges, max error {result.max_error:.1e}; traditional "
        f"R = {res.R_num:.9f} at w = 1e-3, {elapsed:.1f}s",
    )


def test_criterion_8_eigenvalue_checks():
    setup = GOLDEN
    kin = kinematics(setup)
    e, m, v0 = setup.energy, setup.mass_energy, setup.step_height

    def residual(pw: PlaneWaveState, potential: float, eigenvalue: float) -> float:
        result = apply_hamiltonian(pw, potential, m)
        return max(
            abs(result.upper - eigenvalue * pw.amplitude.upper),
            abs(result.lower - eigenvalue * pw.amplitude.lower),
        )

    for conv in (Convention.MAIN, Convention.LOWER_COMPONENT, Convention.TRADITIONAL):
        pw = match(kin, conv).transmitted
        assert residual(pw, v0, e) < 1e-12
    negative = match(kin, Convention.NEGATIVE_ENERGY).transmitted
    assert residual(negative, v0, 2.0 * v0 - e) < 1e-12
    assert residual(negative, -v0, -e) < 1e-12
    _report(8, "transmitted waves certified as eigenstates to 1e-12")


def test_criterion_9_boundary_classification():
    rng = np.random.default_rng(91)
    checked = 0
    for _ in range(50):
        e = float(np.exp(rng.uniform(np.log(1.001), np.log(1e3))))
        assert (observe(impenetrable_limit(e, 1.0, Convention.MAIN)).boundary
                is BoundaryCondition.DIRICHLET_UPPER)
        assert (observe(impenetrable_limit(e, 1.0, Convention.NEGATIVE_ENERGY)).boundary
                is BoundaryCondition.DIRICHLET_LOWER)
        v0 = float(rng.uniform((e + 1.0) * 1.0001, 4.0 * (e + 1.0)))
        inside = match(kinematics(PhysicalSetup(1.0, v0, e)), Convention.MAIN)
        assert observe(inside).boundary is BoundaryCondition.NONE
        checked += 3
    _report(9, f"boundary classification agreed on {checked}/{checked} cases")


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize("run", [
    run_conservation, run_closed_vs_oracle, run_limits,
    lambda trials: run_suite("conservation", trials=trials),
], ids=["conservation", "closed-vs-oracle", "limits", "run_suite"])
def test_suites_refuse_fewer_than_one_trial(run, trials):
    # A suite over no setups would pass without checking anything.
    with pytest.raises(ValueError, match=f"^trials must be >= 1, got {trials}$"):
        run(trials=trials)
