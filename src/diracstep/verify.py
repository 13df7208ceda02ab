"""Randomized verification suites behind ``diracstep verify``.

Three suites:

* ``conservation``      R + T = 1 and continuity at the step edge over
                        randomized setups, every regime and convention;
* ``closed-vs-oracle``  matcher closed forms against the smoothed-step ODE
                        integration, plus the paradox bookkeeping (R > 1
                        under the traditional boundary condition);
* ``limits``            impenetrable-barrier values, two-sided approach of
                        the wall force, the √δ transmission law, boundary
                        condition classification, nonrelativistic force.

Setups are drawn with log-uniform E/mc² in (1 + 1e-3, 1e3) and the step
height uniform inside the requested regime (Klein-zone heights uniform in
(E + mc², 3(E + mc²))).  The oracle suite restricts to a window where the
tanh smoothing bias, (π²/12)·R·k·k̄·w² at width w, stays safely below the
1e-6 agreement target: E/mc² in (1.02, 1.7) and the step at most 0.2·mc²
above the Klein edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundaryCondition, classify_boundary
from .core import PhysicalSetup, Regime, kinematics
from .forces import external_force_mean, momentum_flux_bracket
from .limits import (
    LimitKind,
    convergence_scan,
    impenetrable_limit,
    nonrelativistic_limit,
)
from .matching import Convention, evaluate, match
from .observables import coefficients
from .oracle import SmoothStep, integrate_scattering

__all__ = [
    "SuiteResult",
    "draw_energy",
    "draw_setup",
    "draw_oracle_setup",
    "run_conservation",
    "run_closed_vs_oracle",
    "run_limits",
    "run_suite",
    "SUITES",
]

_REGIME_CONVENTIONS = {
    Regime.KLEIN_ZONE: (
        Convention.MAIN,
        Convention.LOWER_COMPONENT,
        Convention.TRADITIONAL,
        Convention.NEGATIVE_ENERGY,
    ),
    Regime.TRANSMISSION: (
        Convention.MAIN,
        Convention.LOWER_COMPONENT,
        Convention.TRADITIONAL,
        Convention.NEGATIVE_ENERGY,
    ),
    # Only the decaying transmitted forms exist under an evanescent step.
    Regime.EVANESCENT: (Convention.MAIN, Convention.LOWER_COMPONENT),
}


@dataclass
class SuiteResult:
    suite: str
    trials: int
    max_error: float = 0.0
    failures: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        # A suite over no setups would pass without checking anything.
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, error: float, threshold: float, context: str) -> None:
        self.max_error = max(self.max_error, error)
        if not (error < threshold):
            self.failures.append(f"{context}: error {error:.3e} >= {threshold:.1e}")

    def check(self, condition: bool, context: str) -> None:
        if not condition:
            self.failures.append(context)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "max_error": self.max_error,
            "failures": list(self.failures),
        }


def draw_energy(rng: np.random.Generator, mass_energy: float = 1.0) -> float:
    """Log-uniform E/mc² over (1 + 1e-3, 1e3)."""
    ratio = math.exp(rng.uniform(math.log(1.0 + 1e-3), math.log(1e3)))
    return ratio * mass_energy


def draw_setup(
    rng: np.random.Generator, regime: Regime, mass_energy: float = 1.0
) -> PhysicalSetup:
    """Random setup with the step height uniform inside the given regime."""
    e = draw_energy(rng, mass_energy)
    if regime is Regime.KLEIN_ZONE:
        v0 = rng.uniform(e + mass_energy, 3.0 * (e + mass_energy))
    elif regime is Regime.EVANESCENT:
        v0 = rng.uniform(e - mass_energy, e + mass_energy)
    elif regime is Regime.TRANSMISSION:
        v0 = rng.uniform(0.0, e - mass_energy)
    else:
        raise ValueError(f"cannot draw inside closed regime {regime}")
    if v0 <= 0.0 or v0 in (e - mass_energy, e + mass_energy):
        return draw_setup(rng, regime, mass_energy)
    return PhysicalSetup(mass_energy=mass_energy, step_height=v0, energy=e)


def draw_oracle_setup(rng: np.random.Generator) -> PhysicalSetup:
    """Klein-zone setup inside the oracle's low-smoothing-bias window."""
    e = math.exp(rng.uniform(math.log(1.02), math.log(1.7)))
    delta = math.exp(rng.uniform(math.log(1e-3), math.log(0.2)))
    return PhysicalSetup(mass_energy=1.0, step_height=e + 1.0 + delta, energy=e)


def _continuity_residual(sol) -> float:
    """Mismatch of the one-sided values at x = 0, relative to their size.

    Amplitudes grow without bound for the paradox conventions near their
    degenerate corners, so the residual (like the R + T defect) is only
    meaningful relative to the magnitudes involved.
    """
    left = sol.left_value_at(0.0)
    right = evaluate(sol, 0.0)
    residual = max(abs(left.upper - right.upper), abs(left.lower - right.lower))
    scale = max(1.0, abs(left.upper), abs(left.lower))
    return residual / scale


def run_conservation(trials: int = 1000, seed: int = 12345) -> SuiteResult:
    """R + T = 1 and continuity at x = 0 to 1e-12, all regimes/conventions.

    The conservation defect is normalized by max(1, R): for the physical
    conventions R <= 1 and the bound is the absolute one, while for the
    paradox bookkeeping (R up to ~1e12 in double precision at
    ultrarelativistic energies) cancellation can only be exact relative to
    R itself.
    """
    rng = np.random.default_rng(seed)
    result = SuiteResult(suite="conservation", trials=trials)
    for regime, conventions in _REGIME_CONVENTIONS.items():
        for _ in range(trials):
            setup = draw_setup(rng, regime)
            kin = kinematics(setup)
            for conv in conventions:
                sol = match(kin, conv)
                obs = coefficients(sol)
                label = f"{regime.value}/{conv.value} {setup}"
                defect = abs(obs.R + obs.T - 1.0) / max(1.0, obs.R)
                result.record(defect, 1e-12, f"R+T {label}")
                result.record(_continuity_residual(sol), 1e-12, f"continuity {label}")
    return result


def run_closed_vs_oracle(
    trials: int = 20, seed: int = 12345, width: float = 1e-3, tol: float = 1e-10
) -> SuiteResult:
    """Closed forms against the ODE oracle at smoothing width 1e-3."""
    rng = np.random.default_rng(seed)
    result = SuiteResult(suite="closed-vs-oracle", trials=trials)
    for _ in range(trials):
        setup = draw_oracle_setup(rng)
        sol = match(kinematics(setup), Convention.MAIN)
        r_closed = coefficients(sol).R
        res = integrate_scattering(
            setup, SmoothStep(setup.step_height, width), Convention.MAIN, tol=tol
        )
        label = f"E={setup.energy:.6g} V0={setup.step_height:.6g}"
        result.record(abs(res.R_num - r_closed), 1e-6, f"R oracle-vs-closed {label}")
        result.record(
            res.integration_error_estimate, 1e-9, f"current conservation {label}"
        )
    # Paradox bookkeeping under the traditional boundary condition.
    golden = PhysicalSetup(mass_energy=1.0, step_height=4.0, energy=2.0)
    res = integrate_scattering(
        golden, SmoothStep(4.0, width), Convention.TRADITIONAL, tol=tol
    )
    result.check(res.R_num > 1.0, "traditional boundary condition must give R > 1")
    result.record(abs(res.R_num - 4.0), 1e-5, "traditional R at golden setup")
    # Total reflection under an evanescent step, any profile width.
    evan = PhysicalSetup(mass_energy=1.0, step_height=2.5, energy=2.0)
    res = integrate_scattering(evan, SmoothStep(2.5, width), Convention.MAIN, tol=tol)
    result.record(abs(res.R_num - 1.0), 1e-8, "evanescent total reflection")
    return result


def run_limits(trials: int = 50, seed: int = 12345) -> SuiteResult:
    """Impenetrable-barrier limits, approach rates, boundary classification."""
    rng = np.random.default_rng(seed)
    result = SuiteResult(suite="limits", trials=trials)
    for _ in range(trials):
        e = draw_energy(rng)
        main = impenetrable_limit(e, 1.0, Convention.MAIN)
        negative = impenetrable_limit(e, 1.0, Convention.NEGATIVE_ENERGY)
        psi0 = main.spinor_at(0.0)
        result.check(
            (main.R_limit, main.T_limit, main.v_t_limit) == (1.0, 0.0, 0.0),
            f"main limit R/T/v_t at E={e}",
        )
        result.record(
            max(abs(psi0.upper), abs(psi0.lower - 2.0 * main.a)),
            1e-15,
            f"main limit spinor(0) at E={e}",
        )
        result.record(
            abs(main.force + 4.0 * (e - 1.0)), 1e-12 * e, f"main wall force E={e}"
        )
        result.record(
            abs(momentum_flux_bracket(psi0, e, 1.0) + 4.0 * (e - 1.0)),
            1e-12 * e,
            f"boundary force E={e}",
        )
        # Negative-energy convention: external and boundary force disagree.
        psi0_neg = negative.spinor_at(0.0)
        result.record(
            abs(negative.force + 4.0 * (e + 1.0)), 1e-12 * e, f"neg wall force E={e}"
        )
        result.check(
            abs(negative.force - momentum_flux_bracket(psi0_neg, e, 1.0)) > 1.0,
            f"force discrepancy must persist at E={e}",
        )
        result.check(
            classify_boundary(main).classification
            is BoundaryCondition.DIRICHLET_UPPER,
            f"main limit classification at E={e}",
        )
        result.check(
            classify_boundary(negative).classification
            is BoundaryCondition.DIRICHLET_LOWER,
            f"negative limit classification at E={e}",
        )
        inside = draw_setup(rng, Regime.KLEIN_ZONE)
        report = classify_boundary(match(kinematics(inside), Convention.MAIN))
        result.check(
            report.classification is BoundaryCondition.NONE and not report.impenetrable,
            f"open Klein-zone solution must classify None ({inside})",
        )
    # Two-sided approach of the wall force at a moderate energy; the
    # Klein-side convergence is O(sqrt(delta)) so 1e-5 needs a*delta small.
    e_probe, delta = 1.05, 1e-8
    limit_force = -4.0 * (e_probe - 1.0)
    for sign, side in ((+1.0, "right"), (-1.0, "left")):
        setup = PhysicalSetup(1.0, (e_probe + 1.0) + sign * delta, e_probe)
        force = external_force_mean(match(kinematics(setup), Convention.MAIN))
        result.record(
            abs(force - limit_force), 1e-5, f"two-sided force, {side} branch"
        )
    scan = convergence_scan(
        2.0, 1.0, Convention.MAIN, [10.0 ** p for p in range(-10, -3)]
    )
    result.check(
        scan.exponent is not None and abs(scan.exponent - 0.5) < 0.01,
        f"transmission exponent {scan.exponent} != 0.5 +- 0.01",
    )
    # Nonrelativistic wall force and Neumann classification.
    e_nr = 1e-6
    main_nr = nonrelativistic_limit(e_nr, 1.0, LimitKind.NONREL_MAIN)
    rel = impenetrable_limit(1.0 + e_nr, 1.0, Convention.MAIN)
    result.record(
        abs(rel.force / (-4.0 * e_nr) - 1.0), 1e-5, "NR force ratio"
    )
    result.check(
        classify_boundary(main_nr).classification is BoundaryCondition.DIRICHLET_NR,
        "NR main limit must classify DirichletNR",
    )
    neg_nr = nonrelativistic_limit(e_nr, 1.0, LimitKind.NONREL_NEGATIVE)
    result.check(
        classify_boundary(neg_nr).classification is BoundaryCondition.NEUMANN_NR,
        "NR negative limit must classify NeumannNR",
    )
    return result


SUITES = {
    "conservation": run_conservation,
    "closed-vs-oracle": run_closed_vs_oracle,
    "limits": run_limits,
}


def run_suite(name: str, trials: int | None = None, seed: int = 12345) -> SuiteResult:
    runner = SUITES[name]
    if trials is None:
        return runner(seed=seed)
    return runner(trials=trials, seed=seed)
