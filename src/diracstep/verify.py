"""Randomized verification suites behind ``diracstep verify``.

Three suites:

* ``conservation``      R + T = 1 and continuity at the step edge over
                        randomized setups, every regime and convention;
* ``closed-vs-oracle``  the smoothed-step ODE oracle against Sauter's exact
                        R and T of the same tanh step, the matcher's sharp
                        step against that formula's w → 0 limit, and the
                        paradox bookkeeping (R > 1 under the traditional
                        boundary condition in the Klein zone);
* ``limits``            impenetrable-barrier values, the two-sided approach
                        of the wall force and of T against their exact
                        expansions, boundary condition classification,
                        nonrelativistic force.

Setups are drawn with log-uniform E/mc² in (1 + 1e-3, 1e3) and the step
height uniform inside the requested regime (Klein-zone heights uniform in
(E + mc², 3(E + mc²))).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundaryCondition, classify_boundary
from .core import PhysicalSetup, Regime, kinematics
from .forces import external_force_mean, momentum_flux_bracket
from .limits import impenetrable_limit, nonrelativistic_limit
from .matching import GROWING_UNDER_EVANESCENT, Convention, match
from .observables import coefficients
from .oracle import SmoothStep, integrate_scattering, sauter_log_coefficients

__all__ = [
    "SuiteResult",
    "draw_energy",
    "draw_setup",
    "run_conservation",
    "run_closed_vs_oracle",
    "run_limits",
    "run_suite",
    "SUITES",
]

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


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_energy(rng: np.random.Generator, mass_energy: float = 1.0) -> float:
    """Log-uniform E/mc² over (1 + 1e-3, 1e3)."""
    return _log_uniform(rng, 1.0 + 1e-3, 1e3) * mass_energy


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


def _continuity_residual(sol) -> float:
    """Mismatch of the one-sided values at x = 0, relative to their size.

    Amplitudes grow without bound for the paradox conventions near their
    degenerate corners, so the residual (like the R + T defect) is only
    meaningful relative to the magnitudes involved.
    """
    left = sol.left_value_at(0.0)
    right = sol.spinor_at(0.0)
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
    for regime in (Regime.KLEIN_ZONE, Regime.TRANSMISSION, Regime.EVANESCENT):
        # Only the decaying transmitted forms exist under an evanescent step.
        growing = GROWING_UNDER_EVANESCENT if regime is Regime.EVANESCENT else ()
        conventions = [conv for conv in Convention if conv not in growing]
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


# The oracle's strata: an open regime, or δ beyond the edge of that name.
_ORACLE_STRATA = (
    (Regime.KLEIN_ZONE, Convention.MAIN),
    (Regime.KLEIN_ZONE, Convention.TRADITIONAL),
    (Regime.EDGE_POINT, Convention.MAIN),
    (Regime.EDGE_POINT, Convention.TRADITIONAL),
    (Regime.TRANSMISSION, Convention.TRADITIONAL),
    (Regime.EDGE_LOWER, Convention.TRADITIONAL),
    (Regime.EVANESCENT, Convention.MAIN),
)


def run_closed_vs_oracle(
    trials: int = 20, seed: int = 12345, tol: float = 1e-10
) -> SuiteResult:
    """The oracle against Sauter's exact R and T at the drawn width w.

    Trial i draws from stratum i mod 7, with δ = ξ·min(mc², E − mc²) and ξ
    log-uniform in (1e-8, 0.1).  w is log-uniform in (1e-3, 2), capped at
    8/(V₀ + E + mc²): no pass then needs more cells than the widest solves of
    the benchmark's oracle scan.  R squares amplitudes whose estimate meets
    ``tol``, so R may miss by 10·tol relative to max(1, R), ln |T| by 10·tol.
    """
    rng = np.random.default_rng(seed)
    result = SuiteResult(suite="closed-vs-oracle", trials=trials)
    for i in range(trials):
        stratum, conv = _ORACLE_STRATA[i % len(_ORACLE_STRATA)]
        if stratum in (Regime.EDGE_POINT, Regime.EDGE_LOWER):
            e = draw_energy(rng)
            delta = min(1.0, e - 1.0) * _log_uniform(rng, 1e-8, 0.1)
            v0 = e + 1.0 + delta if stratum is Regime.EDGE_POINT else e - 1.0 - delta
            setup = PhysicalSetup(1.0, v0, e)
        else:
            setup = draw_setup(rng, stratum)
        reach = setup.step_height + setup.energy + setup.mass_energy
        width = _log_uniform(rng, 1e-3, min(2.0, 8.0 / reach))
        step = SmoothStep(setup.step_height, width)
        res = integrate_scattering(setup, step, conv, tol=tol)
        kin = kinematics(setup)
        label = f"{stratum.value}/{conv.value} {setup} w={width!r}"
        if kin.regime is Regime.EVANESCENT:
            result.record(abs(res.R_num - 1.0), 10.0 * tol, f"total reflection {label}")
            continue
        log_r, log_t = sauter_log_coefficients(setup, width, conv)
        exact = math.exp(log_r)
        result.record(abs(res.R_num - exact) / max(1.0, exact), 10.0 * tol, f"R {label}")
        result.record(abs(math.log(abs(res.T_num)) - log_t), 10.0 * tol, f"ln T {label}")
        paradox = conv is Convention.TRADITIONAL and kin.regime is Regime.KLEIN_ZONE
        message = f"R > 1 exactly under traditional in the Klein zone {label}"
        result.check((res.T_num < 0.0) == paradox, message)
        sharp = coefficients(match(kin, conv)).R
        exact = math.exp(sauter_log_coefficients(setup, 0.0, conv)[0])
        result.record(abs(sharp - exact) / max(1.0, exact), 1e-12, f"sharp R {label}")
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
        for limit in (main, negative):
            obs = coefficients(limit)
            result.check(
                (obs.R, obs.T, obs.v_t) == (1.0, 0.0, 0.0),
                f"{limit.kind.value} limit R/T/v_t at E={e}",
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
    # Two-sided approach of V₀ = E + mc² ± δ against the exact expansions in
    # ε = √(δ/2mc²): from the Klein side T = 4aε(1 − 2aε + O(ε²)) and the wall
    # force is −4(E − mc²)(1 − 2aε) + O(δ); from the evanescent side it has
    # no √δ term.  At δ = 1e-9 the O(δ) terms are below 1e-8.
    for e_probe, sign in itertools.product((1.05, 2.0), (1.0, -1.0)):
        setup = PhysicalSetup(1.0, e_probe + 1.0 + sign * 1e-9, e_probe)
        kin = kinematics(setup)
        sol = match(kin, Convention.MAIN)
        # δ as the setup holds it: V₀ − E, and then − mc², are exact.
        eps = math.sqrt(abs(setup.step_height - e_probe - 1.0) / 2.0)
        shift = 1.0 - 2.0 * kin.a * eps if sign > 0.0 else 1.0
        label = f"at E={e_probe} V0={setup.step_height!r}"
        if sign > 0.0:
            t_ratio = coefficients(sol).T / (4.0 * kin.a * eps)
            result.record(abs(t_ratio - shift), 1e-7, f"T/(4a eps) {label}")
        force = external_force_mean(sol) + 4.0 * (e_probe - 1.0) * shift
        result.record(abs(force), 1e-7, f"wall force {label}")
    # Nonrelativistic wall force and Neumann classification.
    e_nr = 1e-6
    main_nr = nonrelativistic_limit(e_nr, 1.0, Convention.MAIN)
    rel = impenetrable_limit(1.0 + e_nr, 1.0, Convention.MAIN)
    result.record(
        abs(rel.force / (-4.0 * e_nr) - 1.0), 1e-5, "NR force ratio"
    )
    result.check(
        classify_boundary(main_nr).classification is BoundaryCondition.DIRICHLET_NR,
        "NR main limit must classify DirichletNR",
    )
    neg_nr = nonrelativistic_limit(e_nr, 1.0, Convention.NEGATIVE_ENERGY)
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
