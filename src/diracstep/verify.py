"""Randomized verification suites behind ``diracstep verify``.

Three suites:

* ``conservation``      R + T = 1 and continuity at the step edge over
                        randomized setups, every regime and convention;
* ``closed-vs-oracle``  the smoothed-step ODE oracle against Sauter's exact
                        R and T of the same tanh step, the matcher's sharp
                        step against that formula's w → 0 limit, and the
                        paradox bookkeeping (R > 1 under the traditional
                        boundary condition in the Klein zone);
* ``limits``            both wall forces at the impenetrable barrier against
                        the paper's and their 8mc² gap under ``negative``, the
                        force across the evanescent band and the two-sided
                        approach of it and of T to their exact expansions, wall
                        classes, the wall force near E = mc² against the
                        nonrelativistic one, and V₀ → ∞ against closed forms.

Each suite draws from ``random.Random(seed)``, so one seed gives the same
setups on every run.  Setups are drawn with log-uniform E/mc² in
(1 + 1e-3, 1e3) and the step height uniform inside the requested regime
(Klein-zone heights uniform in (E + mc², 3(E + mc²))).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import PhysicalSetup, Regime, classify_regime
from .limits import impenetrable_limit, infinite_potential_limit, nonrelativistic_limit
from .matching import GROWING_UNDER_EVANESCENT, Convention
from .observables import BoundaryCondition, observe
from .oracle import SmoothStep, integrate_scattering, sauter_log_coefficients
from .table import scatter_table, solve

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
    seed: int
    max_error: float = 0.0
    failures: list[str] = field(default_factory=list)
    # Context of the largest error recorded, NaN counting as largest, and of
    # the check nearest its own bound, with its error / bound.
    worst: str | None = None
    closest: str | None = None
    closest_fraction: float = 0.0

    def __post_init__(self) -> None:
        # A suite over no setups would pass without checking anything.
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, error: float, threshold: float, context: str) -> None:
        self.note(error, threshold, context)
        if not (error < threshold):
            self.failures.append(f"{context}: error {error:.3e} >= {threshold:.1e}")

    def note(self, error: float, threshold: float, context: str) -> None:
        """Keep ``error`` as ``max_error``, and error / threshold as
        ``closest_fraction``, where each is the largest so far: a NaN is larger
        than any other, and the first NaN stays."""
        if self.worst is None or not (math.isnan(self.max_error) or error <= self.max_error):
            self.max_error, self.worst = error, context
        fraction = error / threshold
        if self.closest is None or not (math.isnan(self.closest_fraction)
                                        or fraction <= self.closest_fraction):
            self.closest_fraction, self.closest = fraction, context

    def check(self, condition: bool, context: str) -> None:
        if not condition:
            self.failures.append(context)

    def to_json(self) -> dict:
        return asdict(self)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_energy(rng: random.Random) -> float:
    """Log-uniform E over (1 + 1e-3, 1e3), in units of mc² = 1."""
    return _log_uniform(rng, 1.0 + 1e-3, 1e3)


def draw_setup(rng: random.Random, regime: Regime) -> PhysicalSetup:
    """Random setup at mc² = 1 with the step height uniform inside the given
    regime; a draw outside it, on an edge or at V₀ <= 0, is drawn again."""
    e = draw_energy(rng)
    if regime is Regime.KLEIN_ZONE:
        v0 = rng.uniform(e + 1.0, 3.0 * (e + 1.0))
    elif regime is Regime.EVANESCENT:
        v0 = rng.uniform(e - 1.0, e + 1.0)
    elif regime is Regime.TRANSMISSION:
        v0 = rng.uniform(0.0, e - 1.0)
    else:
        raise ValueError(f"cannot draw inside closed regime {regime}")
    if v0 <= 0.0 or classify_regime(setup := PhysicalSetup(1.0, v0, e)) is not regime:
        return draw_setup(rng, regime)
    return setup


def run_conservation(trials: int = 1000, seed: int = 12345) -> SuiteResult:
    """R + T = 1 and continuity at x = 0 to 1e-12, all regimes/conventions,
    on the rows of ``scatter_table`` that ``sweep`` writes; ``scatter`` prints
    ``table.record``, which the tests pin to those rows bit for bit.

    The conservation defect is normalized by max(1, R): for the physical
    conventions R <= 1 and the bound is the absolute one, while for the
    paradox bookkeeping (R up to ~1e12 in double precision at
    ultrarelativistic energies) cancellation can only be exact relative to
    R itself; the continuity residual, likewise, to max(1, |ψ(0⁻)|).
    """
    rng = random.Random(seed)
    result = SuiteResult(suite="conservation", trials=trials, seed=seed)
    for regime in (Regime.KLEIN_ZONE, Regime.TRANSMISSION, Regime.EVANESCENT):
        # Only the decaying transmitted forms exist under an evanescent step.
        growing = GROWING_UNDER_EVANESCENT if regime is Regime.EVANESCENT else ()
        conventions = [conv for conv in Convention if conv not in growing]
        # 4096 draws per scatter_table call: memory does not grow with trials.
        for start in range(0, trials, 4096):
            setups = [draw_setup(rng, regime) for _ in range(min(4096, trials - start))]
            v0, e = np.array([(s.step_height, s.energy) for s in setups]).T
            checks = []
            for conv in conventions:
                table = scatter_table(1.0, v0, e, conv)
                defect = np.abs(table["R"] + table["T"] - 1.0) / np.maximum(1.0, table["R"])
                for check, error in (("R+T", defect), ("continuity", table["continuity"])):
                    checks.append((f"{check} {regime.value}/{conv.value}", error))
            errors = np.array([error for _, error in checks])
            # argmax takes the first NaN as the largest error.
            check, row = np.unravel_index(np.argmax(errors), errors.shape)
            result.note(float(errors[check, row]), 1e-12, f"{checks[check][0]} {setups[row]}")
            # Labels only for the setups that fail, in the order of the draws.
            for i in np.flatnonzero(~(errors < 1e-12).all(axis=0)):
                for (label, _), error in zip(checks, errors[:, i].tolist()):
                    result.record(error, 1e-12, f"{label} {setups[i]}")
    return result


_ORACLE_BOUND = 1e-9  # ten times the oracle's default tolerance
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


def run_closed_vs_oracle(trials: int = 20, seed: int = 12345) -> SuiteResult:
    """The oracle against Sauter's exact R and T at the drawn width w.

    Trial i draws from stratum i mod 7, with δ = ξ·min(mc², E − mc²) and ξ
    log-uniform in (1e-8, 0.1).  w is log-uniform in (1e-3, 2), capped at
    8/(V₀ + E + mc²): no pass then needs more cells than the widest solves of
    the benchmark's oracle scan.  R squares amplitudes whose estimate meets
    1e-10, so R may miss by 1e-9 relative to max(1, R), and ln |T| by 1e-9.
    """
    rng = random.Random(seed)
    result = SuiteResult(suite="closed-vs-oracle", trials=trials, seed=seed)
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
        res = integrate_scattering(setup, step, conv)
        regime = classify_regime(setup)
        label = f"{stratum.value}/{conv.value} {setup} w={width!r}"
        if regime is Regime.EVANESCENT:
            result.record(abs(res.R_num - 1.0), _ORACLE_BOUND, f"total reflection {label}")
            continue
        log_r, log_t = sauter_log_coefficients(setup, width, conv)
        exact = math.exp(log_r)
        result.record(abs(res.R_num - exact) / max(1.0, exact), _ORACLE_BOUND, f"R {label}")
        result.record(abs(math.log(abs(res.T_num)) - log_t), _ORACLE_BOUND, f"ln T {label}")
        paradox = conv is Convention.TRADITIONAL and regime is Regime.KLEIN_ZONE
        message = f"R > 1 exactly under traditional in the Klein zone {label}"
        result.check((res.T_num < 0.0) == paradox, message)
        sharp = observe(solve(setup, conv)).R
        exact = math.exp(sauter_log_coefficients(setup, 0.0, conv)[0])
        result.record(abs(sharp - exact) / max(1.0, exact), 1e-12, f"sharp R {label}")
    return result


def run_limits(trials: int = 50, seed: int = 12345) -> SuiteResult:
    """Impenetrable-barrier limits, approach rates, boundary classification, V₀ → ∞."""
    rng = random.Random(seed)
    result = SuiteResult(suite="limits", trials=trials, seed=seed)
    for _ in range(trials):
        e = draw_energy(rng)
        main = impenetrable_limit(e, 1.0, Convention.MAIN)
        negative = impenetrable_limit(e, 1.0, Convention.NEGATIVE_ENERGY)
        # Per kind, from one observation: the wall force −V₀·ρ(0) at
        # V₀ = E + mc², read from the wall spinor, against the paper's
        # −4(E ∓ mc²), and the vanishing component.
        main_obs, negative_obs = observe(main), observe(negative)
        for limit, obs, paper_force, wall in (
            (main, main_obs, -4.0 * (e - 1.0), BoundaryCondition.DIRICHLET_UPPER),
            (negative, negative_obs, -4.0 * (e + 1.0), BoundaryCondition.DIRICHLET_LOWER),
        ):
            result.check((obs.R, obs.T, obs.v_t) == (1.0, 0.0, 0.0),
                         f"{limit.kind.value} limit R/T/v_t at E={e}")
            result.record(abs(obs.force - paper_force), 1e-12 * e,
                          f"{limit.kind.value} wall force E={e}")
            result.check(obs.boundary is wall,
                         f"{limit.kind.value} limit classification at E={e}")
        # ψ(0⁻) from the incident and reflected waves: the upper component
        # obeys Dirichlet while the spinor does not vanish.
        left = main.left_value_at(0.0)
        result.record(
            max(abs(left.upper), abs(left.lower - 2.0 * main.a)),
            1e-15,
            f"main limit spinor(0-) at E={e}",
        )
        result.record(abs(main_obs.boundary_force + 4.0 * (e - 1.0)), 1e-12 * e,
                      f"boundary force E={e}")
        # Negative-energy convention: the boundary force is 8mc² above the external one.
        result.record(abs(negative_obs.force - negative_obs.boundary_force + 8.0), 1e-12 * e,
                      f"force discrepancy 8mc2 at E={e}")
        # T = 0 across the evanescent band, so the force is −4(E − mc²) at every V₀ in it.
        for v0 in (e - 0.5, e, e + 0.5):
            force = observe(solve(PhysicalSetup(1.0, v0, e), Convention.MAIN)).force
            result.record(abs(force / (-4.0 * (e - 1.0)) - 1.0), 16 * 2.0**-52,
                          f"evanescent wall force at E={e} V0={v0!r}")
        # V₀ → ∞ against R = ((a ∓ 1)/(a ± 1))², T = 1 − R: main, then traditional.
        for conv, ratio in ((Convention.MAIN, (main.a - 1.0) / (main.a + 1.0)),
                            (Convention.TRADITIONAL, (main.a + 1.0) / (main.a - 1.0))):
            obs, exact = infinite_potential_limit(e, 1.0, conv), ratio**2
            result.record(max(abs(obs.R - exact), abs(obs.T - (1.0 - exact))) / max(1.0, exact),
                          1e-12, f"infinite step {conv.value} R/T at E={e}")
        inside = draw_setup(rng, Regime.KLEIN_ZONE)
        obs = observe(solve(inside, Convention.MAIN))
        result.check(
            obs.boundary is BoundaryCondition.NONE and not obs.impenetrable,
            f"open Klein-zone solution must classify None ({inside})",
        )
    # Two-sided approach of V₀ = E + mc² ± δ against the exact expansions in
    # ε = √(δ/2mc²): from the Klein side T = 4aε(1 − 2aε + O(ε²)) and the wall
    # force is −4(E − mc²)(1 − 2aε) + O(δ); from the evanescent side it has
    # no √δ term.  At δ = 1e-9 the O(δ) terms are below 1e-8.
    for e_probe, sign in itertools.product((1.05, 2.0), (1.0, -1.0)):
        setup = PhysicalSetup(1.0, e_probe + 1.0 + sign * 1e-9, e_probe)
        sol = solve(setup, Convention.MAIN)
        a = sol.incident.amplitude.lower
        # δ as the setup holds it: V₀ − E, and then − mc², are exact.
        eps = math.sqrt(abs(setup.step_height - e_probe - 1.0) / 2.0)
        shift = 1.0 - 2.0 * a * eps if sign > 0.0 else 1.0
        label = f"at E={e_probe} V0={setup.step_height!r}"
        obs = observe(sol)
        if sign > 0.0:
            t_ratio = obs.T / (4.0 * a * eps)
            result.record(abs(t_ratio - shift), 1e-7, f"T/(4a eps) {label}")
        force = obs.force + 4.0 * (e_probe - 1.0) * shift
        result.record(abs(force), 1e-7, f"wall force {label}")
    # The relativistic wall force at E = mc² + E_kin against the hard-wall force
    # of the Dirichlet state at that E_kin, each read from its own state.
    e = 1.0 + 1e-6
    e_nr = e - 1.0
    main_nr = nonrelativistic_limit(e_nr, 1.0, Convention.MAIN)
    rel = impenetrable_limit(e, 1.0, Convention.MAIN)
    result.record(abs(observe(rel).force / observe(main_nr).force - 1.0), 1e-12, "NR force ratio")
    result.check(
        observe(main_nr).boundary is BoundaryCondition.DIRICHLET_NR,
        "NR main limit must classify DirichletNR",
    )
    neg_nr = nonrelativistic_limit(e_nr, 1.0, Convention.NEGATIVE_ENERGY)
    result.check(
        observe(neg_nr).boundary is BoundaryCondition.NEUMANN_NR,
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
