"""The verify suites against exact references, at many seeds."""

from dataclasses import replace

import numpy as np
import pytest

from diracstep import (Convention, PhysicalSetup, PlaneWaveState, Regime, Side, Spinor,
                       oracle, verify)
from diracstep.matching import GROWING_UNDER_EVANESCENT
from diracstep.verify import run_closed_vs_oracle, run_limits

# ``verify`` is run at seeds derived from other seeds, so a check that fails at
# some seed is a failure, not noise.
SEEDS = [12345, 20240802, *range(1, 29)]


@pytest.mark.parametrize("seed", SEEDS)
def test_closed_vs_oracle_passes_at_every_seed(seed):
    result = run_closed_vs_oracle(seed=seed)
    assert result.passed, result.failures[:3]
    # Every error is against Sauter at the same width, at most 10·tol.
    assert result.max_error < 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_limits_passes_at_every_seed(seed):
    result = run_limits(seed=seed)
    assert result.passed, result.failures[:3]
    assert result.max_error < 1e-7


def _wrong_wall(limit):
    wall = limit.transmitted.amplitude
    spinor = Spinor(wall.upper, wall.lower * (1.0 + 1e-6) + 1e-6)
    return replace(limit, transmitted=PlaneWaveState(spinor, 0.0, Side.RIGHT))


def _wrong_reflection(limit):
    r = limit.r * (1.0 - 1e-6)
    reflected = PlaneWaveState(Spinor(r, -r * limit.a), -limit.wave_number, Side.LEFT)
    return replace(limit, reflected=reflected, r=r)


def _wrong_nr_reflection(limit):
    r = limit.r * (1.0 - 1e-6)
    reflected = PlaneWaveState(Spinor(r, 0.0), -limit.wave_number, Side.LEFT)
    return replace(limit, reflected=reflected, r=r)


@pytest.mark.parametrize("constructor,corrupt,check", [
    ("impenetrable_limit",
     lambda limit: replace(limit, step_height=limit.step_height * (1.0 + 1e-6)),
     "wall force"),
    ("impenetrable_limit", _wrong_wall, "wall force"),
    ("impenetrable_limit", _wrong_reflection, "main limit spinor(0-)"),
    ("nonrelativistic_limit", _wrong_nr_reflection, "NR force ratio"),
], ids=["force", "wall-spinor", "reflection", "nonrel-reflection"])
def test_limits_suite_fails_on_a_wrong_limit(monkeypatch, constructor, corrupt, check):
    """Each wall fact is checked against a second route, so a limit whose
    step height, wall spinor or reflection is off by 1e-6 fails the suite."""
    limit = getattr(verify, constructor)
    monkeypatch.setattr(verify, constructor, lambda *args: corrupt(limit(*args)))
    result = run_limits(trials=3)
    assert not result.passed
    assert any(check in failure for failure in result.failures), result.failures


@pytest.mark.parametrize("regime", [Regime.KLEIN_ZONE, Regime.TRANSMISSION,
                                    Regime.EVANESCENT], ids=lambda regime: regime.value)
@pytest.mark.parametrize("column,check", [("T", "R+T"), ("continuity", "continuity")])
def test_conservation_suite_fails_on_a_broken_row(monkeypatch, regime, column, check):
    """The suite checks the rows that scatter and sweep print: one row whose T
    or continuity residual is off by 1e-9 fails it, and the failure names
    that check and that row's setup."""
    scatter_table = verify.scatter_table
    broken = []

    def corrupt(mass, step_heights, energies, conv):
        table = scatter_table(mass, step_heights, energies, conv)
        if not broken and table["regime"][0] == regime.value:
            table[column][1] += 1e-9
            setup = PhysicalSetup(mass, float(step_heights[1]), float(energies[1]))
            broken.append(f"{check} {regime.value}/{conv.value} {setup}: error ")
        return table

    monkeypatch.setattr(verify, "scatter_table", corrupt)
    result = verify.run_conservation(trials=3)
    assert not result.passed
    assert len(result.failures) == 1 and result.failures[0].startswith(broken[0])
    assert result.max_error >= 1e-12


def test_conservation_suite_draws_each_setup_once_in_blocks(monkeypatch):
    """The suite checks the setups that scalar draw_setup gives on one rng
    stream, in order, each under every convention that exists in its regime,
    at most 4096 of them per scatter_table call."""
    scatter_table = verify.scatter_table
    calls = []

    def spy(mass, step_heights, energies, conv):
        calls.append((conv, step_heights.tolist(), energies.tolist()))
        return scatter_table(mass, step_heights, energies, conv)

    monkeypatch.setattr(verify, "scatter_table", spy)
    assert verify.run_conservation(trials=4097, seed=3).passed
    rng, expected = np.random.default_rng(3), []
    for regime in (Regime.KLEIN_ZONE, Regime.TRANSMISSION, Regime.EVANESCENT):
        setups = [verify.draw_setup(rng, regime) for _ in range(4097)]
        for block in (setups[:4096], setups[4096:]):
            expected += [(conv, [s.step_height for s in block], [s.energy for s in block])
                         for conv in Convention
                         if regime is not Regime.EVANESCENT
                         or conv not in GROWING_UNDER_EVANESCENT]
    assert calls == expected


def test_closed_vs_oracle_solves_stay_within_the_oracle_scan_cells(monkeypatch):
    """At the default trials: at least 20 solves, none with a pass of more
    than 4096 cells, the most the benchmark's oracle scan builds."""
    passes = []
    build = oracle._magnus_cells

    def counted(setup, step, counts):
        passes.extend(counts)
        return build(setup, step, counts)

    solves = []
    solve = oracle.integrate_scattering

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(oracle, "_magnus_cells", counted)
    monkeypatch.setattr("diracstep.verify.integrate_scattering", counted_solve)
    for seed in SEEDS:
        solves.clear()
        run_closed_vs_oracle(seed=seed)
        assert len(solves) >= 20
    assert max(passes) <= 4096
