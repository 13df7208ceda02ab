"""The verify suites against exact references, at many seeds."""

import math
import random
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
    assert result.failures[0].startswith(f"{result.worst}: error ")


def test_a_nan_error_is_the_largest_and_names_the_worst_setup():
    """A NaN error sets max_error to NaN, however large the errors around it,
    and ``worst`` names the first NaN; the failure list names every one."""
    result = verify.SuiteResult(suite="limits", trials=1, seed=5)
    result.record(1e-3, 1e-2, "small")
    assert (result.max_error, result.worst) == (1e-3, "small")
    result.record(math.nan, 1e-2, "first nan")
    result.record(1e300, 1e-2, "huge")
    result.record(math.nan, 1e-2, "second nan")
    assert math.isnan(result.max_error) and result.worst == "first nan"
    assert [failure.split(":")[0] for failure in result.failures] == [
        "first nan", "huge", "second nan"]
    summary = result.to_json()
    assert math.isnan(summary["max_error"])
    assert (summary["seed"], summary["worst"]) == (5, "first nan")


def test_closest_names_the_check_nearest_its_own_bound():
    """``worst`` follows the raw error and ``closest`` the error as a fraction
    of its own bound, so a loose check with the largest error does not hide a
    tight one near its bound; a NaN is the closest, and the first NaN stays."""
    result = verify.SuiteResult(suite="limits", trials=1, seed=5)
    result.record(5e-9, 1e-7, "loose")
    result.record(8e-13, 1e-12, "tight")
    assert (result.worst, result.max_error) == ("loose", 5e-9)
    assert (result.closest, result.closest_fraction) == ("tight", 8e-13 / 1e-12)
    result.note(1e-13, 1e-12, "unrecorded")
    assert result.closest == "tight" and result.failures == []
    result.record(math.nan, 1.0, "first nan")
    result.record(1e300, 1.0, "huge")
    result.record(math.nan, 1.0, "second nan")
    assert result.closest == "first nan" and math.isnan(result.closest_fraction)
    summary = result.to_json()
    assert summary["closest"] == "first nan" and math.isnan(summary["closest_fraction"])


def test_conservation_suite_reports_a_nan_row(monkeypatch):
    """A row whose T is NaN fails the suite, and max_error reads NaN, not
    the largest finite error."""
    scatter_table = verify.scatter_table

    def corrupt(mass, step_heights, energies, conv):
        table = scatter_table(mass, step_heights, energies, conv)
        if conv is Convention.LOWER_COMPONENT and table["regime"][0] == Regime.TRANSMISSION.value:
            table["T"][2] = math.nan
        return table

    monkeypatch.setattr(verify, "scatter_table", corrupt)
    result = verify.run_conservation(trials=3, seed=11)
    assert not result.passed
    assert math.isnan(result.max_error)
    assert result.worst.startswith(f"R+T {Regime.TRANSMISSION.value}/lower PhysicalSetup(")
    assert result.failures == [f"{result.worst}: error nan >= 1.0e-12"]


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
    rng, expected = random.Random(3), []
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
