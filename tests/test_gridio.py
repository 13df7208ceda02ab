"""Grid sampling and CSV/sidecar serialization."""

import dataclasses
import json
import math
import re

import pytest

from diracstep import (
    Convention,
    GridSample,
    PhysicalSetup,
    PlaneWaveSolution,
    PlaneWaveState,
    Side,
    Spinor,
    impenetrable_limit,
    nonrelativistic_limit,
    sample,
    solve,
    write_csv,
)
from diracstep.gridio import CSV_HEADER
from test_cli import read_csv


def _klein_solution():
    return solve(PhysicalSetup(1.0, 4.0, 2.0), Convention.MAIN)


def test_grid_contains_origin_with_both_sides():
    gs = sample(_klein_solution(), -3.0, 2.0, 7)
    zeros = [i for i, x in enumerate(gs.xs) if x == 0.0]
    assert len(zeros) == 2
    i, k = zeros
    # continuity: both one-sided values agree for a matched solution
    assert gs.phi[i] == pytest.approx(gs.phi[k], abs=1e-13)
    assert gs.chi[i] == pytest.approx(gs.chi[k], abs=1e-13)


def test_grid_without_origin():
    gs = sample(_klein_solution(), 1.0, 2.0, 5)
    assert len(gs.xs) == 5
    assert 0.0 not in gs.xs


def test_sample_validation():
    with pytest.raises(ValueError):
        sample(_klein_solution(), -1.0, 1.0, 1)
    with pytest.raises(ValueError):
        sample(_klein_solution(), 1.0, -1.0, 10)


def test_rho_j_recomputation_identity():
    gs = sample(_klein_solution(), -5.0, 3.0, 101)
    for p, c, rho, j in zip(gs.phi, gs.chi, gs.rho, gs.j):
        assert rho == abs(p) ** 2 + abs(c) ** 2
        assert j == 2.0 * (p.conjugate() * c).real


def test_constant_current_for_scattering_state():
    gs = sample(_klein_solution(), -6.0, 4.0, 301)
    j_ref = gs.j[0]
    assert all(abs(j - j_ref) < 1e-12 for j in gs.j)


def test_impenetrable_sample_zero_current_and_density_at_wall():
    limit = impenetrable_limit(2.0, 1.0, Convention.MAIN)
    gs = sample(limit, -5.0, 2.0, 141)
    assert all(abs(j) < 1e-14 for j in gs.j)
    at_zero = [i for i, x in enumerate(gs.xs) if x == 0.0]
    for i in at_zero:
        assert gs.rho[i] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert gs.phi[i] == 0.0


def test_nonrel_sample_has_zero_lower_component():
    limit = nonrelativistic_limit(0.01, 1.0, Convention.MAIN)
    gs = sample(limit, -4.0, 1.0, 64)
    assert all(abs(c) < 1e-12 for c in gs.chi)


def test_csv_contract(tmp_path):
    gs = sample(_klein_solution(), -2.0, 1.0, 31)
    out = tmp_path / "sample.csv"
    write_csv(gs, out)
    text = out.read_bytes().decode()
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert text.endswith("\n") and "\r" not in text
    assert len(lines) == 1 + len(gs.xs) + 1  # header + rows + trailing newline


def test_csv_deterministic_bytes(tmp_path):
    gs = sample(_klein_solution(), -2.0, 1.0, 31)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(gs, first)
    write_csv(gs, second)
    assert first.read_bytes() == second.read_bytes()


def test_csv_roundtrip(tmp_path):
    gs = sample(_klein_solution(), -2.0, 1.0, 31)
    out = tmp_path / "sample.csv"
    write_csv(gs, out)
    columns = read_csv(out)
    assert columns["x"] == list(gs.xs)
    for name, values in (
        ("phi_re", [p.real for p in gs.phi]),
        ("phi_im", [p.imag for p in gs.phi]),
        ("chi_re", [c.real for c in gs.chi]),
        ("chi_im", [c.imag for c in gs.chi]),
        ("rho", list(gs.rho)),
        ("j", list(gs.j)),
    ):
        # 17 significant digits reproduce doubles exactly
        assert columns[name] == values


def test_metadata_sidecar(tmp_path):
    gs = sample(_klein_solution(), -2.0, 1.0, 11)
    out = tmp_path / "sample.csv"
    write_csv(gs, out)
    sidecar = tmp_path / "sample.meta.json"
    meta = json.loads(sidecar.read_text())
    assert set(meta) == {
        "mass_energy",
        "step_height",
        "energy",
        "convention",
        "regime",
        "generator_version",
    }
    assert meta["step_height"] == 4.0
    assert meta["convention"] == "main"
    assert meta["regime"] == "KleinZone"


def test_metadata_for_limit_solution(tmp_path):
    limit = impenetrable_limit(2.0, 1.0, Convention.NEGATIVE_ENERGY)
    gs = sample(limit, -1.0, 1.0, 11)
    out = tmp_path / "limit.csv"
    write_csv(gs, out)
    meta = json.loads((tmp_path / "limit.meta.json").read_text())
    assert meta["step_height"] == 3.0  # the edge V0 = E + mc2 it sits on
    assert meta["convention"] == "negative"
    assert meta["regime"] == "impenetrable-negative"


def test_metadata_for_a_hard_wall_has_no_step_height(tmp_path):
    # The nonrelativistic states sit at V0 = inf, which JSON holds as null.
    write_csv(sample(nonrelativistic_limit(0.01, 1.0, Convention.MAIN), -1.0, 1.0, 5),
              tmp_path / "wall.csv")
    meta = json.loads((tmp_path / "wall.meta.json").read_text())
    assert (meta["step_height"], meta["regime"]) == (None, "nonrel-main")


def test_metadata_of_a_bare_state_reads_the_regime_of_its_energies(tmp_path):
    # A state built directly, as the signature of ``sample`` names it: the
    # mirror at the edge point V0 = E + mc2 of (mc2, E) = (1, 2).
    a = 3.0 ** -0.5
    wall = PlaneWaveState(Spinor(0.0, 2.0 * a), 0.0, Side.RIGHT)
    state = PlaneWaveSolution.reflecting(3.0 ** 0.5, a, -1.0, wall, Convention.MAIN, 0.0,
                                         mass_energy=1.0, step_height=3.0, energy=2.0)
    write_csv(sample(state, -1.0, 1.0, 5), tmp_path / "bare.csv")
    meta = json.loads((tmp_path / "bare.meta.json").read_text())
    assert (meta["step_height"], meta["convention"], meta["regime"]) == (3.0, "main", "EdgePoint")


def test_write_failure_reports_path():
    gs = sample(_klein_solution(), -1.0, 1.0, 5)
    with pytest.raises(OSError, match="no/such/dir"):
        write_csv(gs, "/no/such/dir/out.csv")


def test_grid_keeps_both_ends_and_moves_an_interior_point_onto_the_step():
    # -1, 49.5, 100: the point nearest x = 0 is the end -1, which stays; the
    # interior point 49.5 moves onto the step.
    gs = sample(_klein_solution(), -1.0, 100.0, 3)
    assert gs.xs == (-1.0, 0.0, 0.0, 100.0)


def test_two_point_grid_across_the_step_is_refused():
    with pytest.raises(ValueError, match="2-point grid on \\[-1.0, 100.0\\] straddles x = 0"):
        sample(_klein_solution(), -1.0, 100.0, 2)


def test_grid_up_to_the_largest_double_does_not_overflow():
    # 6 · (x_max - x_min) / 6 rounds past the largest double; the last point
    # is x_max itself, and the wall state's phase beyond x = 0 is 0.
    x_min, x_max = 1.0000000000000002, 1.7976931348623157e308
    gs = sample(impenetrable_limit(2.0, 1.0), x_min, x_max, 7)
    assert (gs.xs[0], gs.xs[-1]) == (x_min, x_max)
    assert all(math.isfinite(x) for x in gs.xs)


@pytest.mark.parametrize("bounds,x", [((1.0, 1.7976931348623157e308), 1.7976931348623157e308),
                                      ((-1.5e308, 1.0), -1.5e308)])
def test_phase_that_overflows_is_refused(bounds, x):
    # k = sqrt(3) on both sides of the step, so k·x leaves the double range.
    with pytest.raises(ValueError, match=re.escape("phase k*x overflows: k = ") + ".*"
                       + re.escape(f", x = {x}")):
        sample(_klein_solution(), *bounds, 5)


@pytest.mark.parametrize("bounds,x", [((1.0, 1e17), 1e17), ((-1e17, 1.0), -1e17)])
def test_phase_with_no_correct_digit_is_refused(bounds, x):
    # |k·x| = sqrt(3)·1e17 >= 2^52: ulp(k·x) = 32 rad.
    with pytest.raises(ValueError, match=re.escape("phase k*x has no correct digit: k = ") + ".*"
                       + re.escape(f", x = {x}, ulp(k*x) = 32.0")):
        sample(_klein_solution(), *bounds, 3)


def test_phase_below_2_to_the_52_is_sampled():
    # sqrt(3)·2.5e15 < 2^52 <= sqrt(3)·2.7e15.
    assert sample(_klein_solution(), -2.5e15, 2.5e15, 3).xs == (-2.5e15, 0.0, 0.0, 2.5e15)
    with pytest.raises(ValueError, match="no correct digit"):
        sample(_klein_solution(), -2.7e15, 2.5e15, 3)


FIELDS = ("xs", "phi", "chi", "rho", "j")


def test_writing_a_csv_builds_no_tuple(tmp_path):
    gs = sample(_klein_solution(), -30.0, 30.0, 20000)
    write_csv(gs, tmp_path / "wave.csv")
    assert not set(FIELDS) & set(vars(gs))


def test_held_arrays_are_read_only():
    gs = sample(_klein_solution(), -2.0, 1.0, 7)
    for name in FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(gs, "_" + name)[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        gs.xs = ()


@pytest.mark.parametrize("name", FIELDS)
def test_field_is_the_tuple_of_its_array_bit_for_bit(name):
    gs = sample(impenetrable_limit(2.0, 1.0, Convention.NEGATIVE_ENERGY), -3.0, 2.0, 41)
    field, values = getattr(gs, name), getattr(gs, "_" + name).tolist()
    assert type(field) is tuple and len(field) == len(values)
    hexes = (lambda v: (v.real.hex(), v.imag.hex(), type(v)))
    assert list(map(hexes, field)) == list(map(hexes, values))
    assert getattr(gs, name) is field  # built once


def test_equality_compares_values():
    gs = sample(_klein_solution(), -2.0, 1.0, 7)
    assert gs == sample(_klein_solution(), -2.0, 1.0, 7)
    assert gs == GridSample(gs.xs, gs.phi, gs.chi, gs.rho, gs.j, dict(gs.metadata))
    assert gs != sample(_klein_solution(), -2.0, 1.0, 8)
    assert gs != GridSample(gs.xs, gs.phi, gs.chi, gs.rho, gs.j, {})
    assert gs != GridSample(gs.xs, gs.phi, gs.chi, (0.0,) + gs.rho[1:], gs.j, gs.metadata)
