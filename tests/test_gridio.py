"""Grid sampling and CSV/sidecar serialization."""

import json

import pytest

from diracstep import (
    Convention,
    PhysicalSetup,
    impenetrable_limit,
    kinematics,
    match,
    nonrelativistic_limit,
    sample,
    write_csv,
)
from diracstep.gridio import CSV_HEADER
from test_cli import read_csv


def _klein_solution():
    return match(kinematics(PhysicalSetup(1.0, 4.0, 2.0)), Convention.MAIN)


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
    assert meta["step_height"] is None
    assert meta["convention"] == "negative"
    assert meta["regime"] == "impenetrable-negative"


def test_write_failure_reports_path():
    gs = sample(_klein_solution(), -1.0, 1.0, 5)
    with pytest.raises(OSError, match="no/such/dir"):
        write_csv(gs, "/no/such/dir/out.csv")
