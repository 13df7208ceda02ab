"""CLI surface: commands, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diracstep
from diracstep import Convention, observables
from diracstep.cli import main
from diracstep.gridio import CSV_HEADER
from diracstep.table import scatter_table


def read_csv(path):
    """Parse a sample CSV back into per-column float lists."""
    lines = [line for line in Path(path).read_text().split("\n") if line]
    header = lines[0].split(",")
    assert header == CSV_HEADER.split(",")
    columns = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            columns[name].append(float(cell))
    return columns


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_binds_no_scatter_record():
    # perfbench/tracing.py lists cli.scatter_record and wraps whatever it
    # finds under that name; worker.coverage_guard then expects one call per
    # sweep row in a traced bulk-closed-form run, which a one-setup function
    # would fail.  The CLI reaches the scalar row as table.record.
    assert not hasattr(diracstep.cli, "scatter_record")


def test_scatter_golden(capsys):
    code, out, _ = run(
        capsys, "scatter", "--energy", "2", "--step-height", "4",
        "--convention", "main",
    )
    assert code == 0
    assert "# diracstep" in out  # reproducibility header
    assert "convention=main" in out
    lines = dict(
        line.split(None, 1) for line in out.splitlines()
        if line and not line.startswith("#")
    )
    assert float(lines["R"]) == pytest.approx(0.25, abs=1e-6)
    assert float(lines["T"]) == pytest.approx(0.75, abs=1e-6)
    assert float(lines["force"]) == pytest.approx(-4.0, abs=1e-6)


def test_scatter_massless(capsys):
    code, out, _ = run(
        capsys, "scatter", "--mass", "0", "--energy", "1", "--step-height", "2",
    )
    assert code == 0
    lines = dict(
        line.split(None, 1) for line in out.splitlines()
        if line and not line.startswith("#")
    )
    assert float(lines["R"]) == 0.0
    assert float(lines["T"]) == 1.0
    assert float(lines["v_t"]) == 1.0


def test_scatter_traditional_warns(capsys):
    code, out, _ = run(
        capsys, "scatter", "--energy", "2", "--step-height", "4",
        "--convention", "traditional",
    )
    assert code == 0
    assert "warning" in out
    lines = dict(
        line.split(None, 1) for line in out.splitlines()
        if line and not line.startswith("#") and not line.startswith("warning")
    )
    assert float(lines["R"]) == pytest.approx(4.0, abs=1e-9)
    assert float(lines["T"]) == pytest.approx(-3.0, abs=1e-9)


def test_scatter_invalid_parameters_exit_2(capsys):
    code, _, err = run(capsys, "scatter", "--energy", "0.5", "--step-height", "1")
    assert code == 2
    assert "error:" in err and len(err.splitlines()) == 1


def test_sweep_csv(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys, "sweep", "--vary", "step-height", "--from", "2.5", "--to", "3.5",
        "--points", "5", "--energy", "2", "--out", str(out_file),
    )
    assert code == 0
    text = out_file.read_text()
    lines = text.strip().split("\n")
    assert len(lines) == 6
    header = lines[0].split(",")
    regime_col = header.index("regime")
    transition_col = header.index("transition")
    regimes = [line.split(",")[regime_col] for line in lines[1:]]
    assert regimes == [
        "Evanescent", "Evanescent", "EdgePoint", "KleinZone", "KleinZone",
    ]
    transitions = [line.split(",")[transition_col] for line in lines[1:]]
    assert transitions == ["0", "0", "1", "1", "0"]
    # edge row is filled from the closed-form limit
    edge = dict(zip(header, lines[3].split(",")))
    assert float(edge["R"]) == 1.0
    assert float(edge["T"]) == 0.0
    assert float(edge["force"]) == pytest.approx(-4.0)
    assert edge["boundary"] == "DirichletUpper"


def test_sweep_monotone_velocity_in_klein_zone(capsys, tmp_path):
    out_file = tmp_path / "vt.csv"
    code, _, _ = run(
        capsys, "sweep", "--vary", "step-height", "--from", "3.0001", "--to", "10",
        "--points", "25", "--energy", "2", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    header = lines[0].split(",")
    v_col = header.index("v_t")
    v_t = [float(line.split(",")[v_col]) for line in lines[1:]]
    assert v_t == sorted(v_t)
    assert 0.0 < v_t[0] < v_t[-1] < 1.0


def test_single_point_sweep_matches_scatter(capsys, tmp_path):
    out_file = tmp_path / "one.csv"
    code, _, _ = run(
        capsys, "sweep", "--vary", "step-height", "--from", "4", "--to", "4.0001",
        "--points", "2", "--energy", "2", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["R"]) == pytest.approx(0.25, abs=1e-12)
    assert float(row["rho0"]) == pytest.approx(1.0, abs=1e-12)


def test_sweep_empty_range_exit_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "sweep", "--vary", "energy", "--from", "3", "--to", "2",
        "--points", "5", "--step-height", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "error:" in err


def test_sweep_deterministic_bytes(capsys, tmp_path):
    args = (
        "sweep", "--vary", "energy", "--from", "1.5", "--to", "6",
        "--points", "9", "--step-height", "4",
    )
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(first))[0] == 0
    assert run(capsys, *args, "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_limit_impenetrable(capsys):
    code, out, _ = run(
        capsys, "limit", "--which", "impenetrable", "--energy", "2",
        "--convention", "main",
    )
    assert code == 0
    lines = dict(
        line.split(None, 1) for line in out.splitlines()
        if line and not line.startswith(("#", "warning"))
    )
    assert float(lines["external_force"]) == pytest.approx(-4.0)
    assert lines["boundary"] == "DirichletUpper"


def test_limit_negative_flags_discrepancy(capsys):
    code, out, _ = run(
        capsys, "limit", "--which", "impenetrable", "--energy", "2",
        "--convention", "negative",
    )
    assert code == 0
    lines = dict(
        line.split(None, 1) for line in out.splitlines()
        if line and not line.startswith(("#", "warning"))
    )
    assert float(lines["external_force"]) == pytest.approx(-12.0)
    assert float(lines["boundary_force"]) == pytest.approx(-4.0)
    assert "DISAGREE" in out


@pytest.mark.parametrize("conv", ["main", "lower", "negative"])
def test_limit_impenetrable_is_unit_free(capsys, conv):
    """(E, mc2) = (2, 1)·2^s prints the same rows with every energy column
    scaled by 2^s exactly, and the same DISAGREE verdict: the forces are
    compared relative to themselves, not to an absolute energy."""
    energies = ("external_force", "boundary_force", "nr_force")

    def report(s):
        code, out, _ = run(capsys, "limit", "--which", "impenetrable", "--convention", conv,
                           "--energy", repr(math.ldexp(2.0, s)),
                           "--mass", repr(math.ldexp(1.0, s)), "--precision", "17")
        assert code == 0
        rows = {name: value for name, value in _table_of(out).items()
                if not name.startswith("warning")}
        return rows, "DISAGREE" in out

    base, disagree = report(0)
    assert disagree is (conv == "negative")
    for s in (-500, -60, 60, 400):
        rows, warned = report(s)
        assert warned is disagree
        assert {name: value for name, value in rows.items() if name not in energies} == {
            name: value for name, value in base.items() if name not in energies}
        assert [float(rows[name]) for name in energies] == [
            math.ldexp(float(base[name]), s) for name in energies]


def test_limit_negative_disagreement_is_flagged_far_above_mc2(capsys):
    """Under negative the two routes differ by 8 mc2, 2mc2/E of the forces:
    at E = 1e12 mc2 that is 2e-12 relative, far above rounding, and flagged."""
    code, out, _ = run(capsys, "limit", "--which", "impenetrable", "--convention", "negative",
                       "--energy", "1e12", "--mass", "1", "--precision", "17")
    assert code == 0
    rows = _table_of(out)
    assert (rows["external_force"], rows["boundary_force"]) == (
        "-4000000000004", "-3999999999996")
    assert "DISAGREE" in out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["main", "lower"]), st.floats(-250.0, 150.0), st.floats(-12.0, 17.0))
def test_limit_main_and_lower_forces_never_disagree(conv, log_mc2, log_excess):
    """Under main and lower the external and the boundary force agree to a
    few roundings, so the DISAGREE bound of 8 * 2^-52 never warns."""
    mc2 = 10.0 ** log_mc2
    e = mc2 * (1.0 + 10.0 ** log_excess)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["limit", "--which", "impenetrable", "--convention", conv,
                     "--energy", repr(e), "--mass", repr(mc2)])
    if code != 0:
        assert code == 2 and err.getvalue().startswith("error: ")
        return
    assert "DISAGREE" not in out.getvalue()


@pytest.mark.parametrize("conv", ["main", "lower", "negative"])
def test_limit_impenetrable_observes_its_state_once(capsys, monkeypatch, conv):
    calls = []
    observe = observables._observe
    monkeypatch.setattr(observables, "_observe",
                        lambda *args: calls.append(args) or observe(*args))
    code, _, _ = run(capsys, "limit", "--which", "impenetrable", "--energy", "2",
                     "--convention", conv)
    assert code == 0
    assert len(calls) == 1


def test_limit_infinite(capsys):
    code, out, _ = run(capsys, "limit", "--which", "infinite", "--energy", "2")
    assert code == 0
    lines = dict(
        line.split(None, 1) for line in out.splitlines()
        if line and not line.startswith("#")
    )
    assert float(lines["R"]) == pytest.approx(0.0717967697, abs=1e-9)
    assert float(lines["T"]) == pytest.approx(0.9282032303, abs=1e-9)


def _table_of(out):
    return dict(line.split(None, 1) for line in out.splitlines()
                if line and not line.startswith("#"))


def test_limit_infinite_traditional_is_kleins_paradox(capsys):
    code, out, err = run(capsys, "limit", "--which", "infinite", "--energy", "2",
                         "--convention", "traditional")
    assert (code, err) == (0, "")
    assert "# which=infinite  mass_energy=1  energy=2  convention=traditional\n" in out
    lines = _table_of(out)
    a = math.sqrt(1.0 / 3.0)
    assert float(lines["R"]) == pytest.approx(((a + 1.0) / (a - 1.0)) ** 2, rel=1e-8)
    assert float(lines["R"]) + float(lines["T"]) == pytest.approx(1.0, abs=1e-7)
    assert out.endswith("warning: traditional transmitted wave: R exceeds 1 "
                        "(historical Klein-paradox bookkeeping)\n")


def test_limit_infinite_traditional_massless_is_singular_exit_2(capsys):
    code, out, err = run(capsys, "limit", "--which", "infinite", "--energy", "2",
                         "--mass", "0", "--convention", "traditional")
    assert (code, out) == (2, "")
    assert err == "error: continuity system singular for 'traditional' at this setup\n"


def test_limit_impenetrable_massless_nr_force_is_nan(capsys):
    code, out, _ = run(capsys, "limit", "--which", "impenetrable", "--energy", "2",
                       "--mass", "0")
    assert code == 0
    assert _table_of(out)["nr_force"] == "nan"


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0.0, 1e-310, 1e-200, 1e-100, 1.0, 1e100, 1e150]),
       st.floats(1.0 + 1e-12, 1e15))
def test_limit_nr_force_is_minus_four_kinetic_energies(mc2, ratio):
    """nr_force is the force of the Dirichlet NR state at E_kin = E - mc2:
    -4 E_kin to 4 ulps wherever the command exits 0, and nan where that
    state does not exist, at mc2 = 0 or where k = sqrt(2 mc2 E_kin) is
    below the normal range (a = k / 2mc2 is normal at every ratio drawn)."""
    e = ratio * mc2 if mc2 else ratio
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["limit", "--which", "impenetrable", "--energy", repr(e),
                     "--mass", repr(mc2), "--precision", "17"])
    if code != 0:
        assert code == 2 and err.getvalue().startswith("error: ")
        return
    nr_force = float(_table_of(out.getvalue())["nr_force"])
    e_kin = e - mc2
    if math.sqrt(2.0 * mc2) * math.sqrt(e_kin) < sys.float_info.min:
        assert math.isnan(nr_force)
    else:
        assert abs(nr_force + 4.0 * e_kin) <= 4.0 * math.ulp(4.0 * e_kin)


def test_limit_nonrel_neumann(capsys):
    code, out, _ = run(
        capsys, "limit", "--which", "nonrel", "--energy", "0.01",
        "--convention", "negative",
    )
    assert code == 0
    assert "NeumannNR" in out


@pytest.mark.parametrize("conv,wall", [("main", "DirichletNR"), ("negative", "NeumannNR")])
def test_limit_nonrel_prints_the_hard_wall_force_and_wall_class(capsys, conv, wall):
    """Both lines come from ``observe`` of a state with no incident current:
    the hard-wall force −4·E_kin and the Schroedinger wall class."""
    code, out, err = run(capsys, "limit", "--which", "nonrel", "--energy", "0.01",
                         "--convention", conv)
    assert (code, err) == (0, "")
    table = _table_of(out)
    assert (table["force"], table["boundary"]) == ("-0.04", wall)


def test_limit_nonrel_force_where_its_square_overflows(capsys):
    """|psi_x(0)|^2 = 4e308 overflows a double; the force -2e154 does not."""
    code, out, err = run(capsys, "limit", "--which", "nonrel", "--energy", "5e153",
                         "--mass", "1e154")
    assert (code, err) == (0, "")
    assert "force        -2e+154\n" in out


def test_limit_nonrel_neumann_force_where_its_curvature_overflows(capsys):
    """psi_xx(0) = -2k^2 of the Neumann state exceeds the double range at
    k = 1e154; the force -2e154, formed in units of k, does not."""
    code, out, err = run(capsys, "limit", "--which", "nonrel", "--energy", "5e153",
                         "--mass", "1e154", "--convention", "negative")
    assert (code, err) == (0, "")
    assert "force        -2e+154\n" in out


def test_wavefunction_impenetrable(capsys, tmp_path):
    out_file = tmp_path / "wall.csv"
    code, _, _ = run(
        capsys, "wavefunction", "--energy", "2", "--limit", "impenetrable",
        "--range", "-5", "2", "--points", "101", "--out", str(out_file),
    )
    assert code == 0
    columns = read_csv(out_file)
    at_zero = [i for i, x in enumerate(columns["x"]) if x == 0.0]
    assert at_zero and all(
        columns["rho"][i] == pytest.approx(4.0 / 3.0, abs=1e-9) for i in at_zero
    )
    assert all(abs(j) < 1e-12 for j in columns["j"])
    meta = json.loads((tmp_path / "wall.meta.json").read_text())
    assert meta["regime"] == "impenetrable-main"


def test_wavefunction_klein_constant_current(capsys, tmp_path):
    out_file = tmp_path / "klein.csv"
    code, _, _ = run(
        capsys, "wavefunction", "--energy", "2", "--step-height", "4",
        "--range", "-4", "4", "--points", "81", "--out", str(out_file),
    )
    assert code == 0
    columns = read_csv(out_file)
    j = columns["j"]
    assert max(j) - min(j) < 1e-12


def test_wavefunction_nonrel_zero_lower(capsys, tmp_path):
    out_file = tmp_path / "nr.csv"
    code, _, _ = run(
        capsys, "wavefunction", "--energy", "0.01", "--limit", "nonrel",
        "--range", "-3", "1", "--points", "41", "--out", str(out_file),
    )
    assert code == 0
    columns = read_csv(out_file)
    assert all(v == 0.0 for v in columns["chi_re"] + columns["chi_im"])


@pytest.mark.parametrize("step_height,conv,kind,limit_argv", [
    ("3", "auto", "impenetrable-main", ("--limit", "impenetrable")),
    ("3", "lower", "impenetrable-main", ("--limit", "impenetrable", "--convention", "lower")),
    ("3", "negative", "impenetrable-negative",
     ("--limit", "impenetrable", "--convention", "negative")),
    ("1", "auto", "edge-lower", None),
    ("1", "main", "edge-lower", None),
], ids=["edge-point-auto", "edge-point-lower", "edge-point-negative", "edge-lower-auto",
        "edge-lower-main"])
def test_wavefunction_at_an_edge_samples_the_edge_state(capsys, tmp_path, step_height,
                                                        conv, kind, limit_argv):
    """On a regime edge --step-height samples limits.edge_limit, the state of
    scatter's edge row, with the sidecar gridio writes for it: at the edge
    point the samples and the sidecar of --limit impenetrable under the same
    convention, at the lower edge the wall spinor [2, 0]."""
    code, out, err = run(
        capsys, "wavefunction", "--energy", "2", "--step-height", step_height,
        "--convention", conv, "--points", "11", "--out", str(tmp_path / "edge.csv"),
    )
    assert (code, err) == (0, "")
    meta = json.loads((tmp_path / "edge.meta.json").read_text())
    row = scatter_table(1.0, float(step_height), 2.0, None if conv == "auto"
                        else Convention(conv))
    assert (meta["regime"], meta["step_height"]) == (kind, float(step_height))
    assert meta["convention"] == row["convention"][0]
    if limit_argv is None:
        columns = read_csv(tmp_path / "edge.csv")
        right = columns["x"].index(0.0) + 1
        assert columns["phi_re"][right:] == [2.0] * (len(columns["x"]) - right)
        assert columns["chi_re"][right:] == [0.0] * (len(columns["x"]) - right)
        return
    assert run(capsys, "wavefunction", "--energy", "2", *limit_argv, "--points", "11",
               "--out", str(tmp_path / "limit.csv"))[0] == 0
    for suffix in (".csv", ".meta.json"):
        assert ((tmp_path / f"edge{suffix}").read_bytes()
                == (tmp_path / f"limit{suffix}").read_bytes()), suffix


@pytest.mark.parametrize("argv", [
    ("limit", "--which", "nonrel", "--energy", "999"),
    ("limit", "--which", "nonrel", "--energy", "2", "--convention", "negative"),
    ("wavefunction", "--limit", "nonrel", "--energy", "3"),
], ids=["limit-999", "limit-2mc2", "wavefunction"])
def test_nonrel_past_2mc2_exit_2(capsys, tmp_path, argv):
    """The nonrelativistic reduction has a = sqrt(E_kin / 2mc2) < 1, as every
    relativistic state does; from E_kin = 2mc2 on it is refused."""
    out_file = tmp_path / "nr.csv"
    if argv[0] == "wavefunction":
        argv += ("--out", str(out_file))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: sqrt(E_kin / 2mc2) = ")
    assert "E_kin >= 2 mc2 is not nonrelativistic" in err
    assert not out_file.exists()


def refused_by_argparse(capsys, *argv):
    """stderr of a command that argparse itself refuses: ``main`` returns 2,
    as for every other refusal, and lets no ``SystemExit`` escape."""
    assert main(list(argv)) == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("argv", [("--help",), ("wavefunction", "--help"), ("--version",)])
def test_help_and_version_return_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.startswith(("usage: diracstep", "diracstep ")) and err == ""


def test_parser_is_built_once_and_parses_each_call_afresh(capsys):
    assert diracstep.cli.build_parser() is diracstep.cli.build_parser()
    for _ in range(2):
        for argv in (("--help",), ("--version",)):
            assert run(capsys, *argv)[0] == 0
    parse = diracstep.cli.build_parser().parse_args
    first = parse(["scatter", "--energy", "2", "--step-height", "4", "--precision", "3"])
    second = parse(["scatter", "--energy", "3", "--step-height", "4"])
    assert (first.precision, first.energy, second.precision, second.energy) == (3, 2.0, 9, 3.0)


def test_usage_error_returns_2(capsys):
    err = refused_by_argparse(capsys, "scatter", "--energy", "2")
    assert "error: the following arguments are required: --step-height" in err


def test_wavefunction_whose_phase_overflows_exit_2(capsys, tmp_path):
    # x_max - x_min fits a double, but 6 * (x_max - x_min) / 6 does not, and
    # k * x_max leaves the double range: refused by name, with no warning.
    out_file = tmp_path / "w.csv"
    code, out, err = run(
        capsys, "wavefunction", "--mass", "2", "--energy", "3.0000000000000004",
        "--step-height", "1e-310", "--points", "7",
        "--range", "1.0000000000000002", "1.7976931348623157e308", "--out", str(out_file),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: phase k*x overflows: k = ")
    assert err.endswith(", x = 1.7976931348623157e+308\n")
    assert not out_file.exists()


def test_wavefunction_whose_phase_has_no_correct_digit_exit_2(capsys, tmp_path):
    # k·x = -sqrt(3)·1e17 beyond the step: its ulp is 32 rad.
    out_file = tmp_path / "w.csv"
    code, out, err = run(capsys, "wavefunction", "--energy", "2", "--step-height", "4",
                         "--range", "1", "1e17", "--points", "3", "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err == ("error: phase k*x has no correct digit: k = -1.7320508075688772, "
                   "x = 1e+17, ulp(k*x) = 32.0\n")
    assert not out_file.exists()


def test_wavefunction_grid_keeps_both_ends_of_the_range(capsys, tmp_path):
    out_file = tmp_path / "w.csv"
    code, _, _ = run(capsys, "wavefunction", "--energy", "2", "--step-height", "4",
                     "--range", "-1", "100", "--points", "3", "--out", str(out_file))
    assert code == 0
    assert read_csv(out_file)["x"] == [-1.0, 0.0, 0.0, 100.0]


def test_wavefunction_two_points_across_the_step_exit_2(capsys, tmp_path):
    out_file = tmp_path / "w.csv"
    code, out, err = run(capsys, "wavefunction", "--energy", "2", "--step-height", "4",
                         "--range", "-1", "100", "--points", "2", "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err.startswith("error: a 2-point grid on [-1.0, 100.0] straddles x = 0")
    assert not out_file.exists()


def test_wavefunction_requires_target(capsys, tmp_path):
    err = refused_by_argparse(
        capsys, "wavefunction", "--energy", "2", "--out", str(tmp_path / "x.csv"),
    )
    assert "error:" in err


def test_wavefunction_refuses_step_height_beside_limit(capsys, tmp_path):
    out_file = tmp_path / "x.csv"
    err = refused_by_argparse(
        capsys, "wavefunction", "--energy", "0.01", "--limit", "nonrel",
        "--step-height", "3", "--out", str(out_file),
    )
    assert "error: argument --step-height: not allowed with argument --limit" in err
    assert not out_file.exists()


@pytest.mark.parametrize("x_min", ["-1e-3", "-1E-3", "-.1e-2", "-1_0e-4"])
def test_wavefunction_range_reads_negative_exponent_forms(capsys, tmp_path, x_min):
    """Every float literal is a value, not an option: argparse's own
    negative-number pattern, before Python 3.13, misses exponents."""
    out_file = tmp_path / "wall.csv"
    code, out, _ = run(
        capsys, "wavefunction", "--energy", "2", "--limit", "impenetrable",
        "--range", x_min, "1e-3", "--points", "3", "--out", str(out_file),
    )
    assert code == 0
    assert "range=[-0.001,0.001]" in out
    assert read_csv(out_file)["x"][0] == -1e-3


def test_verify_exit_codes_and_summary(capsys, tmp_path):
    code, out, _ = run(
        capsys, "verify", "--suite", "conservation", "--trials", "50",
        "--seed", "7", "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert "PASS conservation" in out
    summary = json.loads((tmp_path / "verify_conservation.json").read_text())
    assert summary["suite"] == "conservation"
    assert summary["trials"] == 50
    assert summary["failures"] == []
    assert summary["max_error"] < 1e-12
    assert summary["seed"] == 7
    assert summary["worst"].startswith(("R+T ", "continuity "))
    # Every conservation check has the bound 1e-12, so the one nearest its
    # bound is the one with the largest error.
    assert summary["closest"] == summary["worst"]
    assert summary["closest_fraction"] == summary["max_error"] / 1e-12


def test_verify_names_the_path_it_cannot_write_exit_2(capsys, tmp_path):
    # An output directory under a regular file cannot be created.
    (tmp_path / "file").write_text("")
    out_dir = tmp_path / "file" / "x"
    code, out, err = run(capsys, "verify", "--suite", "limits", "--trials", "1",
                         "--output-dir", str(out_dir))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot create output directory {out_dir}: ")
    # A summary whose path is a directory cannot be written.
    summary = tmp_path / "out" / "verify_limits.json"
    summary.mkdir(parents=True)
    code, out, err = run(capsys, "verify", "--suite", "limits", "--trials", "1",
                         "--output-dir", str(summary.parent))
    assert code == 2
    assert out.startswith("# diracstep 0.1.0 verify\n")
    assert err.startswith(f"error: cannot write verify summary to {summary}: ")


@pytest.mark.parametrize("argv,cause", [
    (("verify", "--suite", "conservation", "--trials", "0"),
     "--trials must be >= 1, got 0"),
    (("verify", "--suite", "conservation", "--trials", "-3"),
     "--trials must be >= 1, got -3"),
    (("verify", "--suite", "all", "--trials", "0", "--precision", "3"),
     "--trials must be >= 1, got 0"),
    (("verify", "--suite", "limits", "--precision", "-1"),
     "--precision must be >= 0, got -1"),
    (("scatter", "--energy", "2", "--step-height", "4", "--precision", "-1"),
     "--precision must be >= 0, got -1"),
    (("sweep", "--vary", "energy", "--from", "1.5", "--to", "2", "--points", "3",
      "--step-height", "1", "--out", "s.csv", "--precision", "-2"),
     "--precision must be >= 0, got -2"),
], ids=["trials-0", "trials-negative", "trials-0-all", "verify-precision",
        "scatter-precision", "sweep-precision"])
def test_unusable_counts_refused_before_any_output_exit_2(capsys, tmp_path, monkeypatch,
                                                          argv, cause):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "verify":
        argv += ("--output-dir", str(tmp_path / "out"))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {cause}\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_import_does_not_load_scipy():
    src = str(Path(diracstep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = "import sys, diracstep.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    assert out.strip() == "False"


# Every command a user runs, in one interpreter; prints each exit code and
# stdout, the written files, and one oracle solve.
_NO_NUMPY_RANDOM_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
if sys.argv[1] == "blocked":
    sys.modules["numpy.random"] = None  # any import of it raises
from diracstep import Convention, PhysicalSetup
from diracstep.cli import main
from diracstep.oracle import SmoothStep, integrate_scattering
runs = []
for argv in (
    ["verify", "--suite", "all", "--trials", "3", "--output-dir", "out"],
    ["scatter", "--energy", "2", "--step-height", "4"],
    ["sweep", "--vary", "step-height", "--from", "2.5", "--to", "6", "--points", "9",
     "--energy", "2", "--out", "sweep.csv"],
    ["wavefunction", "--energy", "2", "--step-height", "4", "--points", "11",
     "--out", "wave.csv"],
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
res = integrate_scattering(PhysicalSetup(1.0, 4.0, 2.0), SmoothStep(4.0, 0.1),
                           Convention.MAIN)
files = {str(p): p.read_text() for p in sorted(Path().rglob("*")) if p.is_file()}
print(json.dumps([runs, files, repr((res.R_num, res.T_num)),
                  "numpy.random" in sys.modules and sys.modules["numpy.random"] is not None]))
"""


def test_commands_run_without_numpy_random(tmp_path):
    """With numpy.random unimportable, verify, scatter, sweep, wavefunction
    and an oracle solve exit 0 and print and write what they do normally:
    the suites draw from the standard library's random.Random."""
    src = str(Path(diracstep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.random' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    if probe.strip() == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    reports = {}
    for mode in ("blocked", "normal"):
        cwd = tmp_path / mode
        cwd.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", _NO_NUMPY_RANDOM_SCRIPT, mode], cwd=cwd, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        reports[mode] = json.loads(done.stdout)
    runs, files, _, loaded = reports["blocked"]
    assert [code for code, _ in runs] == [0, 0, 0, 0]
    assert [out.split()[0] for out in runs[0][1].splitlines()[2:]] == ["PASS"] * 3
    assert sorted(files) == ["out/verify_closed-vs-oracle.json",
                             "out/verify_conservation.json", "out/verify_limits.json",
                             "sweep.csv", "wave.csv", "wave.meta.json"]
    assert not loaded
    assert reports["blocked"] == reports["normal"]


def test_scatter_infinite_energy_exit_2(capsys):
    code, _, err = run(capsys, "scatter", "--energy", "inf", "--step-height", "4")
    assert code == 2
    assert err == "error: energy must be finite, got inf\n"


def test_scatter_massless_traditional_klein_is_singular_exit_2(capsys):
    code, _, err = run(
        capsys, "scatter", "--mass", "0", "--energy", "1", "--step-height", "3",
        "--convention", "traditional",
    )
    assert code == 2
    assert "continuity system singular for 'traditional'" in err


@pytest.mark.parametrize("x_range,cause", [
    (("-5", "inf"), "x_min and x_max must be finite"),
    (("nan", "5"), "x_min and x_max must be finite"),
    (("-" + str(int(1e308)), str(int(1e308))), "x_max - x_min overflows"),
    (("5", "-5"), "x_min must be below x_max"),
])
@pytest.mark.parametrize("target", [
    ("--limit", "impenetrable"),
    ("--step-height", "4"),
])
def test_wavefunction_rejects_unusable_range_exit_2(capsys, tmp_path, x_range, cause, target):
    out_file = tmp_path / "w.csv"
    code, out, err = run(
        capsys, "wavefunction", "--energy", "2", *target, "--range", *x_range,
        "--points", "4", "--out", str(out_file),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and cause in err
    assert not out_file.exists()


@pytest.mark.parametrize("target", [
    ("--limit", "impenetrable"),
    ("--step-height", "4"),
])
def test_wavefunction_rejects_single_point_before_any_output_exit_2(capsys, tmp_path,
                                                                    target):
    out_file = tmp_path / "w.csv"
    code, out, err = run(
        capsys, "wavefunction", "--energy", "2", *target, "--points", "1",
        "--out", str(out_file),
    )
    assert (code, out, err) == (2, "", "error: need at least two grid points\n")
    assert not out_file.exists()


@pytest.mark.parametrize("argv,cause", [
    (("--which", "impenetrable", "--energy", "2", "--mass", "nan"),
     "mass_energy must be finite and >= 0, got nan"),
    (("--which", "impenetrable", "--energy", "inf"), "energy must be finite, got inf"),
    (("--which", "impenetrable", "--energy", "2", "--mass", "-1"),
     "mass_energy must be finite and >= 0, got -1.0"),
    (("--which", "nonrel", "--energy", "inf"), "energy must be finite, got inf"),
    (("--which", "nonrel", "--energy", "0.01", "--mass", "inf"),
     "mass_energy must be finite and >= 0, got inf"),
    (("--which", "infinite", "--energy", "2", "--mass", "nan"),
     "mass_energy must be finite and >= 0, got nan"),
    (("--which", "infinite", "--energy", "nan"), "energy must be finite, got nan"),
], ids=["impenetrable-mass-nan", "impenetrable-energy-inf", "impenetrable-mass-negative",
        "nonrel-energy-inf", "nonrel-mass-inf", "infinite-mass-nan", "infinite-energy-nan"])
def test_limit_refuses_non_finite_inputs_exit_2(capsys, argv, cause):
    code, out, err = run(capsys, "limit", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {cause}\n"


@pytest.mark.parametrize("limit", ["impenetrable", "nonrel"])
def test_wavefunction_limit_refuses_infinite_energy_exit_2(capsys, tmp_path, limit):
    out_file = tmp_path / "w.csv"
    code, _, err = run(
        capsys, "wavefunction", "--limit", limit, "--energy", "inf",
        "--out", str(out_file),
    )
    assert code == 2
    assert err == "error: energy must be finite, got inf\n"
    assert not out_file.exists()


@pytest.mark.parametrize("start,stop,cause", [
    ("2", "inf", "sweep range must be finite, got [2.0, inf]"),
    ("-inf", "3", "sweep range must be finite, got [-inf, 3.0]"),
    ("nan", "3", "sweep range must be finite, got [nan, 3.0]"),
    ("-1e308", "1e308", "sweep range [-1e+308, 1e+308] too wide: --to - --from overflows"),
], ids=["to-inf", "from-minus-inf", "from-nan", "overflow"])
def test_sweep_refuses_unusable_range_exit_2(capsys, tmp_path, start, stop, cause):
    out_file = tmp_path / "s.csv"
    code, out, err = run(
        capsys, "sweep", "--vary", "energy", f"--from={start}", f"--to={stop}",
        "--points", "3", "--step-height", "1", "--out", str(out_file),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {cause}\n"
    assert not out_file.exists()


@pytest.mark.parametrize("vary,fixed", [("energy", "--step-height"),
                                        ("step-height", "--energy")])
def test_sweep_refuses_a_value_for_the_varied_parameter_exit_2(capsys, tmp_path, vary, fixed):
    out_file = tmp_path / "s.csv"
    code, out, err = run(
        capsys, "sweep", "--vary", vary, "--from", "1.5", "--to", "3", "--points", "3",
        fixed, "1", f"--{vary}", "9", "--out", str(out_file),
    )
    assert (code, out) == (2, "")
    assert err == f"error: --{vary} is varied from --from to --to and takes no value\n"
    assert not out_file.exists()


def test_sweep_to_one_ulp_inside_transmission_exit_2(capsys, tmp_path):
    """The last row, V₀ = 0.9999999999999999 at E = 2, is inside the
    transmission regime, but E − V₀ rounds to mc².  The error names the row,
    its setup and the number of refused rows."""
    out_file = tmp_path / "s.csv"
    code, out, err = run(
        capsys, "sweep", "--vary", "step-height", "--from", "0.1", "--to", "1",
        "--points", "10", "--energy", "2", "--out", str(out_file),
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: row 9 (V0=0.9999999999999999, E=2.0): "
        "transmitted wave number rounds to 0 in Transmission: "
        "V0=0.9999999999999999 is within rounding of the regime edge E - mc2 "
        "(E=2.0, mc2=1.0); 1 of 10 rows refused\n"
    )
    assert not out_file.exists()


# Flags that take an energy, and table rows and CSV columns in units of
# energy; lengths (--range, x) go as its inverse.
_ENERGY_FLAGS = ("--energy", "--step-height", "--mass", "--from", "--to")
_ENERGIES = {"step_height", "energy", "k", "kbar_or_kappa", "force", "external_force",
             "boundary_force", "nr_force"}


def _scaled_argv(argv, s, out):
    """argv with every energy divided by 2^s and every length multiplied by
    it, writing to ``out``."""
    scaled = list(argv)
    for i, flag in enumerate(argv):
        if flag in _ENERGY_FLAGS:
            scaled[i + 1] = repr(math.ldexp(float(argv[i + 1]), -s))
        elif flag == "--range":
            scaled[i + 1:i + 3] = (repr(math.ldexp(float(x), s)) for x in argv[i + 1:i + 3])
        elif flag == "--out":
            scaled[i + 1] = str(out)
    return scaled if "--mass" in argv else [*scaled, "--mass", repr(math.ldexp(1.0, -s))]


def _values(stdout, out):
    """(name, value) of every printed row but comments, and of every cell of
    the CSV at ``out``, if written."""
    values = [tuple(line.split(None, 1)) for line in stdout.splitlines()
              if line and not line.startswith(("#", "wrote"))]
    if out.exists():
        header, *rows = (line.split(",") for line in out.read_text().splitlines())
        values += [value for row in rows for value in zip(header, row, strict=True)]
    return values


def _assert_scales(capsys, tmp_path, argv):
    """``argv`` exits 0 and prints, and writes, what it does with every energy
    divided by 2^s (s the binary exponent of the largest) and every length
    multiplied by it: the values in units of energy times 2^s, those in units
    of length times 2^-s, and every other value identical."""
    energies = [float(argv[i + 1]) for i, flag in enumerate(argv) if flag in _ENERGY_FLAGS]
    s = math.frexp(max(energies))[1]
    runs = []
    for args, out in ((argv, tmp_path / "out.csv"),
                      (_scaled_argv(argv, s, tmp_path / "base.csv"), tmp_path / "base.csv")):
        if args[0] in ("scatter", "limit"):
            args = [*args, "--precision", "17"]
        code, stdout, err = run(capsys, *args)
        assert (code, err) == (0, "")
        runs.append(_values(stdout, out))
    assert [name for name, _ in runs[0]] == [name for name, _ in runs[1]]
    for (name, value), (_, base) in zip(*runs):
        power = 1 if name in _ENERGIES else -1 if name == "x" else 0
        if power:
            assert float(value).hex() == math.ldexp(float(base), power * s).hex(), name
        else:
            assert value == base, name


@pytest.mark.parametrize("argv", [
    ("scatter", "--mass", "1e-200", "--energy", "2e-200", "--step-height", "1e-199"),
    ("scatter", "--mass", "0", "--energy", "1e-170", "--step-height", "5e-171"),
    ("scatter", "--mass", "1e-200", "--energy", "1.0000001e-200", "--step-height", "1e-100"),
    # k^2 = 1e-300 is normal; k-bar^2 = (E - V0)^2, a few ulps of E squared, is not.
    ("scatter", "--mass", "0", "--energy", "1e-150", "--step-height", "9.999999999999999e-151"),
    # The Klein edge, where k comes from core.incident_wave.
    ("scatter", "--mass", "1e-200", "--energy", "2e-200", "--step-height", "3e-200"),
], ids=["kbar2-klein", "kbar2-massless", "k2", "kbar2-only", "k2-edge"])
def test_products_that_underflow_are_refused_with_their_cause_exit_2(capsys, tmp_path, argv):
    """k² or k̄² of these setups underflows the double range in their own
    unit.  Formed from power-of-two-scaled pairs, they are normal, and each
    setup prints what it prints scaled into the normal range."""
    _assert_scales(capsys, tmp_path, argv)


@pytest.mark.parametrize("argv", [
    ("--energy", "2", "--step-height", "1e300"),
    ("--energy", "1e200", "--step-height", "1"),
    ("--energy", "2", "--step-height", "1e300", "--mass", "0"),
], ids=["step-height-1e300", "energy-1e200", "massless-step-height-1e300"])
def test_scatter_refuses_overflowing_magnitudes_exit_2(capsys, tmp_path, argv):
    """k² or k̄² of these setups overflows the double range in their own unit;
    formed from scaled pairs it does not, and each setup prints what it
    prints scaled into the normal range."""
    _assert_scales(capsys, tmp_path, ("scatter", *argv))


_FORCE_OVERFLOW = "wall force -V0 rho(0) overflows"
_NR_PAST_2MC2 = (f"sqrt(E_kin / 2mc2) = {math.sqrt(1e308 / 2.0)} >= 1: E_kin >= 2 mc2 is not "
                 "nonrelativistic (E_kin=1e+308, mc2=1.0)")


@pytest.mark.parametrize("argv,cause", [
    (("scatter", "--energy", "1e300", "--step-height", "1e300"), None),
    # Both rows lie on a regime edge: E - mc2 and E + mc2.
    (("sweep", "--vary", "step-height", "--from", "9.999999999e+199",
      "--to", "1.0000000000999999e+200", "--points", "2", "--energy", "1e200",
      "--mass", "1e190"), None),
    (("limit", "--which", "impenetrable", "--energy", "1e300"), None),
    (("limit", "--which", "infinite", "--energy", "1e300"), None),
    # Lengths go as 1/E: the default range, -5 to 5, would hold 1e300
    # wavelengths, a phase with no correct digit.
    (("wavefunction", "--limit", "impenetrable", "--energy", "1e300",
      "--range", "-5e-300", "5e-300"), None),
    (("limit", "--which", "nonrel", "--energy", "1e308"), _NR_PAST_2MC2),
    (("wavefunction", "--limit", "nonrel", "--energy", "1e308"), _NR_PAST_2MC2),
    # V0 = E + mc2 rounds to E: the edge point.
    (("wavefunction", "--energy", "1e300", "--step-height", "1e300",
      "--range", "-5e-300", "5e-300"), None),
    # The wall force -V0 rho(0) = -4(E - mc2) of the edge state overflows.
    (("scatter", "--energy", "1e308", "--step-height", "1e308"),
     f"{_FORCE_OVERFLOW} (E=1e+308, V0=1e+308, mc2=1.0)"),
    (("sweep", "--vary", "step-height", "--from", "1e308", "--to", "1.5e308", "--points", "2",
      "--energy", "1e308"),
     f"row 0 (V0=1e+308, E=1e+308): {_FORCE_OVERFLOW} (E=1e+308, V0=1e+308, mc2=1.0); "
     "2 of 2 rows refused"),
    (("limit", "--which", "impenetrable", "--energy", "1e308"),
     f"{_FORCE_OVERFLOW} (E=1e+308, V0=1e+308, mc2=1.0)"),
    (("wavefunction", "--limit", "impenetrable", "--energy", "1e308"),
     f"{_FORCE_OVERFLOW} (E=1e+308, V0=1e+308, mc2=1.0)"),
    (("limit", "--which", "impenetrable", "--energy", "1.5e308", "--mass", "1e308"),
     "E + mc2 overflows (E=1.5e+308, mc2=1e+308)"),
], ids=["scatter", "sweep", "limit", "limit-infinite", "wavefunction", "limit-nonrel",
        "wavefunction-nonrel", "wavefunction-edge", "scatter-force", "sweep-force",
        "limit-force", "wavefunction-force", "limit-e-plus-mc2"])
def test_edge_point_with_overflowing_wave_number_exit_2(capsys, tmp_path, argv, cause):
    """At an edge, and in every relativistic limit, k² = (E - mc2)(E + mc2)
    of these setups overflows in their own unit; k is formed from a scaled
    pair, and each prints and writes what it does scaled into the normal
    range (cause None).  An edge state whose wall force overflows is refused
    by name, as an open setup is, and so is an impenetrable limit whose
    V0 = E + mc2 overflows; the nonrelativistic limit refuses E_kin >= 2 mc2
    before any value can overflow."""
    out_file = tmp_path / "out.csv"
    if argv[0] in ("sweep", "wavefunction"):
        argv += ("--out", str(out_file))
    if cause is None:
        _assert_scales(capsys, tmp_path, argv)
        return
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {cause}\n"
    assert not out_file.exists()


def test_limit_impenetrable_nr_force_where_2mc2_e_kin_overflows(capsys):
    # 2 mc2 E_kin = 8e614 would overflow in this unit; k is formed from the
    # mantissas and exponents of E_kin and mc2, so the Dirichlet force
    # -4 E_kin = -8e307 is printed beside the edge state's -4(E - mc2), the
    # same value.
    code, out, _ = run(capsys, "limit", "--which", "impenetrable", "--energy", "4e307",
                       "--mass", "2e307")
    assert code == 0
    assert float(_table_of(out)["nr_force"]) == pytest.approx(-8e307, rel=1e-15)
    assert float(_table_of(out)["external_force"]) == pytest.approx(-8e307, rel=1e-15)


@pytest.mark.parametrize("energy,mass", [("1e300", "1e-10"), ("1e-10", "1e-300")])
def test_limit_impenetrable_nr_force_at_a_large_ratio(capsys, energy, mass):
    """E_kin/mc2 = 1e310 or 1e290 leaves or nears the double range; k and a
    are each formed from the mantissas and exponents of E_kin and mc2, so
    the Dirichlet force -4 E_kin is printed."""
    code, out, _ = run(capsys, "limit", "--which", "impenetrable", "--energy", energy,
                       "--mass", mass)
    assert code == 0
    e_kin = float(energy) - float(mass)
    assert float(_table_of(out)["nr_force"]) == pytest.approx(-4.0 * e_kin, rel=1e-15)


def test_limit_nonrel_where_2mc2_e_kin_underflows(capsys):
    """2 mc2 E_kin = 2e-340 would underflow in this unit; k = 1.4e-170 is
    formed from the mantissas and exponents of E_kin and mc2, so the state
    exists and its force is -4 E_kin."""
    code, out, err = run(capsys, "limit", "--which", "nonrel", "--energy", "1e-170",
                         "--mass", "1e-170")
    assert (code, err) == (0, "")
    assert _table_of(out)["force"] == "-4e-170"


_POINTS_ARGV = {
    "sweep": ("sweep", "--vary", "energy", "--from", "1.5", "--to", "3",
              "--step-height", "4"),
    "wavefunction": ("wavefunction", "--energy", "2", "--step-height", "4"),
}


@pytest.mark.parametrize("command", list(_POINTS_ARGV))
def test_point_count_that_does_not_fit_in_memory_exit_2(capsys, tmp_path, monkeypatch,
                                                         command):
    # numpy refuses the grid of 1e11 points; the refusal is simulated, so
    # that the test allocates nothing.
    arange = np.arange

    def refuse_huge(n, *args, **kwargs):
        if n == 100_000_000_000:
            raise MemoryError("Unable to allocate 745. GiB")
        return arange(n, *args, **kwargs)

    monkeypatch.setattr(np, "arange", refuse_huge)
    out_file = tmp_path / "p.csv"
    code, out, err = run(capsys, *_POINTS_ARGV[command], "--points", "100000000000",
                         "--out", str(out_file))
    assert code == 2
    assert out == ""
    assert err == "error: 100000000000 points do not fit in memory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, noun", [("sweep", "sweep"), ("wavefunction", "sample")])
def test_write_failure_names_the_output_exit_2(capsys, tmp_path, command, noun):
    out_file = tmp_path / "missing" / "p.csv"
    code, _, err = run(capsys, *_POINTS_ARGV[command], "--points", "5",
                       "--out", str(out_file))
    assert code == 2
    assert err.startswith(f"error: cannot write {noun} to {out_file}: [Errno 2] ")
    assert not out_file.parent.exists()
