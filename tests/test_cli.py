"""CLI surface: commands, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracstep
from diracstep.cli import main
from diracstep.gridio import CSV_HEADER


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


def test_limit_infinite(capsys):
    code, out, _ = run(capsys, "limit", "--which", "infinite", "--energy", "2")
    assert code == 0
    lines = dict(
        line.split(None, 1) for line in out.splitlines()
        if line and not line.startswith("#")
    )
    assert float(lines["R"]) == pytest.approx(0.0717967697, abs=1e-9)
    assert float(lines["T"]) == pytest.approx(0.9282032303, abs=1e-9)


def test_limit_nonrel_neumann(capsys):
    code, out, _ = run(
        capsys, "limit", "--which", "nonrel", "--energy", "0.01",
        "--convention", "negative",
    )
    assert code == 0
    assert "NeumannNR" in out


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


def test_wavefunction_requires_target(capsys, tmp_path):
    code, _, err = run(
        capsys, "wavefunction", "--energy", "2", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "error:" in err


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
    code, out, err = run(capsys, *argv, "--output-dir", str(tmp_path / "out"))
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


def test_sweep_to_one_ulp_inside_transmission_exit_2(capsys, tmp_path):
    """The last row, V₀ = 0.9999999999999999 at E = 2, is inside the
    transmission regime, but E − V₀ rounds to mc²."""
    out_file = tmp_path / "s.csv"
    code, out, err = run(
        capsys, "sweep", "--vary", "step-height", "--from", "0.1", "--to", "1",
        "--points", "10", "--energy", "2", "--out", str(out_file),
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: transmitted wave number rounds to 0 in Transmission: "
        "V0=0.9999999999999999 is within rounding of the regime edge E - mc2 "
        "(E=2.0, mc2=1.0)\n"
    )
    assert not out_file.exists()


@pytest.mark.parametrize("argv,cause", [
    (("--energy", "2", "--step-height", "1e300"),
     "(E - V0 - mc2)(E - V0 + mc2) overflows (E=2.0, V0=1e+300, mc2=1.0)"),
    (("--energy", "1e200", "--step-height", "1"),
     "(E - mc2)(E + mc2) overflows (E=1e+200, mc2=1.0)"),
    (("--energy", "2", "--step-height", "1e300", "--mass", "0"),
     "(E - V0 - mc2)(E - V0 + mc2) overflows (E=2.0, V0=1e+300, mc2=0.0)"),
], ids=["step-height-1e300", "energy-1e200", "massless-step-height-1e300"])
def test_scatter_refuses_overflowing_magnitudes_exit_2(capsys, argv, cause):
    code, out, err = run(capsys, "scatter", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {cause}\n"


@pytest.mark.parametrize("argv,cause", [
    (("scatter", "--energy", "1e300", "--step-height", "1e300"),
     "E=1e+300, mc2=1.0"),
    # Both rows lie on a regime edge: E - mc2 and E + mc2.
    (("sweep", "--vary", "step-height", "--from", "9.999999999e+199",
      "--to", "1.0000000000999999e+200", "--points", "2", "--energy", "1e200",
      "--mass", "1e190"), "E=1e+200, mc2=1e+190"),
    (("limit", "--which", "impenetrable", "--energy", "1e300"), "E=1e+300, mc2=1.0"),
    (("limit", "--which", "infinite", "--energy", "1e300"), "E=1e+300, mc2=1.0"),
    (("wavefunction", "--limit", "impenetrable", "--energy", "1e300"),
     "E=1e+300, mc2=1.0"),
], ids=["scatter", "sweep", "limit", "limit-infinite", "wavefunction"])
def test_edge_point_with_overflowing_wave_number_exit_2(capsys, tmp_path, argv, cause):
    """At an edge, and in every relativistic limit, the incident wave number
    k comes from core.incident_wave, which refuses k² = (E - mc2)(E + mc2)
    that overflows, as kinematics does."""
    out_file = tmp_path / "out.csv"
    if argv[0] in ("sweep", "wavefunction"):
        argv += ("--out", str(out_file))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: (E - mc2)(E + mc2) overflows ({cause})\n"
    assert not out_file.exists()


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
