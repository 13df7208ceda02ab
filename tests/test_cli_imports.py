"""Which package modules each command loads.

Each command runs as ``python -m diracstep.cli`` does, through
``runpy.run_module`` in a fresh interpreter, which then reports the modules
in ``sys.modules``. The same command also runs after every other submodule
is imported (``cli`` itself is left to ``runpy``, which warns about a
``__main__`` module that is already loaded): stdout, stderr and the exit
code must not depend on which modules a command loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import diracstep

_RUN_AS_MAIN = """
import runpy, sys
mode, report, *argv = sys.argv[1:]
if mode == "eager":
    import importlib, pkgutil
    import diracstep
    for info in pkgutil.iter_modules(diracstep.__path__):
        if info.name != "cli":
            importlib.import_module(f"diracstep.{info.name}")
sys.argv = ["diracstep", *argv]
code = 0
try:
    runpy.run_module("diracstep.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = sorted(sys.modules)
with open(report, "w") as fh:
    fh.write("\\n".join(loaded))
sys.exit(code)
"""

HEAVY = {"diracstep.gridio", "diracstep.oracle", "diracstep.verify", "json"}

# Commands that run none of the CSV writer, the oracle or the suites.
LIGHT = [
    "scatter --energy 2 --step-height 0.5",
    "scatter --energy 2 --step-height 1",
    "scatter --energy 2 --step-height 2.5",
    "scatter --energy 2 --step-height 3",
    "scatter --energy 2 --step-height 4 --convention traditional",
    "scatter --mass 0 --energy 1 --step-height 3",
    "scatter --energy 2 --step-height 2.5 --convention traditional",
    "scatter --energy inf --step-height 4",
    "limit --which impenetrable --energy 2",
    "limit --which impenetrable --energy 2 --convention negative",
    "limit --which nonrel --energy 0.01",
    "limit --which infinite --energy 2",
    "limit --which nonrel --energy 3",
    "--help",
    "verify --suite bogus",
]
WRITERS = [
    "sweep --vary step-height --from 0.5 --to 4.5 --points 9 --energy 2 --out sweep.csv",
    "wavefunction --energy 2 --step-height 4 --points 11 --out wave.csv",
    "wavefunction --energy 2 --limit impenetrable --points 11 --out wave.csv",
]


def _run(tmp_path, mode, command):
    src = str(Path(diracstep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cwd = tmp_path / mode
    cwd.mkdir()
    done = subprocess.run(
        [sys.executable, "-c", _RUN_AS_MAIN, mode, "modules.txt", *command.split()],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    loaded = set((cwd / "modules.txt").read_text().split("\n"))
    files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*"))
             if p.is_file() and p.name != "modules.txt"}
    return (done.returncode, done.stdout, done.stderr, files), loaded


def _check(tmp_path, command):
    lazy, loaded = _run(tmp_path, "lazy", command)
    eager, _ = _run(tmp_path, "eager", command)
    assert lazy == eager
    assert "numpy" in loaded
    return lazy[0], loaded


@pytest.mark.parametrize("command", LIGHT)
def test_one_shot_commands_load_no_writer_oracle_or_suites(tmp_path, command):
    code, loaded = _check(tmp_path, command)
    assert code in (0, 2)
    assert not HEAVY & loaded


@pytest.mark.parametrize("command", WRITERS)
def test_writers_load_gridio_but_not_the_oracle_or_suites(tmp_path, command):
    code, loaded = _check(tmp_path, command)
    assert code == 0
    assert "diracstep.gridio" in loaded
    assert not {"diracstep.oracle", "diracstep.verify"} & loaded


def test_verify_loads_the_suites_and_the_oracle(tmp_path):
    code, loaded = _check(tmp_path, "verify --suite limits --trials 1 --output-dir out")
    assert code == 0
    assert {"diracstep.oracle", "diracstep.verify", "json"} <= loaded
