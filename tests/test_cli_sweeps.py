"""Golden CLI transcript of open-regime ``sweep`` and ``scatter`` runs.

Same block format as ``test_cli_edges.py`` (stdout, "! "-prefixed stderr,
exit code, sha256 of every written file), stored in
``golden/sweep_transcript.txt``.  Every convention runs at --precision 9
and 17 over the Klein zone, the evanescent band and the transmission
regime, for mc2 = 1, 1e-3 and 0, one ulp from either edge and at
magnitudes up to 1e150.  Each convention also runs 2000-row sweeps on the
dyadic grid of step 2^-8, on which both edges V0 = E +- mc2 fall exactly,
and the refusal-order sweep whose first row, not a later one, names the
cause.

Regenerate the golden file, after a deliberate output change only, with
``PYTHONPATH=src python tests/test_cli_sweeps.py``.
"""

import functools
import math
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from diracstep import table
from diracstep.cli import main
from test_cli_edges import CONVENTIONS, _block, _golden_blocks

GOLDEN = Path(__file__).parent / "golden" / "sweep_transcript.txt"
H = 2.0 ** -8
_golden = functools.cache(_golden_blocks)


def _ulps(x: float) -> tuple[str, str]:
    """The floats one ulp below and above x, as the CLI would be given them."""
    return repr(math.nextafter(x, -math.inf)), repr(math.nextafter(x, math.inf))


def _dyadic(start_units: int) -> str:
    """--from/--to of a 2000-row sweep on the grid start_units·2^-8 + i·2^-8."""
    return f"--from {start_units * H!r} --to {(start_units + 1999) * H!r} --points 2000"


def _scatters() -> list[str]:
    setups = [
        "--energy 2 --step-height 5",
        "--energy 2 --step-height 0.5",
        "--energy 2 --step-height 2",
        "--energy 7.25 --step-height 100",
        "--mass 0.001 --energy 0.5 --step-height 3",
        "--mass 0.001 --energy 0.5 --step-height 0.2",
        "--mass 0.001 --energy 0.5 --step-height 0.5004",
        "--mass 0 --energy 1 --step-height 0.5",
        "--mass 0 --energy 1 --step-height 1.5",
        "--mass 1e150 --energy 2e150 --step-height 7e150",
        "--mass 1e150 --energy 3e150 --step-height 2.5e150",
        "--mass 1e-150 --energy 2e-150 --step-height 1e-149",
        "--mass 1e-3 --energy 1e150 --step-height 3e149",
    ]
    for v0 in (1.0, 3.0):
        setups += [f"--energy 2 --step-height {v}" for v in _ulps(v0)]
    for v0 in (0.499, 0.501):
        setups += [f"--mass 0.001 --energy 0.5 --step-height {v}" for v in _ulps(v0)]
    setups += [f"--mass 0 --energy 1 --step-height {v}" for v in _ulps(1.0)]
    return setups


def _sweeps() -> list[str]:
    lo, hi = _ulps(1.0)
    lo3, hi3 = _ulps(3.0)
    return [
        "--vary step-height --from 3.5 --to 8 --points 10 --energy 2",
        "--vary step-height --from 0.05 --to 0.95 --points 10 --energy 2",
        "--vary step-height --from 1.05 --to 2.95 --points 10 --energy 2",
        "--vary step-height --from 0.1 --to 6 --points 13 --energy 2",
        "--vary energy --from 1.1 --to 9 --points 12 --step-height 4",
        "--vary step-height --from 0.1 --to 2 --points 20 --energy 0.5 --mass 0.001",
        "--vary energy --from 0.01 --to 3 --points 15 --step-height 0.7 --mass 0.001",
        "--vary step-height --from 0.1 --to 3 --points 11 --energy 1 --mass 0",
        f"--vary step-height --from {lo} --to {hi} --points 2 --energy 2",
        f"--vary step-height --from {lo3} --to {hi3} --points 2 --energy 2",
        f"--vary step-height --from {hi} --to {lo3} --points 7 --energy 2",
        "--vary energy --from 1.5e150 --to 9e150 --points 9 --step-height 4e150 "
        "--mass 1e150",
        "--vary step-height --from 1e-151 --to 9e-150 --points 9 --energy 2e-150 "
        "--mass 1e-150",
    ]


def _commands() -> list[str]:
    commands = []
    for conv in CONVENTIONS:
        c = f"--convention {conv}"
        for precision in (9, 17):
            p = f"--precision {precision}"
            commands += [f"scatter {s} {c} {p}" for s in _scatters()]
            commands += [f"sweep {s} {c} {p} --out sweep.csv" for s in _sweeps()]
        # Dyadic 2000-row sweeps: E = 2.5 puts both edges, 1.5 and 3.5, on
        # the grid; V0 = 3 puts them at E = 2 and 4.
        commands += [
            f"sweep --vary step-height {_dyadic(1)} --energy 2.5 {c} --out sweep.csv",
            f"sweep --vary energy {_dyadic(257)} --step-height 3 {c} --out sweep.csv",
            f"sweep --vary step-height {_dyadic(896)} --energy 2.5 {c} --out sweep.csv",
            f"sweep --vary step-height {_dyadic(1)} --energy 8.8125 {c} "
            "--out sweep.csv",
        ]
    commands.append(
        "sweep --vary step-height --from 0.9999999999999999 --to 1.0000000000000002 "
        "--points 4 --energy 2 --convention negative --out sweep.csv"
    )
    return commands


@pytest.mark.parametrize("command", _commands())
def test_sweep_transcript(command, tmp_path):
    assert _block(command, tmp_path) == _golden(GOLDEN)[command]


@pytest.mark.parametrize("argv,grid", [
    # i·(--to − --from) overflows at i = 2 although i·(--to − --from)/2 does not.
    ("--from 1.5 --to 1e308 --points 3", [1.5, 5e307, 1e308]),
    # Products that fit keep the grid bits the golden CSVs were written with.
    ("--from 1.1 --to 7 --points 13", (1.1 + np.arange(13) * (7 - 1.1) / 12).tolist()),
])
def test_sweep_grid_is_formed_without_overflow(argv, grid, monkeypatch, tmp_path, capsys):
    """The energies a sweep hands to ``scatter_table``: a grid whose products
    i·(--to − --from) overflow ends at --to with no RuntimeWarning (an error
    under this suite's filterwarnings), and its rows are written as any
    other's."""
    grids, scatter_table = [], table.scatter_table

    def capture(mass, step_heights, energies, conv):
        grids.append(energies.tolist())
        return scatter_table(mass, step_heights, energies, conv)

    monkeypatch.setattr(table, "scatter_table", capture)
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(f"sweep --vary energy {argv} --step-height 1 --out s.csv")) == 0
    assert grids == [grid]
    assert capsys.readouterr().err == ""
    assert len((tmp_path / "s.csv").read_text().splitlines()) == len(grid) + 1

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        blocks = []
        for i, command in enumerate(_commands()):
            workdir = Path(scratch) / str(i)
            workdir.mkdir()
            blocks.append(_block(command, workdir))
    GOLDEN.write_text("".join(blocks), newline="\n")
    sys.exit(0)
