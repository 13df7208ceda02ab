"""Golden CLI transcript at the regime edges V0 = E +- mc2.

Each command below runs in an empty directory; its block in
``golden/edge_transcript.txt`` holds the exact stdout, the stderr lines
prefixed with "! ", the exit code, and the sha256 of every file it wrote.
The commands cover ``scatter`` at both edges (and the massless edge point)
under every convention, sweeps that reach or cross the edges under every
convention, every ``limit`` kind, and ``wavefunction`` at both edges, which
samples the edge state that ``scatter`` reports (or exits 2 as it does).

Regenerate the golden file, after a deliberate output change only, with
``PYTHONPATH=src python tests/test_cli_edges.py``.
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from diracstep.cli import main

GOLDEN = Path(__file__).parent / "golden" / "edge_transcript.txt"
CONVENTIONS = ("auto", "main", "lower", "traditional", "negative")


def _commands() -> list[str]:
    commands = []
    for conv in CONVENTIONS:
        c = f"--convention {conv}"
        commands += [
            f"scatter --energy 2 --step-height 3 {c}",
            f"scatter --energy 2 --step-height 1 {c}",
            f"scatter --energy 1.25 --step-height 2.25 {c} --precision 17",
            f"scatter --energy 1.25 --step-height 0.25 {c} --precision 17",
            f"scatter --mass 0 --energy 1 --step-height 1 {c}",
            f"sweep --vary step-height --from 0.5 --to 4.5 --points 9 --energy 2 {c} "
            "--out sweep.csv",
            f"sweep --vary step-height --from 3 --to 5 --points 9 --energy 2 {c} "
            "--out sweep.csv",
            f"sweep --vary step-height --from 0.5 --to 1 --points 5 --energy 2 {c} "
            "--out sweep.csv",
            f"sweep --vary energy --from 1.5 --to 5.5 --points 9 --step-height 2.5 {c} "
            "--out sweep.csv",
            f"sweep --vary step-height --from 0.5 --to 1.5 --points 5 --energy 1 "
            f"--mass 0 {c} --out sweep.csv",
            f"limit --which impenetrable --energy 2 {c}",
            f"limit --which nonrel --energy 0.01 {c}",
            f"wavefunction --energy 2 --step-height 3 {c} --points 5 --out w.csv",
            f"wavefunction --energy 2 --step-height 1 {c} --points 5 --out w.csv",
            f"wavefunction --energy 0.01 --limit nonrel {c} --points 5 --out w.csv",
        ]
    commands += [
        "limit --which infinite --energy 2",
        "limit --which infinite --mass 0 --energy 2",
    ]
    return commands


def _block(command: str, workdir: Path) -> str:
    """Transcript block of one command, run with ``workdir`` as cwd."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(shlex.split(command))
    finally:
        os.chdir(cwd)
    lines = [f"$ {command}", *out.getvalue().splitlines()]
    lines += [f"! {line}" for line in err.getvalue().splitlines()]
    lines.append(f"[exit {code}]")
    for path in sorted(workdir.iterdir()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"[sha256 {path.name} {digest}]")
    return "\n".join(lines) + "\n"


def _golden_blocks(golden: Path = GOLDEN) -> dict[str, str]:
    blocks: dict[str, str] = {}
    command = None
    for line in golden.read_text().splitlines(keepends=True):
        if line.startswith("$ "):
            command = line[2:].rstrip("\n")
            blocks[command] = ""
        blocks[command] += line
    return blocks


@pytest.mark.parametrize("command", _commands())
def test_edge_transcript(command, tmp_path):
    assert _block(command, tmp_path) == _golden_blocks()[command]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        blocks = []
        for i, command in enumerate(_commands()):
            workdir = Path(scratch) / str(i)
            workdir.mkdir()
            blocks.append(_block(command, workdir))
    GOLDEN.write_text("".join(blocks), newline="\n")
    sys.exit(0)
