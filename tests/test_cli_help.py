"""Golden help text of the ``diracstep`` command.

``golden/help_transcript.txt`` holds the exact bytes of ``diracstep --help``,
of every subcommand's ``--help`` and of a ``--suite`` usage error, in the
block format of ``golden/edge_transcript.txt``; argparse wraps at
``COLUMNS``, which the test and the generator fix at 80.

Regenerate the golden file, after a deliberate output change only, with
``PYTHONPATH=src python tests/test_cli_help.py``.
"""

import os
import sys
import tempfile
from pathlib import Path

import pytest

from diracstep import cli, verify
from test_cli_edges import _block, _golden_blocks

GOLDEN = Path(__file__).parent / "golden" / "help_transcript.txt"
COMMANDS = [
    "--help",
    *(f"{command} --help" for command in ("scatter", "sweep", "limit", "wavefunction", "verify")),
    "verify --suite bogus",
]


@pytest.mark.parametrize("command", COMMANDS)
def test_help_transcript(command, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _block(command, tmp_path) == _golden_blocks(GOLDEN)[command]


def test_suite_choices_are_the_verify_suites():
    # The parser lists the suites without importing verify.
    action = next(a for a in cli.build_parser()._subparsers._group_actions[0]
                  .choices["verify"]._actions if a.dest == "suite")
    assert action.choices == (*verify.SUITES, "all")
    assert cli._SUITES == tuple(verify.SUITES)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text("".join(_block(command, Path(scratch)) for command in COMMANDS),
                          newline="\n")
    sys.exit(0)
