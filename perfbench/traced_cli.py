"""Traced stand-in for ``python -m diracstep.cli``, used by the traced run.

Usage: ``python traced_cli.py SPANS_FILE REQUEST_ID ARGV...``.  Installs the
span wrappers, runs ``diracstep.cli.main(ARGV)`` as one request, writes the
spans to SPANS_FILE as JSON and exits with main's exit code.
"""

from __future__ import annotations

import json
import sys

import tracing


def run() -> int:
    spans_file, request_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    import diracstep.cli

    code = 1
    try:
        with recorder.request("invocation", request_id):
            code = diracstep.cli.main(argv)
    finally:
        with open(spans_file, "w") as fh:
            json.dump({"spans": recorder.spans, "absent": recorder.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(run())
