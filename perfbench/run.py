"""diracstep benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oneshot-cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (inputs built from --seed by workloads.py):

* ``oneshot-cli``: fresh ``python -m diracstep.cli`` processes, one after the
  other; interpreter start and import dominate.
* ``bulk-closed-form``: in-process ``diracstep.cli.main`` sweeps of 2000
  rows and 20000-point wavefunctions; import is paid once, in set-up.
* ``oracle-scan``: in-process oracle solves stratified by distance to a
  regime edge and by step width, plus one ``verify --suite all``.

All load is closed loop from one client.  A run starts three sessions, one
after the other, each a fresh worker interpreter that sets up and then
measures a third of --seconds; ``setup_s`` is the median set-up time.

End-to-end metrics (--trace 0): ``setup_s``, ``p50_s`` and ``tail_s`` (a
fixed percentile per workload) of the primary requests (CLI invocations,
sweeps, oracle solves), ``secondary_p50_s`` of the secondary requests
(``wavefunction`` invocations, wavefunction calls, wide-step solves) and
``peak_rss_mb``.  The lines before the result also give them under their
workload-specific names with units and sample counts, ``failed_frac``, the
raw wall times and the run's provenance.

Time metrics are wall seconds at a reference machine speed.  A fixed
pure-Python loop is timed before and after every request and around every
set-up; each wall time is multiplied by CALIBRATION_REF_S over the loop's
mean time around it.  On a shared machine whose speed drifts by a fifth
from minute to minute this halves the run-to-run spread, and it leaves a
change in the program's own cost unscaled.

Per-layer metrics (--trace 1): a separate run replays the same requests
untraced and then with spans around the public functions of every module
(tracing.py), and measures ``python -X importtime -c "import diracstep"``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without a
``src/diracstep`` package beside this directory the run exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

import workloads
from worker import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Scratch files of one run; the process id keeps concurrent runs apart.
WORK = ROOT / f".perfbench-work-{os.getpid()}"
SESSIONS = 3
SESSION_TIMEOUT = 150.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fixed per workload: the highest round percentile with at least ten samples
# beyond it at --seconds 30 on a 2-core machine (about 30 invocations, 60
# sweeps and 120 solves).  Oracle rounds are whole, so p90 always falls among
# the delta ~ 1e-4 solves, the costliest stratum.
TAIL_PERCENTILE = {"oneshot-cli": 60, "bulk-closed-form": 80, "oracle-scan": 90}
PRIMARY_OP = {"oneshot-cli": None, "bulk-closed-form": "sweep", "oracle-scan": "solve"}
# Time of worker.calibrate() at the reference speed: its median on the 2-core
# machine the bounds were set on.
CALIBRATION_REF_S = 0.0021


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(nproc()) for var in BLAS_VARS})
    return env


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    if not values:
        return math.nan, 0
    ordered = sorted(values)
    index = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
    return ordered[index], len(ordered) - index - 1


def rate(items: int, seconds: float) -> float:
    return items / seconds if seconds > 0 else math.nan


def run_session(cfg: dict) -> tuple[float, dict, dict]:
    """Spawn one worker; return its set-up time at the reference speed, its
    versions and its result."""
    cal_start = statistics.median(calibrate() for _ in range(3))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)],
                            stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=SESSION_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if not ready.startswith("READY ") or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {ready.strip()}")
    result = json.loads(out.splitlines()[-1])
    if not cfg["trace"]:
        rescale(result["records"], result["cal_end"])
        setup *= CALIBRATION_REF_S / ((cal_start + result["records"][0]["cal"]) / 2.0)
    return setup, json.loads(ready[len("READY "):]), result


def import_layers() -> dict[str, tuple[float, str]]:
    """Import cost from ``-X importtime`` in fresh interpreters (medians of 3)."""
    env = child_env()
    totals: dict[str, list[float]] = {"diracstep": [], "scipy": [], "numpy": []}
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import diracstep"],
                              capture_output=True, text=True, env=env, cwd=ROOT, check=True)
        entries = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            field = parts[2]
            depth = len(field) - len(field.lstrip())
            entries.append((depth, field.strip(), int(parts[1])))
        # Output is post-order: walk it backwards to know each entry's ancestors.
        found = {package: 0 for package in totals}
        stack: list[tuple[int, str]] = []
        for depth, name, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            top = name.split(".")[0]
            if top in found and not any(a.split(".")[0] == top for _, a in stack):
                found[top] += cumulative
            stack.append((depth, name))
        for package, micros in found.items():
            totals[package].append(micros / 1e6)
    bare = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        bare.append(time.perf_counter() - start)
    metrics = {f"import.{p}_s": (statistics.median(v), "s") for p, v in totals.items()}
    metrics["process.bare_python_s"] = (statistics.median(bare), "s")
    return metrics


def provenance(seed: int, versions: dict) -> dict:
    src = ROOT / "src" / "diracstep"
    digest = hashlib.sha256()
    lines = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_bytes()
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + text)
        lines += text.decode().splitlines()
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"].get("dependencies", [])
    return {"commit": commit, "src_sha256": digest.hexdigest(), **versions,
            "nproc": nproc(), "blas_threads": nproc(), "seed": seed,
            "src_lines": len(lines),
            "src_nonblank_lines": sum(1 for line in lines if line.strip()),
            "dependencies": deps}


def rescale(records: list[dict], cal_end: float) -> None:
    """Add each request's wall time at the reference speed.

    The machine's speed during a request is the mean of the calibrations
    just before and just after it; dividing it out removes the drift of a
    shared machine from run to run while keeping each request's own cost.
    """
    cals = [r["cal"] for r in records] + [cal_end]
    for i, record in enumerate(records):
        speed = CALIBRATION_REF_S / ((cals[i] + cals[i + 1]) / 2.0)
        record["scaled"] = record["wall"] * speed


def _split(workload: str, records: list[dict], key: str):
    ok = [r for r in records if not r["fails"]]
    op = PRIMARY_OP[workload]
    primary = [r[key] for r in ok if op is None or r["op"] == op]
    secondary = [r[key] for r in ok if r["secondary"]]
    return primary, secondary


def measured_run(workload: str, seed: int, seconds: float) -> dict:
    setups, records, extra_fails, exact_errs = [], [], [], []
    versions: dict = {}
    for stream in range(SESSIONS):
        cfg = {"workload": workload, "seed": seed, "stream": stream,
               "streams": SESSIONS, "seconds": seconds / SESSIONS, "trace": False,
               "verify": workload == "oracle-scan" and stream == 0,
               "repeat": workload == "bulk-closed-form" and stream == 0,
               "root": str(ROOT), "work": str(WORK)}
        setup, versions, result = run_session(cfg)
        setups.append(setup)
        records += result["records"]
        extra_fails += result["repeat_fails"]
        exact_errs += result["exact_errs"]
    primary, secondary = _split(workload, records, "scaled")
    wall_primary, _ = _split(workload, records, "wall")
    speed = CALIBRATION_REF_S / median([r["cal"] for r in records])
    pct = TAIL_PERCENTILE[workload]
    tail, beyond = percentile(primary, pct)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    failed = sum(1 for r in records if r["fails"]) + len(extra_fails)
    attempted = len(records) + (2 if workload == "bulk-closed-form" else 0)
    p50, sec50 = median(primary), median(secondary)
    metrics = {
        "setup_s": (median(setups), "s"),
        "p50_s": (p50, "s"),
        "tail_s": (tail, "s"),
        "secondary_p50_s": (sec50, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    n, n2 = len(primary), len(secondary)
    tail_note = f"p{pct} n={n} beyond={beyond}"
    named = [("setup_s", median(setups), "s", f"n={len(setups)}")]
    if workload == "oneshot-cli":
        named += [("cli_p50_s", p50, "s/invocation", f"n={n}"),
                  ("cli_tail_s", tail, "s/invocation", tail_note),
                  ("wavefunction_cli_p50_s", sec50, "s/invocation", f"n={n2}")]
    elif workload == "bulk-closed-form":
        named += [("sweep_rows_per_s", rate(workloads.SWEEP_ROWS * n, sum(primary)),
                   f"rows/s@{workloads.SWEEP_ROWS}rows", f"n={n} sweeps"),
                  ("sweep_p50_s", p50, "s/sweep", f"n={n}"),
                  ("sweep_tail_s", tail, "s/sweep", tail_note),
                  ("sample_points_per_s", rate(workloads.BULK_POINTS * n2, sum(secondary)),
                   f"points/s@{workloads.BULK_POINTS}points",
                   f"n={n2} wavefunctions, CSV written")]
    else:
        verify = [r["scaled"] for r in records if r["op"] == "verify" and not r["fails"]]
        named += [("oracle_solve_p50_s", p50, "s/solve", f"n={n}"),
                  ("oracle_solve_tail_s", tail, "s/solve", tail_note),
                  ("wide_step_solve_p50_s", sec50, "s/solve",
                   f"n={n2} w>={workloads.WIDE_STEP}"),
                  ("verify_all_s", median(verify), "s",
                   f"n={len(verify)} seed={workloads.verify_seed(seed)}"),
                  ("oracle_exact_err_max", max(exact_errs, default=0.0), "1",
                   f"n={len(exact_errs)} vs Sauter")]
    named += [("wall_p50_s", median(wall_primary), "s", "as measured"),
              ("wall_tail_s", percentile(wall_primary, pct)[0], "s", "as measured"),
              ("machine_speed", speed, "x reference", "median over the run"),
              ("failed_frac", failed / attempted, "failed/attempted", f"n={attempted}"),
              ("peak_rss_mb", rss_mb, "MB", "max over child processes")]
    return {"workload": workload, "metrics": metrics, "named": named,
            "attempted": attempted, "failed": failed,
            "fail_samples": [f for r in records for f in r["fails"]][:10] + extra_fails,
            "versions": versions}


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    cfg = {"workload": workload, "seed": seed, "stream": 0, "streams": 1,
           "seconds": seconds, "trace": True, "verify": workload == "oracle-scan",
           "repeat": False,
           "root": str(ROOT), "work": str(WORK)}
    _, versions, result = run_session(cfg)
    layers = {name: tuple(v) for name, v in result["layers"].items()}
    untraced = sum(r["wall"] for r in result["records"])
    traced = sum(r["wall"] for r in result["traced_records"])
    layers["trace.overhead_s"] = (traced - untraced, "s")
    layers["trace.overhead_frac"] = ((traced - untraced) / untraced, "1")
    layers.update(import_layers())
    records = result["records"] + result["traced_records"]
    failed = sum(1 for r in records if r["fails"]) + bool(result["guard_fails"])
    named = [("trace.untraced_wall_s", untraced, "s", f"n={len(result['records'])}"),
             ("trace.traced_wall_s", traced, "s", f"n={len(result['traced_records'])}")]
    return {"workload": workload, "metrics": layers, "named": named,
            "attempted": len(records) + 1, "failed": failed,
            "fail_samples": [f for r in records for f in r["fails"]][:10]
            + result["guard_fails"],
            "absent": result["absent"], "versions": versions}


def report(run: dict, seed: int, trace: bool) -> None:
    w = run["workload"]
    print(f"# workload {w} trace {int(trace)}")
    print(f"# provenance {json.dumps(provenance(seed, run['versions']))}")
    for name, value, unit, note in run["named"]:
        print(f"{w:<17} {name:<26} {value:<22.10g} {unit:<20} {note}")
    for name in run.get("absent", []):
        print(f"{w:<17} {name:<26} absent")
    for fail in run["fail_samples"]:
        print(f"{w:<17} FAIL {fail}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "diracstep" / "__init__.py").is_file():
        print(f"error: no diracstep checkout at {ROOT} (src/diracstep missing)",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        # Compile the bytecode cache once so every timed import finds it.
        subprocess.run([sys.executable, "-c", "import diracstep.cli"], env=child_env(),
                       cwd=ROOT, check=True)
        runs = []
        for name in names:
            run = (traced_run if args.trace else measured_run)(name, args.seed, args.seconds)
            report(run, args.seed, bool(args.trace))
            runs.append(run)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    def key(run, metric):
        return metric if len(runs) == 1 else f"{run['workload']}.{metric}"

    failed = sum(run["failed"] for run in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": failed,
        "metrics": {key(run, m): {"value": None if math.isnan(v) else v, "unit": u}
                    for run in runs for m, (v, u) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
