"""One benchmark session in a fresh interpreter.

Usage: ``python worker.py CONFIG_JSON``.  The session imports diracstep,
builds its inputs, makes one warm-up call and prints ``READY`` (the parent
times set-up up to that line).  It then runs whole rounds of requests,
closed loop with one client, until its time budget is spent, checks every
output, and prints one JSON result line.

With ``trace`` set, the same requests run twice: untraced, then with span
wrappers installed, and the result carries the per-layer metrics of the
traced pass and the wall time of both passes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads


CALIBRATION_ITERATIONS = 20000


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed,
    which run.py divides out of the request times."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc + i * i) % 1000003
    return time.perf_counter() - start


def _fill(argv: list[str], out: Path) -> list[str]:
    return [str(out) if tok == "{out}" else tok for tok in argv]


class Session:
    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg
        self.root = Path(cfg["root"])
        self.work = Path(cfg["work"])
        self.workload = cfg["workload"]
        self.tag = f"s{cfg['stream']}"
        import diracstep
        import diracstep.cli

        src = (self.root / "src").resolve()
        if not Path(diracstep.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"diracstep imported from {diracstep.__file__}, not {src}")
        self.cli = diracstep.cli
        self.diracstep = diracstep
        self.recorder: tracing.Recorder | None = None
        self.exact_errs: list[float] = []
        self.cal_end = math.nan

    # ------------------------------------------------------------ requests

    def _in_process(self, argv: list[str]) -> tuple[int, float, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            start = time.perf_counter()
            code = self.cli.main(argv)
            wall = time.perf_counter() - start
        return code, wall, out.getvalue()

    def _bulk(self, req: dict, out: Path) -> tuple[float, list[str]]:
        code, wall, text = self._in_process(_fill(req["argv"], out))
        if code != 0:
            return wall, [f"exit {code}: {text.strip()[-200:]}"]
        csv_text = out.read_text()
        if req["op"] == "sweep":
            return wall, checks.check_sweep(req, csv_text)
        return wall, checks.check_wavefunction(req["argv"], csv_text, req["points"])

    def _solve(self, req: dict) -> tuple[float, list[str]]:
        d = self.diracstep
        setup = d.PhysicalSetup(1.0, req["v0"], req["e"])
        step = d.SmoothStep(req["v0"], req["w"])
        conv = d.Convention(req["conv"])
        start = time.perf_counter()
        result = d.oracle.integrate_scattering(setup, step, conv)
        wall = time.perf_counter() - start
        fails, err = checks.check_oracle(req, result.R_num, result.T_num)
        self.exact_errs.append(err)
        return wall, fails

    def _verify(self, req: dict) -> tuple[float, list[str]]:
        out_dir = self.work / f"{self.tag}-verify"
        argv = ["verify", "--suite", "all", "--seed", str(req["seed"]),
                "--output-dir", str(out_dir)]
        code, wall, text = self._in_process(argv)
        passed = [line.split()[1].rstrip(":") for line in text.splitlines()
                  if line.startswith("PASS ")]
        if code != 0 or sorted(passed) != ["closed-vs-oracle", "conservation", "limits"]:
            return wall, [f"verify exit {code}: {text.strip()[-300:]}"]
        return wall, []

    def _invoke(self, req: dict, out: Path, request_id: str) -> tuple[float, list[str]]:
        argv = _fill(req["argv"], out)
        if self.recorder is None:
            cmd = [sys.executable, "-m", "diracstep.cli", *argv]
        else:
            spans_file = self.work / f"{self.tag}-spans.json"
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                   str(spans_file), request_id, *argv]
        if out.exists():
            out.unlink()
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=self.work)
        wall = time.perf_counter() - start
        if self.recorder is not None:
            self._merge_spans(spans_file)
        csv_text = out.read_text() if out.exists() else None
        return wall, checks.check_invocation(req, proc.returncode, proc.stdout,
                                             proc.stderr, csv_text)

    def _merge_spans(self, spans_file: Path) -> None:
        data = json.loads(spans_file.read_text())
        offset = len(self.recorder.spans)
        for span in data["spans"]:
            if span[tracing.PARENT] >= 0:
                span[tracing.PARENT] += offset
            self.recorder.spans.append(span)
        self.recorder.absent = data["absent"]

    def run_request(self, req: dict, request_id: str) -> dict:
        op = req["op"]
        out = self.work / f"{self.tag}-{op}.csv"
        try:
            if self.workload == "oneshot-cli":
                wall, fails = self._invoke(req, out, request_id)
            elif op == "solve":
                wall, fails = self._run_traced("solve", request_id, self._solve, req)
            elif op == "verify":
                wall, fails = self._run_traced("verify", request_id, self._verify, req)
            else:
                wall, fails = self._run_traced(op, request_id, self._bulk, req, out)
        except Exception as exc:  # a failed request is counted, never fatal
            wall, fails = float("nan"), [f"{type(exc).__name__}: {exc}"]
        return {"op": op, "tag": req["tag"], "secondary": req["secondary"],
                "wall": wall, "fails": fails[:5]}

    def _run_traced(self, kind: str, request_id: str, fn, *args):
        if self.recorder is None:
            return fn(*args)
        with self.recorder.request(kind, request_id):
            return fn(*args)

    # ------------------------------------------------------------- session

    def warm_up(self, first: dict) -> None:
        """Run the first request untimed, in process."""
        if first["op"] == "solve":
            self._solve(first)
            self.exact_errs.clear()
        else:
            self._in_process(_fill(first["argv"], self.work / f"{self.tag}-warm.csv"))

    def repeat_fails(self, requests: list[dict]) -> list[str]:
        """Two identical calls must write byte-identical CSVs."""
        fails = []
        for op in ("sweep", "wavefunction"):
            req = next(r for r in requests if r["op"] == op)
            outs = [self.work / f"{self.tag}-repeat{i}.csv" for i in (1, 2)]
            for out in outs:
                self._in_process(_fill(req["argv"], out))
            if outs[0].read_bytes() != outs[1].read_bytes():
                fails.append(f"{op} CSV differs between two identical calls")
        return fails

    def measure(self, budget: float, stream_rounds, with_verify: bool) -> tuple[list, list]:
        """Run requests until the budget is spent.  The unit is a whole round,
        or a single request after the first round where rounds may be cut;
        another unit starts only while it is expected to end less than half a
        unit past the budget."""
        requests, records = [], []

        def run(req: dict) -> None:
            cal = statistics.median(calibrate() for _ in range(3))
            requests.append(req)
            records.append(self.run_request(req, f"{self.tag}-{len(requests)}"))
            records[-1]["cal"] = cal

        start = time.perf_counter()
        if with_verify:
            run({"op": "verify", "tag": "verify-all", "secondary": False,
                 "seed": workloads.verify_seed(self.cfg["seed"])})
        whole_rounds = workloads.WHOLE_ROUNDS[self.workload]
        if whole_rounds:
            units = stream_rounds
        else:
            units = itertools.chain([next(stream_rounds)],
                                    ([req] for round_ in stream_rounds for req in round_))
        unit_time = None
        for unit in units:
            unit_start = time.perf_counter()
            if unit_time is not None and unit_start - start + unit_time / 2 >= budget:
                break
            for req in unit:
                run(req)
            unit_time = (time.perf_counter() - unit_start) / (1 if whole_rounds else len(unit))
        self.cal_end = statistics.median(calibrate() for _ in range(3))
        return requests, records

    def replay_traced(self, requests: list[dict]) -> list[dict]:
        self.recorder = tracing.Recorder()
        if self.workload != "oneshot-cli":
            tracing.install(self.recorder)
        self.exact_errs.clear()
        return [self.run_request(req, f"{self.tag}-{i}")
                for i, req in enumerate(requests)]


def coverage_guard(workload: str, requests: list[dict], spans: list, absent: list[str],
                   metrics: dict) -> list[str]:
    """Call counts the workload implies; a violated count means a layer
    would silently read zero (or double count)."""
    def calls(name):
        return metrics[f"{name}.calls"][0]

    ops = [req["op"] for req in requests]
    expected = {}
    if workload == "oneshot-cli":
        expected["cli.main"] = len(ops)
        expected["cli.scatter_record"] = ops.count("scatter")
        expected["gridio.sample"] = ops.count("wavefunction")
        expected["gridio.write_csv"] = ops.count("wavefunction")
        expected["oracle.integrate_scattering"] = 0
    elif workload == "bulk-closed-form":
        expected["cli.main"] = len(ops)
        expected["cli.scatter_record"] = sum(r.get("rows", 0) for r in requests)
        expected["gridio.sample"] = ops.count("wavefunction")
        expected["gridio.write_csv"] = ops.count("wavefunction")
        expected["oracle.integrate_scattering"] = 0
    else:
        expected["cli.main"] = ops.count("verify")
        for fn in ("run_conservation", "run_closed_vs_oracle", "run_limits"):
            expected[f"verify.{fn}"] = ops.count("verify")
    fails = [f"{name}.calls = {calls(name)}, expected {n}"
             for name, n in expected.items()
             if name not in absent and calls(name) != n]
    if workload == "oracle-scan" and "oracle.integrate_scattering" not in absent:
        per_kind = tracing.calls_by_request_kind(spans, "oracle.integrate_scattering")
        if per_kind.get("solve", 0) != ops.count("solve"):
            fails.append(f"oracle.integrate_scattering calls in solves = "
                         f"{per_kind.get('solve', 0)}, expected {ops.count('solve')}")
        if ops.count("verify") and per_kind.get("verify", 0) < 20:
            fails.append("verify ran fewer oracle solves than its default 20 trials")
    return fails


def main() -> int:
    cfg = json.loads(sys.argv[1])
    session = Session(cfg)
    stream_rounds = workloads.rounds(cfg["workload"], cfg["seed"], cfg["stream"],
                                     cfg["streams"])
    first_round = next(stream_rounds)
    session.warm_up(first_round[0])

    versions = {"python": sys.version.split()[0],
                "numpy": sys.modules["numpy"].__version__,
                "scipy": sys.modules["scipy"].__version__ if "scipy" in sys.modules
                else None}
    print("READY " + json.dumps(versions), flush=True)

    budget = cfg["seconds"]
    requests, records = session.measure(
        budget / 2 if cfg["trace"] else budget,
        itertools.chain([first_round], stream_rounds), cfg["verify"])
    result = {"records": records, "exact_errs": session.exact_errs,
              "cal_end": session.cal_end,
              "repeat_fails": session.repeat_fails(requests) if cfg["repeat"] else []}
    if cfg["trace"]:
        traced = session.replay_traced(requests)
        metrics = tracing.layer_metrics(session.recorder.spans, session.recorder.absent)
        metrics["oracle.exact_err_max"] = (max(session.exact_errs, default=0.0), "1")
        result.update({
            "traced_records": traced,
            "layers": metrics,
            "absent": session.recorder.absent,
            "guard_fails": coverage_guard(cfg["workload"], requests,
                                          session.recorder.spans,
                                          session.recorder.absent, metrics),
        })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
