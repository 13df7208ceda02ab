"""Spans around the public functions of each diracstep module, from outside.

``install`` wraps every function in LAYERS and rebinds the wrapper wherever
the original is reachable inside the package: the defining module, every
module that imported the name with ``from .x import y``, and dict values
such as ``verify.SUITES``.  A name that a later refactor removed is
reported as absent instead of raising.

A span is (name, start, end, parent index, request id, raised, extra).
Spans stay in memory; ``layer_metrics`` folds them into per-function call
counts, self time (duration minus the time the direct child spans cover)
and exception counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time

LAYERS = {
    "core": ("kinematics", "classify_regime"),
    "matching": ("match", "evaluate"),
    "observables": ("coefficients",),
    "forces": ("external_force_mean",),
    "boundary": ("classify_boundary",),
    "limits": ("impenetrable_limit", "nonrelativistic_limit"),
    "spinor": ("density", "current"),
    "gridio": ("sample", "write_csv"),
    "oracle": ("integrate_scattering",),
    "verify": ("run_conservation", "run_closed_vs_oracle", "run_limits"),
    "cli": ("scatter_record", "main"),
}
TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

NAME, START, END, PARENT, REQUEST, RAISED, EXTRA = range(7)


def _extra_for(name: str, args, result):
    """Per-call figures some layers report besides their time."""
    if name == "oracle.integrate_scattering":
        return (result.n_steps, result.integration_error_estimate)
    if name == "gridio.write_csv":
        return os.path.getsize(args[1])
    return None


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request: str | None = None
        self.absent: list[str] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self._request, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                recorder._close(span)
            span[EXTRA] = _extra_for(name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def request(self, kind: str, request_id: str):
        """Root span of one request; the spans opened inside share its id."""
        self._request = request_id
        span = self._open(f"request.{kind}")
        try:
            yield span
        except BaseException:
            span[RAISED] = True
            raise
        finally:
            self._close(span)
            self._request = None


def install(recorder: Recorder) -> None:
    """Wrap every traced function and rebind it everywhere in the package."""
    importlib.import_module("diracstep.cli")
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "diracstep" or n.startswith("diracstep."))]
    for mod_name, fns in LAYERS.items():
        module = sys.modules.get(f"diracstep.{mod_name}")
        for fn_name in fns:
            original = getattr(module, fn_name, None) if module else None
            if not callable(original):
                recorder.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = recorder.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapper


def layer_metrics(spans: list[list], absent: list[str]) -> dict[str, tuple[float, str]]:
    """Per-function calls, self time and exceptions, plus the layer extras."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    calls = dict.fromkeys(TRACED, 0)
    self_s = dict.fromkeys(TRACED, 0.0)
    errors = dict.fromkeys(TRACED, 0)
    steps: list[int] = []
    err_est = 0.0
    csv_bytes = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        if name not in calls:
            continue
        calls[name] += 1
        self_s[name] += span[END] - span[START] - child_time[i]
        errors[name] += span[RAISED]
        if span[EXTRA] is not None:
            if name == "oracle.integrate_scattering":
                steps.append(span[EXTRA][0])
                err_est = max(err_est, span[EXTRA][1])
            elif name == "gridio.write_csv":
                csv_bytes += span[EXTRA]
    out: dict[str, tuple[float, str]] = {}
    for name in TRACED:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
        out[f"{name}.errors"] = (errors[name], "count")
    steps.sort()
    out["gridio.write_csv.bytes"] = (csv_bytes, "B")
    out["oracle.steps"] = (sum(steps), "count")
    out["oracle.steps_per_solve_p50"] = (steps[len(steps) // 2] if steps else 0, "count")
    out["oracle.err_est_max"] = (err_est, "1")
    out["trace.absent"] = (len(absent), "count")
    return out


def calls_by_request_kind(spans: list[list], name: str) -> dict[str, int]:
    """Calls of one traced function, keyed by the kind of request they ran in."""
    kind_of = {span[REQUEST]: span[NAME][len("request."):]
               for span in spans if span[NAME].startswith("request.")}
    counts: dict[str, int] = {}
    for span in spans:
        if span[NAME] == name:
            kind = kind_of.get(span[REQUEST], "none")
            counts[kind] = counts.get(kind, 0) + 1
    return counts
