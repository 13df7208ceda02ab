"""Seeded, stratified request generation for the benchmark workloads.

A workload is an endless sequence of *rounds*.  Every round holds the same
strata in the same proportions (regime, convention, edge hit, distance to a
regime edge, step width), so any seed yields the same cost mix; the seed only
moves the draws inside each stratum.  Inside a stratum, positions follow a
golden-ratio sequence from a seeded start, which covers the stratum evenly
after a few rounds instead of clustering the way independent draws can.

Nothing here imports diracstep: the program under test receives only the
argv lists and setups built here.
"""

from __future__ import annotations

import math
import random

CONVENTIONS = ("auto", "main", "lower", "traditional", "negative")

# Rows per sweep and points per bulk wavefunction.  The per-second rates
# printed by the benchmark are stated at these sizes.
SWEEP_ROWS = 2000
BULK_POINTS = 20000
# Grid spacing of the sweeps: a power of two, so that every grid value and
# every edge V0 = E +- mc2 of a dyadic E is exact in binary floating point.
SWEEP_STEP = 2.0 ** -8

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Strata:
    """Per-stratum low-discrepancy positions in [0, 1), seeded."""

    def __init__(self, seed: int, stream: int) -> None:
        self._rng = random.Random(f"{seed}:{stream}")
        self._pos: dict[str, float] = {}

    def u(self, key: str) -> float:
        start = self._pos.get(key)
        if start is None:
            start = self._rng.random()
        pos = (start + _GOLDEN) % 1.0
        self._pos[key] = pos
        return pos

    def uniform(self, key: str, lo: float, hi: float) -> float:
        return lo + self.u(key) * (hi - lo)

    def log_uniform(self, key: str, lo: float, hi: float) -> float:
        return math.exp(self.uniform(key, math.log(lo), math.log(hi)))

    def dyadic(self, key: str, lo: float, hi: float, step: float = 1.0 / 64) -> float:
        """A multiple of ``step`` in [lo, hi]: exact in binary, so E +- 1 is too."""
        return step * round(self.uniform(key, lo, hi) / step)


def _f(x: float) -> str:
    return repr(float(x))


def rounds(workload: str, seed: int, stream: int, stride: int):
    """Yield the rounds (lists of request dicts) of one workload stream.

    Stream ``i`` of ``stride`` streams takes round indices i, i + stride, ...,
    so the conventions that cycle with the round index spread over the
    streams of a run.
    """
    strata = Strata(seed, stream)
    make = _ROUND_MAKERS[workload]
    index = stream
    while True:
        yield make(strata, index)
        index += stride


# ---------------------------------------------------------------- oneshot-cli


def _oneshot_round(s: Strata, r: int) -> list[dict]:
    """Ten fresh-process invocations: five scatters (three open regimes and
    both edge points), one limit report, three wavefunctions (<= 501 points)
    and one invocation that must exit 2."""
    prec = ("6", "9", "12")[r % 3]
    reqs = []

    def scatter(tag, e, v0, conv, expect=0):
        reqs.append({
            "op": "scatter", "tag": tag, "expect": expect, "secondary": False,
            "argv": ["scatter", "--energy", _f(e), "--step-height", _f(v0),
                     "--convention", conv, "--precision", prec],
        })

    e = s.log_uniform("klein.e", 1.1, 4.0)
    scatter("klein", e, e + 1.0 + s.uniform("klein.dv", 0.05, 2.0 * (e + 1.0)),
            CONVENTIONS[r % 5])
    e = s.uniform("trans.e", 2.2, 6.0)
    scatter("transmission", e, s.uniform("trans.v", 0.05, e - 1.05),
            CONVENTIONS[(r + 1) % 5])
    e = s.log_uniform("evan.e", 1.1, 4.0)
    scatter("evanescent", e, s.uniform("evan.v", max(0.05, e - 0.95), e + 0.95),
            ("auto", "main", "lower")[r % 3])
    e = s.dyadic("edgep.e", 1.1, 4.0)
    scatter("edge-point", e, e + 1.0, CONVENTIONS[(r + 2) % 5])
    e = s.dyadic("edgel.e", 2.1, 5.0)
    scatter("edge-lower", e, e - 1.0, ("auto", "main", "traditional")[r % 3])

    which = ("impenetrable", "nonrel", "infinite")[r % 3]
    if which == "nonrel":
        e = s.log_uniform("limit.enr", 1e-3, 0.5)
        conv = ("main", "negative", "auto")[(r // 3) % 3]
    else:
        e = s.log_uniform("limit.e", 1.05, 5.0)
        conv = ("main", "negative", "lower", "auto")[(r // 3) % 4]
    reqs.append({
        "op": "limit", "tag": which, "expect": 0, "secondary": False,
        "argv": ["limit", "--which", which, "--energy", _f(e),
                 "--convention", conv, "--precision", prec],
    })

    for i, tag in enumerate(("wf-klein", ("wf-transmission", "wf-evanescent")[r % 2],
                             ("wf-impenetrable", "wf-nonrel")[r % 2])):
        points = int(s.uniform(f"wf.points{i}", 101, 501.999))
        half = s.uniform(f"wf.range{i}", 2.0, 20.0)
        if tag == "wf-klein":
            e = s.log_uniform("wf.klein.e", 1.1, 4.0)
            phys = ["--step-height", _f(e + 1.0 + s.uniform("wf.klein.dv", 0.1, 4.0))]
        elif tag == "wf-transmission":
            e = s.uniform("wf.trans.e", 2.2, 6.0)
            phys = ["--step-height", _f(s.uniform("wf.trans.v", 0.05, e - 1.05))]
        elif tag == "wf-evanescent":
            e = s.log_uniform("wf.evan.e", 1.1, 4.0)
            phys = ["--step-height",
                    _f(s.uniform("wf.evan.v", max(0.05, e - 0.95), e + 0.95))]
        elif tag == "wf-impenetrable":
            e = s.log_uniform("wf.imp.e", 1.05, 5.0)
            phys = ["--limit", "impenetrable",
                    "--convention", ("main", "negative")[(r // 2) % 2]]
        else:
            e = s.log_uniform("wf.nr.e", 1e-3, 0.5)
            phys = ["--limit", "nonrel",
                    "--convention", ("main", "negative")[(r // 2) % 2]]
        reqs.append({
            "op": "wavefunction", "tag": tag, "expect": 0, "secondary": True,
            "points": points,
            "argv": ["wavefunction", "--energy", _f(e), *phys,
                     "--range", _f(-half), _f(half), "--points", str(points),
                     "--out", "{out}"],
        })

    # Requests the CLI must refuse with exit code 2 and an "error:" line.
    kind = r % 4
    if kind == 0:
        e = s.log_uniform("err.e", 1.1, 4.0)
        argv = ["scatter", "--energy", _f(e), "--step-height", _f(e + 0.5),
                "--convention", "traditional"]
        tag = "traditional-evanescent"
    elif kind == 1:
        e = s.dyadic("err.e2", 2.1, 5.0)
        argv = ["scatter", "--energy", _f(e), "--step-height", _f(e - 1.0),
                "--convention", "negative"]
        tag = "negative-edge-lower"
    elif kind == 2:
        argv = ["limit", "--which", "nonrel", "--energy",
                _f(s.log_uniform("err.enr", 1e-3, 0.5)), "--convention", "lower"]
        tag = "nonrel-lower"
    else:
        argv = ["limit", "--which", "impenetrable", "--energy",
                _f(s.log_uniform("err.e3", 1.05, 5.0)), "--convention", "traditional"]
        tag = "impenetrable-traditional"
    reqs.append({"op": argv[0], "tag": tag, "expect": 2, "secondary": False,
                 "argv": argv})
    return reqs


# ----------------------------------------------------------- bulk-closed-form


def _sweep(conv: str, vary: str, start_units: int, fixed: float, tag: str) -> dict:
    h = SWEEP_STEP
    start = start_units * h
    stop = start + (SWEEP_ROWS - 1) * h
    fixed_flag = "--energy" if vary == "step-height" else "--step-height"
    return {
        "op": "sweep", "tag": tag, "conv": conv, "vary": vary,
        "secondary": False, "rows": SWEEP_ROWS,
        "argv": ["sweep", "--vary", vary, "--from", _f(start), "--to", _f(stop),
                 "--points", str(SWEEP_ROWS), fixed_flag, _f(fixed),
                 "--convention", conv, "--out", "{out}"],
    }


def _bulk_round(s: Strata, r: int) -> list[dict]:
    """Seven sweeps interleaved with five wavefunctions.

    Sweep grids are multiples of SWEEP_STEP and the fixed energy or step
    height is a multiple of 1/64, so grids that straddle V0 = E +- mc2 hit
    it exactly and the edge records run.  Conventions that cannot cross the
    evanescent band or the lower edge sweep each regime they admit.
    """
    h = SWEEP_STEP
    span = SWEEP_ROWS - 1
    sweeps = []
    # auto: step height across transmission, lower edge, evanescent band,
    # edge point and Klein zone.
    start = int(s.uniform("auto.start", 1, 64))
    e = s.dyadic("auto.e", 1.0 + start * h + 0.25, start * h + span * h - 1.25)
    sweeps.append(_sweep("auto", "step-height", start, e, "all-regimes"))
    # main: energy across Klein zone, edge point, evanescent band, lower edge
    # and transmission.
    start = 256 + int(s.uniform("main.start", 1, 64))
    v0 = s.dyadic("main.v", start * h + 1.25, start * h + span * h - 1.25)
    sweeps.append(_sweep("main", "energy", start, v0, "all-regimes"))
    # lower: step height from inside the evanescent band through the edge
    # point into the Klein zone (its lower-edge record is degenerate).
    e = s.dyadic("lower.e", 1.25, 4.0)
    start = round((e - 1.0) / h) + 1 + int(s.uniform("lower.start", 0, 64))
    sweeps.append(_sweep("lower", "step-height", start, e, "evanescent-klein"))
    # traditional and negative have no evanescent form: each sweeps the Klein
    # zone from the edge point up, and the transmission regime separately.
    for conv in ("traditional", "negative"):
        e = s.dyadic(f"{conv}.e", 1.25, 4.0)
        sweeps.append(_sweep(conv, "step-height", round((e + 1.0) / h), e,
                             "edge-point-klein"))
        start = int(s.uniform(f"{conv}.start", 1, 64))
        # traditional ends exactly on the lower edge; the negative-energy
        # record is degenerate there, so it stops one step short.
        e = 1.0 + (start + span + (conv == "negative")) * h
        sweeps.append(_sweep(conv, "step-height", start, e, "transmission"))

    wavefunctions = []
    for tag in ("klein", "transmission", "evanescent", "impenetrable", "nonrel"):
        half = s.uniform(f"wf.range.{tag}", 5.0, 50.0)
        if tag == "klein":
            e = s.log_uniform("wf.klein.e", 1.1, 4.0)
            phys = ["--step-height", _f(e + 1.0 + s.uniform("wf.klein.dv", 0.1, 4.0)),
                    "--convention", ("auto", "main", "lower")[r % 3]]
        elif tag == "transmission":
            e = s.uniform("wf.trans.e", 2.2, 6.0)
            phys = ["--step-height", _f(s.uniform("wf.trans.v", 0.05, e - 1.05)),
                    "--convention", ("auto", "traditional")[r % 2]]
        elif tag == "evanescent":
            e = s.log_uniform("wf.evan.e", 1.1, 4.0)
            phys = ["--step-height",
                    _f(s.uniform("wf.evan.v", max(0.05, e - 0.95), e + 0.95)),
                    "--convention", ("auto", "main", "lower")[r % 3]]
        elif tag == "impenetrable":
            e = s.log_uniform("wf.imp.e", 1.05, 5.0)
            phys = ["--limit", "impenetrable",
                    "--convention", ("main", "negative", "lower")[r % 3]]
        else:
            e = s.log_uniform("wf.nr.e", 1e-3, 0.5)
            phys = ["--limit", "nonrel", "--convention", ("main", "negative")[r % 2]]
        wavefunctions.append({
            "op": "wavefunction", "tag": tag, "secondary": True,
            "points": BULK_POINTS,
            "argv": ["wavefunction", "--energy", _f(e), *phys,
                     "--range", _f(-half), _f(half), "--points", str(BULK_POINTS),
                     "--out", "{out}"],
        })
    interleaved = []
    for i, sweep in enumerate(sweeps):
        interleaved.append(sweep)
        if i < len(wavefunctions):
            interleaved.append(wavefunctions[i])
    return interleaved


# ---------------------------------------------------------------- oracle-scan

# Regime-edge distance strata: one per decade, at both edges.
DELTA_DECADES = (1, 2, 3, 4)
# Width bands for the wide-step strata: [1e-3, 1e-2), [1e-2, 1e-1), [1e-1, 1].
WIDTH_BANDS = ((1e-3, 1e-2), (1e-2, 1e-1), (1e-1, 1.0))
ORACLE_WIDTH = 1e-3
WIDE_STEP = 0.1


def _oracle_round(s: Strata, r: int) -> list[dict]:
    """Seventeen solves: eight near-edge (four delta decades at the Klein edge
    under ``main`` and at the lower edge under ``traditional``), eight across
    the width bands (half of them wide), and one evanescent setup.

    The energies that set a solve's cost besides delta and w are drawn from
    narrow ranges, and each delta stratum spans a fifth of a decade around
    10^-d, so the cost of a stratum barely depends on the seed.
    """
    reqs = []
    for decade in DELTA_DECADES:
        for edge in ("klein", "lower"):
            e = s.uniform(f"{edge}.e{decade}", 1.18, 1.22)
            delta = 10.0 ** -(decade + s.uniform(f"{edge}.d{decade}", -0.1, 0.1))
            if edge == "klein":
                v0, conv = e + 1.0 + delta, "main"
            else:
                v0, conv = e - 1.0 - delta, "traditional"
            reqs.append({"op": "solve", "tag": f"{edge}-edge-1e-{decade}",
                         "secondary": False, "e": e, "v0": v0,
                         "w": ORACLE_WIDTH, "conv": conv})
    for lo, hi in WIDTH_BANDS:
        for i in range(2 if lo >= WIDE_STEP else 1):
            w = s.log_uniform(f"w.klein{lo}.{i}", lo, hi)
            e = s.uniform(f"w.klein.e{lo}.{i}", 1.9, 2.1)
            v0 = e + 1.0 + s.uniform(f"w.klein.dv{lo}.{i}", 0.9, 1.1)
            reqs.append({"op": "solve", "tag": f"width-{lo:g}-klein",
                         "secondary": lo >= WIDE_STEP, "e": e, "v0": v0, "w": w,
                         "conv": ("main", "traditional")[(r + i) % 2]})
            w = s.log_uniform(f"w.trans{lo}.{i}", lo, hi)
            e = s.uniform(f"w.trans.e{lo}.{i}", 2.9, 3.1)
            v0 = s.uniform(f"w.trans.v{lo}.{i}", 0.9, 1.1)
            reqs.append({"op": "solve", "tag": f"width-{lo:g}-transmission",
                         "secondary": lo >= WIDE_STEP, "e": e, "v0": v0, "w": w,
                         "conv": "traditional"})
    e = s.uniform("evan.e", 1.9, 2.1)
    reqs.append({"op": "solve", "tag": "evanescent", "secondary": False, "e": e,
                 "v0": e + s.uniform("evan.dv", -0.6, 0.6),
                 "w": s.log_uniform("evan.w", 1e-3, 1.0), "conv": "main"})
    return reqs


def verify_seed(seed: int) -> int:
    """Seed of the one ``verify --suite all`` run, derived from the benchmark seed."""
    return random.Random(f"{seed}:verify").randrange(1, 2**31)


# oneshot-cli requests all cost one interpreter start, so a session may stop
# mid-round; the other workloads stop only after whole rounds, so every
# stratum keeps its share of the samples.
WHOLE_ROUNDS = {"oneshot-cli": False, "bulk-closed-form": True, "oracle-scan": True}
_ROUND_MAKERS = {
    "oneshot-cli": _oneshot_round,
    "bulk-closed-form": _bulk_round,
    "oracle-scan": _oracle_round,
}
WORKLOADS = tuple(_ROUND_MAKERS)
