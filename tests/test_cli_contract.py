"""The CLI contract over its whole input space, fuzzed in process.

Every ``scatter``, ``limit``, ``wavefunction`` and ``sweep`` either succeeds
(exit 0) or refuses with exit 2, one ``error:`` line and no file written,
and never warns.  Where a success prints R and T, on stdout or in a sweep's
CSV, they satisfy R + T = 1 to ``verify``'s bound.
Each float argument is drawn from 28 values: zeros of both signs, the
smallest and largest magnitudes, subnormals, infinities, NaN, and one ulp
around 1, 2 and 3, where the regimes meet.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracstep.cli import main

# One ulp around 1, 2 and 3, where the regimes meet at mc2 = 1 and E = 2,
# then the rest of the 28; half the draws come from the first nine.
NEAR_EDGES = [x for v in (1.0, 2.0, 3.0)
              for x in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))]
VALUES = [*NEAR_EDGES, 0.0, -0.0, 1e-3, -1e-3, 5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-20,
          0.5, 1e10, 1e100, 1e200, 1e300, 1.7976931348623157e308, math.inf, -math.inf,
          math.nan]
assert len(VALUES) == 28

floats = st.one_of(st.sampled_from(NEAR_EDGES), st.sampled_from(VALUES))
numbers = floats.map(repr)
# Ranges, half of them in ascending order.
pairs = st.tuples(floats, floats)
ranges = st.one_of(pairs.map(sorted), pairs).map(lambda pair: [repr(v) for v in pair])
conventions = st.sampled_from(["auto", "main", "traditional", "lower", "negative"])
points = st.sampled_from(["3", "7", "2", "1"])


def _physics(energy, mass, convention):
    return ["--energy", energy, "--mass", mass, "--convention", convention]


commands = st.one_of(
    st.builds(lambda v0, *physics: ["scatter", "--step-height", v0, *_physics(*physics)],
              numbers, numbers, numbers, conventions),
    st.builds(lambda which, *physics: ["limit", "--which", which, *_physics(*physics)],
              st.sampled_from(["impenetrable", "nonrel", "infinite"]),
              numbers, numbers, conventions),
    st.builds(lambda target, bounds, n, *physics:
              ["wavefunction", *target, "--range", *bounds, "--points", n,
               *_physics(*physics)],
              st.one_of(st.tuples(st.just("--step-height"), numbers),
                        st.tuples(st.just("--limit"),
                                  st.sampled_from(["impenetrable", "nonrel"]))),
              ranges, points, numbers, numbers, conventions),
    st.builds(lambda vary, fixed, bounds, n, mass, convention:
              ["sweep", "--vary", vary, "--energy" if vary == "step-height" else "--step-height",
               fixed, "--from", bounds[0], "--to", bounds[1], "--points", n, "--mass", mass,
               "--convention", convention],
              st.sampled_from(["step-height", "energy"]), numbers, ranges, points, numbers,
              conventions),
)


def _printed(out: str) -> dict[str, str]:
    """The name/value rows that ``scatter`` and ``limit`` print."""
    return dict(line.split()[:2] for line in out.splitlines()
                if line and not line.startswith("#") and len(line.split()) == 2)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(commands)
# Two cases the draws reach too rarely: a grid whose last product
# 6·(x_max − x_min)/6 would overflow, and a usage error, which argparse
# raises as SystemExit.
@example(["wavefunction", "--step-height", "1e-310", "--range", "1.0000000000000002",
          "1.7976931348623157e308", "--points", "7",
          *_physics("3.0000000000000004", "2.0", "auto")])
@example(["wavefunction", "--step-height", "3.0", "--limit", "nonrel", "--range", "-1.0",
          "1.0", "--points", "3", *_physics("0.001", "1.0", "auto")])
def test_every_command_exits_0_or_2_with_one_named_cause(argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        if argv[0] in ("wavefunction", "sweep"):
            argv = [*argv, "--out", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([*argv, "--precision", "17"])
        out, err = out.getvalue(), err.getvalue()
        written = sorted(p.name for p in Path(tmp).iterdir())
        table = path.read_text().splitlines() if code == 0 and argv[0] == "sweep" else []
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        assert [line for line in err.splitlines() if "error:" in line] == \
            [err.splitlines()[-1]], (argv, err)
        assert written == [], (argv, written)
        return
    assert err == "", (argv, err)
    assert ("out.csv" in written) == (argv[0] in ("wavefunction", "sweep")), (argv, written)
    rows = _printed(out)
    printed = [(rows[r], rows[t]) for r, t in (("R", "T"), ("R_limit", "T_limit")) if r in rows]
    if table:
        header = table[0].split(",")
        printed += [(cells[header.index("R")], cells[header.index("T")])
                  for cells in (line.split(",") for line in table[1:])]
    for r, t in ((float(r), float(t)) for r, t in printed):
        # verify's conservation bound, relative to max(1, R) as there.
        assert abs(r + t - 1.0) <= 1e-12 * max(1.0, r), (argv, r, t)
