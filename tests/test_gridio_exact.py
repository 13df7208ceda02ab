"""The array sampler and the row writer against their per-point references.

``sample`` evaluates every branch on numpy arrays and ``write_csv`` formats
a block of rows at once.  Both must give exactly what a per-point loop
over the scalar evaluators (``left_value_at`` / ``right_value_at``, which
sum ``PlaneWaveState.value_at`` in cmath) and per-cell formatting give,
down to the sign of zero, for matched and limit states alike.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracstep import (
    Convention,
    PhysicalSetup,
    PlaneWaveSolution,
    Regime,
    Spinor,
    classify_regime,
    current,
    density,
    edge_limit,
    impenetrable_limit,
    nonrelativistic_limit,
    sample,
    solve,
    write_csv,
)
from diracstep.gridio import CSV_HEADER
from diracstep.spinor import SCALAR
from diracstep.table import _chain


def _reference_rows(solution, x_min, x_max, n_points):
    """Per-point loop over the scalar evaluators: (x, phi, chi, rho, j) rows."""
    step = (x_max - x_min) / (n_points - 1)
    xs = [x_min + i * step for i in range(n_points - 1)] + [x_max]
    if x_min < 0.0 < x_max and 0.0 not in xs:
        xs[min(range(1, n_points - 1), key=lambda i: abs(xs[i]))] = 0.0
    rows = []
    for x in xs:
        sides = ("left", "right") if x == 0.0 else (("left",) if x < 0.0 else ("right",))
        for side in sides:
            value = (solution.left_value_at(x) if side == "left"
                     else solution.right_value_at(x))
            value = Spinor(complex(value.upper), complex(value.lower))
            rows.append((x, value.upper, value.lower, density(value), current(value)))
    return rows


def _bits(value):
    """Exact identity of a float or complex, including the sign of zero."""
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex(), type(value))
    return (value.hex(), type(value))


def _reference_csv(rows):
    lines = [CSV_HEADER]
    for x, p, c, r, cur in rows:
        lines.append(",".join(
            f"{v:.17g}" for v in (x, p.real, p.imag, c.real, c.imag, r, cur)
        ))
    return "\n".join(lines) + "\n"


# Every open regime with each convention it admits (the evanescent regime
# rejects the two growing waves), drawn as (E, V0) with mc2 = 1.
def _klein(u, v):
    e = 1.05 + 4.0 * u
    return e, e + 1.0 + 0.01 + 8.0 * v


def _transmission(u, v):
    e = 2.1 + 4.0 * u
    return e, 0.01 + (e - 1.02) * v


def _evanescent(u, v):
    e = 1.05 + 4.0 * u
    return e, e - 0.99 + 1.98 * v


def _open_solution(case, u, v):
    draw, conv = case
    e, v0 = draw(u, v)
    return solve(PhysicalSetup(1.0, v0, e), conv)


OPEN_CASES = [
    (draw, conv)
    for draw, convs in (
        (_klein, tuple(Convention)),
        (_transmission, tuple(Convention)),
        (_evanescent, (Convention.MAIN, Convention.LOWER_COMPONENT)),
    )
    for conv in convs
]


def _edge(u, offset, conv=None):
    e = 1.01 + 4.0 * u
    return edge_limit(PhysicalSetup(1.0, e + offset, e), conv)


LIMIT_CASES = [
    lambda u: impenetrable_limit(1.01 + 4.0 * u, 1.0, Convention.MAIN),
    lambda u: impenetrable_limit(1.01 + 4.0 * u, 1.0, Convention.NEGATIVE_ENERGY),
    lambda u: nonrelativistic_limit(1e-3 + 0.5 * u, 1.0, Convention.MAIN),
    lambda u: nonrelativistic_limit(1e-3 + 0.5 * u, 1.0, Convention.NEGATIVE_ENERGY),
    lambda u: _edge(u, 1.0, Convention.LOWER_COMPONENT),  # the edge point
    lambda u: _edge(u, -1.0),  # the lower edge
]

unit = st.floats(0.0, 1.0)
solutions = st.one_of(
    st.builds(_open_solution, st.sampled_from(OPEN_CASES), unit, unit),
    st.builds(lambda make, u: make(u), st.sampled_from(LIMIT_CASES), unit),
)
# Grids on both sides of the step, on one side only, and ending on x = 0.
ranges = st.one_of(
    st.tuples(st.floats(-60.0, -1e-3), st.floats(1e-3, 60.0)),
    st.tuples(st.floats(-60.0, -1.0), st.floats(-0.9, -1e-3)),
    st.tuples(st.floats(1e-3, 1.0), st.floats(1.1, 60.0)),
    st.sampled_from([(-5.0, 0.0), (0.0, 5.0), (-0.0, 3.0), (-4.0, 4.0)]),
)
# A 2-point grid that straddles the step is refused; two points on one side
# are checked by test_two_point_grid_equals_scalar_evaluation.
points = st.sampled_from([3, 7, 101, 1024, 1025])


@settings(max_examples=150, deadline=None)
@given(solutions, ranges, points)
def test_array_sample_equals_scalar_evaluation_bit_for_bit(solution, bounds, n):
    x_min, x_max = bounds
    gs = sample(solution, x_min, x_max, n)
    rows = _reference_rows(solution, x_min, x_max, n)
    assert len(gs.xs) == len(rows)
    for i, (x, p, c, r, cur) in enumerate(rows):
        assert _bits(gs.xs[i]) == _bits(x)
        assert _bits(gs.phi[i]) == _bits(p)
        assert _bits(gs.chi[i]) == _bits(c)
        assert _bits(gs.rho[i]) == _bits(r)
        assert _bits(gs.j[i]) == _bits(cur)


@settings(max_examples=20, deadline=None)
@given(solutions, ranges, points)
def test_row_writer_equals_per_cell_formatting(tmp_path_factory, solution, bounds, n):
    out = tmp_path_factory.mktemp("csv") / "sample.csv"
    write_csv(sample(solution, *bounds, n), out)
    assert out.read_bytes() == _reference_csv(_reference_rows(solution, *bounds, n)).encode()


@pytest.mark.parametrize("bounds", [(-5.0, 0.0), (0.0, 5.0), (-0.0, 3.0), (-60.0, -1e-3),
                                    (1e-3, 60.0)])
@pytest.mark.parametrize("index", range(len(LIMIT_CASES)))
def test_two_point_grid_equals_scalar_evaluation(tmp_path, bounds, index):
    solution = LIMIT_CASES[index](0.5)
    out = tmp_path / "sample.csv"
    write_csv(sample(solution, *bounds, 2), out)
    assert out.read_bytes() == _reference_csv(_reference_rows(solution, *bounds, 2)).encode()


@pytest.mark.parametrize("bounds", [(-5.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                    (0.0, math.nan)])
def test_sample_rejects_non_finite_range(bounds):
    with pytest.raises(ValueError, match="must be finite"):
        sample(impenetrable_limit(2.0, 1.0), *bounds, 4)


def test_sample_rejects_overflowing_range():
    with pytest.raises(ValueError, match="overflows"):
        sample(impenetrable_limit(2.0, 1.0), -1e308, 1e308, 4)


# ------------------------------------------------------------------ golden
#
# sha256 of the CSV bytes followed by the sidecar bytes, as written by the
# per-point sampler and per-cell writer this module replaced.  The scattering
# states use the r and t that sampler was given (float.hex of the real and
# imaginary parts): the closed-form 2x2 solve in ``solve`` rounds them
# differently in the last bit, and pinning them keeps this test about
# ``sample`` and ``write_csv`` alone.
#
# The limit hashes were re-pinned when the limit states became plane-wave
# sums.  A vanishing component is now a sum such as c + (−c), whose zero
# may carry the other sign than the standing-wave formula gave (2i·sin(kx)
# gave −0 where sin(kx) < 0).  Only zero cells changed, and only in sign.
# The four impenetrable hashes moved again when the sidecar began to record
# the edge V₀ = E + mc² the state sits on in place of null; the CSV bytes
# did not change.  The impenetrable-lower hash moved once more when that
# state kept its own parameterization, t = 2a: its sidecar reads
# "convention": "lower" in place of "main", and its CSV bytes did not change.

SCATTERING = [
    (1.0, 4.0, 2.0, "main", -5.0, 5.0, 1025,
     ("-0x1.ffffffffffffep-2", "-0x0.0p+0"), ("0x1.0000000000000p-1", "0x0.0p+0"),
     "bc710e5fc0f0738a0a8902ba2bdbd9e4ade6117ee56ecd63852b7d2c786bb7b8"),
    (1.0, 4.0, 2.0, "lower", -3.0, 2.0, 1024,
     ("-0x1.ffffffffffffep-2", "-0x0.0p+0"), ("0x1.bb67ae8584caap-1", "0x0.0p+0"),
     "657a9cc63a9bda6fb02849b31b8b77c92b8630aeabd151b6df06a5db3cb68e3e"),
    (1.0, 4.0, 2.0, "traditional", -4.0, -1.0, 1023,
     ("-0x1.0000000000000p+1", "-0x0.0p+0"), ("-0x1.0000000000000p+0", "0x0.0p+0"),
     "824c6d33489520ad77b703e046e449efd2cf7d0fb9a6641a15c11f302e9419aa"),
    (1.0, 7.5, 1.3, "negative", 1.0, 4.0, 1025,
     ("-0x1.9d38635e9446cp-2", "0x0.0p+0"), ("0x1.03880f2fec9c0p-1", "0x0.0p+0"),
     "fe711a5bfb61387565e717aaab623a1359bf9bbae015b4adc970cb8afa7f25fe"),
    (1.0, 1.5, 4.0, "traditional", -6.0, 3.0, 1024,
     ("0x1.57bcb9b0f74cbp-4", "0x0.0p+0"), ("0x1.157bcb9b0f74dp+0", "0x0.0p+0"),
     "0221714e9c7348a949b018062b3dd2b866e4ab1223f891b581fa07ee6209032b"),
    (1.0, 1.5, 4.0, "main", -2.0, 0.0, 1023,
     ("0x1.7d50868c9e112p+3", "0x0.0p+0"), ("0x1.9d50868c9e112p+3", "0x0.0p+0"),
     "86dc454e0e0c16b36d372e01112a1db81498e7fdf620fab187641cd308b40beb"),
    (1.0, 1.5, 4.0, "lower", 0.0, 3.0, 1025,
     ("0x1.7d50868c9e112p+3", "0x0.0p+0"), ("-0x1.0e93f08de62f6p+3", "0x0.0p+0"),
     "b1757d3d19397e4f24266bc1244e7677000d45336036d14738f5b5701ace0ab5"),
    (1.0, 1.5, 4.0, "negative", -5.0, 5.0, 501,
     ("-0x1.875e060ba599ep+1", "-0x0.0p+0"), ("0x1.924cd79d1fd77p+1", "0x0.0p+0"),
     "2a2ec91ff308b53247ac751a635c84ec1b37e2dabfe0245bef0a890a78d9b26e"),
    (1.0, 2.5, 2.0, "main", -5.0, 5.0, 1024,
     ("-0x1.9999999999999p-1", "-0x1.3333333333333p-1"), ("0x1.9999999999999p-3", "-0x1.3333333333333p-1"),
     "5906cb2ff24d92ee191dd5e6362536ef52e333afe72800ec28ce681c32efb4c8"),
    (1.0, 0.3, 1.05, "lower", -7.3, 6.1, 1025,
     ("-0x1.6aaaaaaaaaaa8p-1", "-0x1.6968daa1a1fbfp-1"), ("0x1.11333111554adp-2", "0x1.c38aa37c3f696p-4"),
     "b5bf3c36a3811c67930e9b700881a509a2b28f5549d3e24e942571935edf6037"),
    (0.0, 2.5, 1.0, "main", -5.0, 5.0, 1023,
     ("0x0.0p+0", "0x0.0p+0"), ("0x1.0000000000000p+0", "0x0.0p+0"),
     "6fd94122ef773a3565c1e2e4a6e0bdbda9cac09c7d7e801ecfe4c4b7b2b0c225"),
]
LIMITS = [
    ("impenetrable", 2.0, 1.0, "main", -5.0, 2.0, 1025,
     "1fe0d95702716d6e3d2ac8b3a7bf35209497c0f23823d7ec55e7ea0f58236b27"),
    ("impenetrable", 1.5, 1.0, "lower", -3.0, 3.0, 1024,
     "d04f04b767944e57e7f9d43fe755abc9735c7a77e3d49f6d677a63ca034020f8"),
    ("impenetrable", 3.0, 1.0, "negative", -4.0, 1.0, 1023,
     "3794ea9bf7c0262cb7f2863483e4de5119d72c41aa679cdcaae6a65b157f78fe"),
    ("impenetrable", 2.0, 0.0, "main", -5.0, 5.0, 501,
     "8f3727b8d5c7346a607d51eb714f0108ec5745c48d252fed0518da3e4e9a8fd4"),
    ("nonrel", 0.01, 1.0, "nonrel-main", -4.0, 1.0, 1025,
     "b22fb5fa1b9a771a03d2325180930a30c4656fe9d76da3410e55b61a067a6baa"),
    ("nonrel", 0.2, 1.0, "nonrel-negative", -6.0, -0.5, 1024,
     "f6e37f84543ec6d6a58348c107d5c46b4a461812dfa743b18d2c315da80bbe52"),
]


def _with_amplitudes(sol, r, t):
    """The matched state rebuilt around the given r and t, as ``solve`` builds it."""
    m, v0, e, conv = sol.mass_energy, sol.step_height, sol.energy, sol.convention
    evanescent = classify_regime(sol) is Regime.EVANESCENT
    _, (k, a, (upper, lower, q_t, *_)), _ = _chain(SCALAR, m, v0, e, conv, evanescent)
    values = (upper, lower, q_t, r, t, t * upper, t * lower)
    return PlaneWaveSolution._continued(k, a, values, conv, mass_energy=m, step_height=v0,
                                        energy=e)


def _digest(gs, tmp_path):
    out = tmp_path / "golden.csv"
    write_csv(gs, out)
    return hashlib.sha256(
        out.read_bytes() + (tmp_path / "golden.meta.json").read_bytes()
    ).hexdigest()


@pytest.mark.parametrize("case", SCATTERING, ids=lambda c: f"{c[3]}-V{c[1]}-E{c[2]}-m{c[0]}")
def test_golden_scattering_bytes(case, tmp_path):
    m, v0, e, conv, x_min, x_max, n, r, t, expected = case
    sol = solve(PhysicalSetup(m, v0, e), Convention(conv))
    r, t = (complex(float.fromhex(re), float.fromhex(im)) for re, im in (r, t))
    assert _digest(sample(_with_amplitudes(sol, r, t), x_min, x_max, n), tmp_path) == expected


@pytest.mark.parametrize("case", LIMITS, ids=lambda c: f"{c[0]}-{c[3]}-E{c[1]}-m{c[2]}")
def test_golden_limit_bytes(case, tmp_path):
    which, e, m, kind, x_min, x_max, n, expected = case
    limit = (impenetrable_limit(e, m, Convention(kind)) if which == "impenetrable"
             else nonrelativistic_limit(e, m, Convention(kind.removeprefix("nonrel-"))))
    assert _digest(sample(limit, x_min, x_max, n), tmp_path) == expected
