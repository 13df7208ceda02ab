"""The array core against the scalar record chain, bit for bit.

``scatter_table`` must return, column by column, exactly what the per-row
chain PhysicalSetup → kinematics → match → coefficients → classify_boundary
(edge rows: ``edge_limit``) gives, down to the sign of zero, and refuse a
table with the error of its first refused row.  ``_scatter_record`` below
is that chain, as the CLI ran it once per sweep row before the array core.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracstep import (
    Convention,
    EdgePointError,
    PhysicalSetup,
    Regime,
    classify_boundary,
    classify_regime,
    coefficients,
    edge_limit,
    external_force_mean,
    kinematics,
    match,
    physical_convention,
)
from diracstep.table import scatter_table

COLUMNS = (
    "step_height", "energy", "regime", "transition", "convention", "a",
    "b_re", "b_im", "k", "kbar_or_kappa", "r_re", "r_im", "t_re", "t_im",
    "R", "T", "rho0", "j0", "v_t", "force", "boundary",
)


def _scatter_record(setup: PhysicalSetup, conv: Convention | None) -> dict:
    """One row through the scalar chain; edge rows come from the limits."""
    regime = classify_regime(setup)
    if regime in (Regime.EDGE_POINT, Regime.EDGE_LOWER):
        sol = edge_limit(setup, conv)
        b = -math.inf if regime is Regime.EDGE_POINT else 0.0
        a, k, kbar_or_kappa, force = sol.a, sol.wave_number, 0.0, sol.force
    else:
        kin = kinematics(setup)
        sol = match(kin, conv or physical_convention(regime))
        a, b, k, kbar_or_kappa = kin.a, kin.b, kin.k, kin.kbar_or_kappa
        force = external_force_mean(sol)
    b, r, t = complex(b), complex(sol.r), complex(sol.t)
    return {
        "step_height": setup.step_height,
        "energy": setup.energy,
        "regime": regime.value,
        "convention": sol.convention.value,
        "a": a, "b_re": b.real, "b_im": b.imag, "k": k, "kbar_or_kappa": kbar_or_kappa,
        "r_re": r.real, "r_im": r.imag, "t_re": t.real, "t_im": t.imag,
        **vars(coefficients(sol)),
        "force": force,
        "boundary": classify_boundary(sol).classification.value,
    }


def _reference(mass, rows, conv):
    """Records of every row, or the exception of the first refused one."""
    records = []
    for v0, e in rows:
        try:
            records.append(_scatter_record(PhysicalSetup(mass, v0, e), conv))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            return exc
    for i, record in enumerate(records):
        record["transition"] = int(i > 0 and record["regime"] != records[i - 1]["regime"])
    return records


def _bits(value):
    """Exact identity of a cell: float.hex for floats, so signed zeros count."""
    return (value.hex(), "float") if isinstance(value, float) else (value, type(value))


def _assert_table_matches(mass, rows, conv):
    expected = _reference(mass, rows, conv)
    step_heights = [v0 for v0, _ in rows]
    energies = [e for _, e in rows]
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as info:
            scatter_table(mass, step_heights, energies, conv)
        assert str(info.value) == str(expected)
        return
    table = scatter_table(mass, step_heights, energies, conv)
    assert set(table) == set(COLUMNS)
    columns = {name: table[name].tolist() for name in COLUMNS}
    for i, record in enumerate(expected):
        for name in COLUMNS:
            assert _bits(columns[name][i]) == _bits(record[name]), (i, name, record)


def _nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


MASSES = (0.0, 5e-324, 1e-300, 1e-3, 1.0, 3.0, 1e150)


@st.composite
def tables(draw):
    """A mass, a convention and rows (V0, E) spread over every regime, on
    both edges and a few ulps off them, at magnitudes up to 1e150."""
    mass = draw(st.sampled_from(MASSES))
    unit = mass if mass > 0.0 else draw(st.sampled_from((1e-150, 1.0, 1e150)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        e = mass + unit * draw(st.floats(1e-6, 1e3))
        target = draw(st.sampled_from(("lower", "upper", "open")))
        if target == "open":
            v0 = unit * draw(st.floats(1e-6, 3e3))
        else:
            edge = e - mass if target == "lower" else e + mass
            v0 = _nudge(edge, draw(st.integers(-3, 3)))
        rows.append((v0, e))
    conv = draw(st.sampled_from((None, *Convention)))
    return mass, rows, conv


@settings(max_examples=400, deadline=None)
@given(tables())
def test_scatter_table_matches_scalar_chain(case):
    _assert_table_matches(*case)


@pytest.mark.parametrize("conv", [None, *Convention], ids=lambda c: getattr(c, "value", "auto"))
@pytest.mark.parametrize("mass", MASSES)
def test_scatter_table_matches_scalar_chain_across_regimes(mass, conv):
    # One row per regime and edge, kept apart so that no refusal hides another.
    unit = mass or 1.0
    e = mass + 2.0 * unit
    for v0 in (0.5 * unit, e - mass, e, e + mass, e + mass + 3.0 * unit,
               _nudge(e - mass, -1), _nudge(e - mass, 1), _nudge(e + mass, -1),
               _nudge(e + mass, 1)):
        if v0 > 0.0:
            _assert_table_matches(mass, [(v0, e)], conv)


@pytest.mark.parametrize("conv", [None, *Convention], ids=lambda c: getattr(c, "value", "auto"))
@pytest.mark.parametrize("mass", (0.0, 1e-3, 1.0))
def test_scatter_table_matches_scalar_chain_on_dense_grid(mass, conv):
    # 1000 step heights across every regime and both edges (dyadic, so the
    # edges are hit exactly), keeping the rows the chain accepts.
    e = mass + 2.5
    rows = [(i * 2.0 ** -7, e) for i in range(1, 1001)]
    accepted = [row for row in rows if not isinstance(_reference(mass, [row], conv), Exception)]
    assert len(accepted) >= 300
    _assert_table_matches(mass, accepted, conv)


def test_refusal_names_the_first_refused_row():
    # Row 0 rounds to the lower edge; row 2 sits on it, where the negative
    # parameterization is degenerate.  The table must name row 0.
    rows = [(0.9999999999999999, 2.0), (2.5, 2.0), (1.0, 2.0)]
    with pytest.raises(EdgePointError, match="V0=0.9999999999999999"):
        scatter_table(1.0, [v for v, _ in rows], [e for _, e in rows],
                      Convention.NEGATIVE_ENERGY)


def test_scatter_table_broadcasts_and_marks_transitions():
    table = scatter_table(1.0, np.array([0.5, 0.75, 2.0, 3.0, 5.0]), 2.0, None)
    assert table["regime"].tolist() == [
        "Transmission", "Transmission", "Evanescent", "EdgePoint", "KleinZone"]
    assert table["transition"].tolist() == [0, 0, 1, 1, 1]
    assert table["convention"].tolist() == [
        "traditional", "traditional", "main", "main", "main"]
