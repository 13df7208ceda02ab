"""The array core against the scalar record, bit for bit.

``scatter_table`` must return, column by column, exactly what
``table.record`` gives for each row, down to the sign of zero, and refuse a
table with the error of its first refused row.  ``record`` is the row
``scatter`` prints: on an open regime the columns of ``table._chain`` on
Python numbers, and on an edge those of the ``edge_limit`` state, with the
continuity residual at x = 0 that ``verify``'s conservation suite reads from
the table.  The table runs the same ``_chain`` on numpy arrays, so these
tests pin the array arithmetic's rounding to CPython's and the edge and
refusal bookkeeping; the independent check of the values themselves is the
decimal reference in ``test_reference.py``.
"""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracstep import (BoundaryCondition, Convention, EdgePointError, PhysicalSetup,
                       PlaneWaveSolution, Regime, current, edge_limit, solve, table)
from diracstep.core import incident_wave
from diracstep.table import record as scalar_record
from diracstep.table import scatter_table
from diracstep.verify import draw_energy, draw_setup

COLUMNS = (
    "step_height", "energy", "regime", "transition", "convention", "a",
    "b_re", "b_im", "k", "kbar_or_kappa", "r_re", "r_im", "t_re", "t_im",
    "R", "T", "rho0", "j0", "v_t", "force", "boundary", "continuity",
)


def _reference(mass, rows, conv):
    """Records of every row, or the exception of the first refused one."""
    records = []
    for v0, e in rows:
        try:
            records.append(scalar_record(PhysicalSetup(mass, v0, e), conv))
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


def _setups_at_every_scale(seed: int, n: int):
    """(mc², V₀, E) at units from 1e-300 to 1e300, a tenth massless, a third
    each open, within 3 ulps of the lower edge and of the edge point."""
    rng = random.Random(seed)
    for _ in range(n):
        unit = 10.0 ** rng.uniform(-300.0, 300.0)
        mass = 0.0 if rng.random() < 0.1 else unit * rng.uniform(0.01, 3.0)
        e = mass + unit * 10.0 ** rng.uniform(-6.0, 3.0)
        target = rng.choice(("lower", "upper", "open"))
        if target == "open":
            v0 = unit * 10.0 ** rng.uniform(-6.0, 4.0)
        else:
            v0 = _nudge(e - mass if target == "lower" else e + mass, rng.randint(-3, 3))
        yield mass, v0, e


def _outcome(build):
    """The value of ``build()``, or the type and message of its ValueError."""
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("conv", [None, *Convention], ids=lambda c: getattr(c, "value", "auto"))
def test_solve_refuses_exactly_what_record_refuses(conv):
    """``solve`` and ``record`` take one route: a setup's state is refused
    if and only if its row is, with the same error, at every scale and a few
    ulps off either edge.  At E = 1.5e308, mc2 = 1e307 the wall force
    overflows on both sides of the edge point and on it."""
    cases = [(1e307, v0, 1.5e308) for v0 in (1.59e308, 1.6e308, 1.61e308)]
    cases += _setups_at_every_scale(35, 600)
    refused = 0
    for m, v0, e in cases:
        try:
            setup = PhysicalSetup(m, v0, e)
        except ValueError:
            continue
        state = _outcome(lambda: solve(setup, conv))
        row = _outcome(lambda: scalar_record(setup, conv))
        if isinstance(row, tuple):
            assert state == row, setup
            refused += 1
            continue
        assert isinstance(state, PlaneWaveSolution), (setup, state)
        r = complex(state.r)
        assert (state.convention.value, r.real.hex(), r.imag.hex()) == (
            row["convention"], row["r_re"].hex(), row["r_im"].hex()), setup
    assert refused >= 3


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
    with pytest.raises(EdgePointError, match="V0=0.9999999999999999") as info:
        scatter_table(1.0, [v for v, _ in rows], [e for _, e in rows],
                      Convention.NEGATIVE_ENERGY)
    assert (info.value.row, info.value.refused) == (0, 3)


@settings(max_examples=300, deadline=None)
@given(tables())
def test_refusal_carries_the_first_refused_row_and_the_refused_count(case):
    mass, rows, conv = case
    refused = [i for i, (v0, e) in enumerate(rows)
               if isinstance(_reference(mass, [(v0, e)], conv), Exception)]
    if not refused:
        scatter_table(mass, [v0 for v0, _ in rows], [e for _, e in rows], conv)
        return
    with pytest.raises(ValueError) as info:
        scatter_table(mass, [v0 for v0, _ in rows], [e for _, e in rows], conv)
    assert (info.value.row, info.value.refused) == (refused[0], len(refused))


# The record columns in units of energy: times 2^s when every energy is.
SCALED = ("step_height", "energy", "k", "kbar_or_kappa", "force")
FORCE_OVERFLOWS = "wall force -V0 rho(0) overflows"


def _without_numbers(error):
    """An error's message with the values it names left out."""
    return re.sub(r"=[^,) ]+", "=", str(error))


def _assert_scaled_record(mass, v0, e, conv, s):
    """``record`` at (mc², V₀, E)·2^s is ``record`` at (mc², V₀, E) with the
    SCALED columns times 2^s and every other column identical, bit for bit;
    where that force overflows it is refused by name, and where the setup is
    refused, it is refused alike."""
    setup = PhysicalSetup(*(math.ldexp(x, s) for x in (mass, v0, e)))
    try:
        base = scalar_record(PhysicalSetup(mass, v0, e), conv)
    except ValueError as exc:
        with pytest.raises(type(exc)) as info:
            scalar_record(setup, conv)
        assert _without_numbers(info.value) == _without_numbers(exc)
        return
    try:
        expected = {**base, **{name: math.ldexp(base[name], s) for name in SCALED}}
    except OverflowError:
        with pytest.raises(ValueError, match=re.escape(FORCE_OVERFLOWS)):
            scalar_record(setup, conv)
        return
    got = scalar_record(setup, conv)
    assert {name: _bits(got[name]) for name in got} == {
        name: _bits(expected[name]) for name in expected}


def _assert_scales(mass, v0, e, conv):
    """The setup's record, and its table, are those of the setup divided by
    2^s, s the binary exponent of its largest energy, scaled back."""
    s = math.frexp(max(mass, v0, e))[1]
    _assert_scaled_record(*(math.ldexp(x, -s) for x in (mass, v0, e)), conv, s)
    _assert_table_matches(mass, [(v0, e)], conv)


@pytest.mark.parametrize("mass, v0, e, conv, cause", [
    # k² and k̄² overflow or underflow the double range in the setup's own
    # unit; formed from power-of-two-scaled pairs they are normal, and the
    # setup is accepted (cause None).
    (1.0, 1.0, 1e200, None, None),
    (1.0, 1e300, 2.0, None, None),
    (1.0, 0.9999999999999999, 2.0, None, "rounds to 0 in Transmission"),
    (1.0, 0.2, 1.2, None, "rounds to 0 in Evanescent"),
    (1e-200, 3.0000000000000005e-200, 2e-200, None, None),
    (0.0, 9.999999999999999e-151, 1e-150, None, None),
    (1.0, 2.5, 2.0, Convention.TRADITIONAL, "'traditional' transmitted wave grows"),
    (1.0, 2.5, 2.0, Convention.NEGATIVE_ENERGY, "'negative' transmitted wave grows"),
    # Massless, b = ±1 makes each column parallel to the reflected wave [1, −1].
    (0.0, 0.5, 1.0, Convention.MAIN, "singular for 'main'"),
    (0.0, 0.5, 1.0, Convention.LOWER_COMPONENT, "singular for 'lower'"),
    (0.0, 0.5, 1.0, Convention.NEGATIVE_ENERGY, "singular for 'negative'"),
    (0.0, 1.5, 1.0, Convention.TRADITIONAL, "singular for 'traditional'"),
    # The force −V₀·ρ(0) overflows: from V₀ ≈ 4.5e307 where ρ(0) = 4, and
    # far below it where ρ(0) is large (3.3e10 under an explicit `main` in
    # the transmission regime at 2^1000·(1, 0.109, 83.9)); in the Klein
    # zone, in the transmission regime, at the edge point and at the lower
    # edge alike.
    (1.0, 1.7e308, 2.0, None, f"{FORCE_OVERFLOWS} (E=2.0, V0=1.7e+308, mc2=1.0)"),
    (2.0 ** 1000, 0.109 * 2.0 ** 1000, 83.9 * 2.0 ** 1000, Convention.MAIN, FORCE_OVERFLOWS),
    (1.0, 1e308, 1e308, None, f"{FORCE_OVERFLOWS} (E=1e+308, V0=1e+308, mc2=1.0)"),
    (1e307, 9e307, 1e308, Convention.MAIN,
     f"{FORCE_OVERFLOWS} (E=1e+308, V0=9e+307, mc2=1e+307)"),
], ids=["k2-overflow", "kbar2-overflow", "kbar-zero-transmission", "kbar-zero-evanescent",
        "k2-underflow-klein", "kbar2-underflow-transmission", "growing-traditional",
        "growing-negative", "singular-main", "singular-lower", "singular-negative",
        "singular-traditional", "force-overflow-klein", "force-overflow-transmission-main",
        "force-overflow-edge-point", "force-overflow-edge-lower"])
def test_each_refusal_cause_is_raised_alike_by_record_and_table(mass, v0, e, conv, cause):
    if cause is None:
        _assert_scales(mass, v0, e, conv)
        return
    with pytest.raises(ValueError, match=re.escape(cause)):
        scalar_record(PhysicalSetup(mass, v0, e), conv)
    _assert_table_matches(mass, [(v0, e)], conv)


@st.composite
def scaled_tables(draw):
    """A scale 2^s, |s| ≤ 1000, a convention, and rows (V₀, E) at mc² = 1:
    drawn as ``verify`` draws them, or at δ from either edge on either side,
    δ/(E + mc²) from 1e-6 to 1e-1, or on the edge."""
    s = draw(st.integers(-1000, 1000) | st.sampled_from((-1000, 1000)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        where = draw(st.sampled_from(("verify", "near", "on")))
        if where == "verify":
            setup = draw_setup(rng, draw(st.sampled_from(
                (Regime.KLEIN_ZONE, Regime.TRANSMISSION, Regime.EVANESCENT))))
            v0, e = setup.step_height, setup.energy
        else:
            e = draw_energy(rng)
            v0 = e + draw(st.sampled_from((-1.0, 1.0)))
            if where == "near":
                v0 += draw(st.sampled_from((-1.0, 1.0))) * (e + 1.0) * 10.0 ** draw(
                    st.floats(-6.0, -1.0))
        # Every scaled energy, and so the force, stays normal.
        assume(v0 > 0.0 and math.ldexp(v0, s) >= 2.0 ** -1000)
        rows.append((v0, e))
    return s, rows, draw(st.sampled_from((None, *Convention)))


@settings(max_examples=300, deadline=None)
@given(scaled_tables())
def test_records_at_every_power_of_two_scale_are_the_scaled_records(case):
    """The chain and the edge states are free of the energy unit: at any
    scale 2^s that keeps the inputs normal, a record is the unscaled one with
    k, k̄, the force, V₀ and E times 2^s, or is refused by name where that
    force overflows; the table equals ``record`` on the scaled rows."""
    s, rows, conv = case
    for v0, e in rows:
        _assert_scaled_record(1.0, v0, e, conv, s)
    _assert_table_matches(math.ldexp(1.0, s),
                          [(math.ldexp(v0, s), math.ldexp(e, s)) for v0, e in rows], conv)


def test_scatter_table_broadcasts_and_marks_transitions():
    table = scatter_table(1.0, np.array([0.5, 0.75, 2.0, 3.0, 5.0]), 2.0, None)
    assert table["regime"].tolist() == [
        "Transmission", "Transmission", "Evanescent", "EdgePoint", "KleinZone"]
    assert table["transition"].tolist() == [0, 0, 1, 1, 1]
    assert table["convention"].tolist() == [
        "traditional", "traditional", "main", "main", "main"]


@pytest.mark.parametrize("conv", [None, *Convention], ids=lambda c: getattr(c, "value", "auto"))
def test_label_columns_are_fixed_width_text_and_transition_an_integer(conv):
    # Step heights across every regime and both edges at E = 2.5, mc² = 1.
    rows = [(i * 2.0 ** -4, 2.5) for i in range(1, 81)]
    rows = [row for row in rows if not isinstance(_reference(1.0, [row], conv), Exception)]
    records = _reference(1.0, rows, conv)
    table = scatter_table(1.0, [v0 for v0, _ in rows], [e for _, e in rows], conv)
    assert not [name for name, column in table.items() if column.dtype == object]
    assert table["transition"].dtype.kind == "i"
    assert table["transition"].tolist() == [record["transition"] for record in records]
    assert "EdgePoint" in [record["regime"] for record in records]  # an edge row is record's
    for name, members in (("regime", Regime), ("convention", Convention),
                          ("boundary", BoundaryCondition)):
        assert table[name].dtype.kind == "U"
        assert table[name].tolist() == [record[name] for record in records]
        column = table[name].copy()
        for member in members:
            column[0] = member.value
            assert column[0] == member.value


@pytest.mark.parametrize("conv", [None, Convention.MAIN, Convention.NEGATIVE_ENERGY],
                         ids=lambda c: getattr(c, "value", "auto"))
def test_scatter_table_matches_scalar_chain_on_10000_edge_rows(conv):
    # Six setups on the two edges, repeated in a scrambled order: the table
    # gives each row the ``record`` of its setup.  Under ``negative`` the
    # lower edge is refused, and the first such row raises.
    setups = [(e + side, e) for e in (2.0, 2.5, 1.0 + 2.0 ** -20) for side in (1.0, -1.0)]
    rows = [setups[(7 * i + i // 5) % len(setups)] for i in range(10_000)]
    _assert_table_matches(1.0, rows, conv)


@pytest.mark.parametrize("conv", [None, *Convention], ids=lambda c: getattr(c, "value", "auto"))
def test_every_edge_state_carries_incident_current(conv):
    """``record`` reads an edge row through ``observables._observation``, which
    holds no rule for a current-free state: every state that ``edge_limit``
    accepts, on either edge and at every power-of-two scale, carries incident
    current, 2a > 0."""
    accepted = 0
    for mass, e in ((1.0, 2.0), (1.0, 1.0 + 2.0 ** -52), (1.0, 2.0 ** 40), (0.0, 1.0)):
        for s in range(-1074, 1024):
            for v0 in {e + mass, e - mass}:
                try:
                    state = edge_limit(PhysicalSetup(*(math.ldexp(x, s) for x in (mass, v0, e))),
                                       conv)
                except (ValueError, OverflowError):  # off an edge, refused, or out of range
                    continue
                accepted += 1
                assert current(state.incident.amplitude) > 0.0
    assert accepted > 2048


def test_invalid_rows_are_refused_without_a_record_each(monkeypatch):
    # 1000 distinct invalid rows (E < mc2) after two edge rows: the table
    # builds a scalar setup for each edge row and for the first invalid row,
    # whose error it raises, and counts every invalid row as refused.
    built, recorded = [], []
    setup, scalar = table.PhysicalSetup, table.record
    monkeypatch.setattr(table, "PhysicalSetup", lambda *args: built.append(args) or setup(*args))
    monkeypatch.setattr(table, "record", lambda *args: recorded.append(args) or scalar(*args))
    energies = [2.0, 2.0] + [0.5 + i / 4000 for i in range(1000)]
    with pytest.raises(ValueError, match="energy must exceed mass_energy") as info:
        scatter_table(1.0, [3.0, 1.0] + [1.0] * 1000, energies, None)
    assert (info.value.row, info.value.refused) == (2, 1000)
    assert (len(built), len(recorded)) == (3, 2)


def test_repeated_refused_rows_raise_at_the_first():
    # Rows 1 and 3 are refused with messages that name them, and both come
    # back later: the table must still raise the error of row 1.
    upper, first, second = (3.0, 2.0), (_nudge(1.0, -1), 2.0), (_nudge(0.5, -1), 1.5)
    rows = [upper, first, upper, second, second, first]
    _assert_table_matches(1.0, rows, Convention.NEGATIVE_ENERGY)
    with pytest.raises(EdgePointError, match="V0=0.9999999999999999"):
        scatter_table(1.0, [v0 for v0, _ in rows], [e for _, e in rows],
                      Convention.NEGATIVE_ENERGY)


@pytest.mark.parametrize("mass", (0.0, -0.0))
@settings(max_examples=100, deadline=None)
@given(e=st.floats(1e-150, 1e150))
def test_massless_a_is_exactly_one(mass, e):
    # a = sqrt((E - mc2)/(E + mc2)) is E/E = 1 exactly at mc2 = +-0, on the
    # scalar chain and in the table, on open and edge rows alike.
    assert incident_wave(e, mass)[1] == 1.0
    assert scalar_record(PhysicalSetup(mass, 0.5 * e, e))["a"] == 1.0
    assert scalar_record(PhysicalSetup(mass, e, e))["a"] == 1.0
    assert scatter_table(mass, [0.5 * e, e, 3.0 * e], e, None)["a"].tolist() == [1.0] * 3
