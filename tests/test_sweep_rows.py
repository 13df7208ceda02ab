"""Sweep CSV rows through the shared CSV writer, ``gridio._csv_block``, which
formats every float cell of a block of rows at once.

``_reference_rows`` is the formatting ``sweep`` did before: every row
formatted in full with ``_SWEEP_ROW``.  The rows of the writer must equal it
byte for byte, whichever columns are constant.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracstep import Convention, gridio
from diracstep.cli import _SWEEP_COLUMNS
from diracstep.gridio import _csv_block
from diracstep.table import scatter_table

_SWEEP_ROW = ",".join(
    "%s" if name in ("regime", "transition", "convention", "boundary") else "%.17g"
    for name in _SWEEP_COLUMNS
)


@pytest.fixture(autouse=True, scope="module")
def _fast_path_at_any_size():
    """These small tables take the fast path, as a 2000-row sweep does."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gridio, "_FAST_CELLS", 0)
        yield


def _reference_rows(table: dict) -> list[str]:
    return [_SWEEP_ROW % row for row in zip(*(table[c].tolist() for c in _SWEEP_COLUMNS))]


def _sweep_rows(table: dict) -> list[str]:
    """The rows the shared writer gives for ``table``, each without its '\\n'."""
    text = _csv_block([table[c] for c in _SWEEP_COLUMNS]).decode()
    assert text.endswith("\n")
    return text[:-1].split("\n")


def _accepted(mass, step_heights, energies, conv) -> dict | None:
    """The table of the rows that the scalar chain accepts on their own."""
    keep = []
    for v0, e in zip(step_heights, energies):
        try:
            scatter_table(mass, v0, e, conv)
        except (ValueError, ArithmeticError):
            continue
        keep.append((v0, e))
    if not keep:
        return None
    return scatter_table(mass, [v0 for v0, _ in keep], [e for _, e in keep], conv)


def _near(x: float) -> list[float]:
    """x and the floats one ulp below and above it."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


@st.composite
def sweeps(draw):
    """A table as ``sweep`` builds one: a fixed energy or step height, the
    other parameter varying over every regime, with rows on and one ulp off
    both edges V0 = E -+ mc2."""
    mass = draw(st.sampled_from((0.0, 1e-3, 1.0)))
    vary = draw(st.sampled_from(("step-height", "energy")))
    conv = draw(st.sampled_from((None, *Convention)))
    fixed = mass + draw(st.floats(1e-3, 10.0))
    span = st.floats(1e-3, fixed + mass + 5.0)
    values = draw(st.lists(span, min_size=0, max_size=12))
    # Varying V0 at fixed E, the edges are V0 = E -+ mc2; varying E at fixed
    # V0, they are E = V0 +- mc2.
    edges = (fixed - mass, fixed + mass)
    for edge in draw(st.lists(st.sampled_from(edges), max_size=3)):
        values += [v for v in _near(edge) if v > 0.0]
    values = sorted(values)
    if vary == "step-height":
        table = _accepted(mass, values, [fixed] * len(values), conv)
    else:
        table = _accepted(mass, [fixed] * len(values), values, conv)
    assume(table is not None)
    return table


@settings(max_examples=300, deadline=None)
@given(sweeps())
def test_rows_match_per_row_formatting(table):
    assert _sweep_rows(table) == _reference_rows(table)


def _klein_sweep() -> dict:
    return scatter_table(1.0, np.array([4.0, 4.5, 5.0, 5.5]), 2.0, None)


@pytest.mark.parametrize("zeros", [[0.0, -0.0, 0.0, 0.0], [-0.0, 0.0, 0.0, -0.0]])
@pytest.mark.parametrize("name", ["b_im", "r_im", "force"])
def test_signed_zeros_are_not_collapsed(name, zeros):
    table = _klein_sweep()
    table[name] = np.array(zeros)
    rows = _sweep_rows(table)
    assert rows == _reference_rows(table)
    cells = [row.split(",")[_SWEEP_COLUMNS.index(name)] for row in rows]
    assert cells == ["-0" if math.copysign(1.0, z) < 0 else "0" for z in zeros]


def test_every_column_constant():
    # Four identical setups: no column varies, and every row is still written.
    table = scatter_table(1.0, np.full(4, 4.0), 2.0, None)
    rows = _sweep_rows(table)
    assert rows == _reference_rows(table)
    assert len(rows) == 4 and len(set(rows)) == 1


@pytest.mark.parametrize("constant", [True, False])
@pytest.mark.parametrize("steps", [[4.0, 4.5, 5.0, 5.5], [4.0] * 4])
def test_text_cell_with_percent(constant, steps):
    # A constant text cell is written into the row template, where a bare
    # "%" would start a conversion; a varying one is formatted by "%s".
    table = scatter_table(1.0, np.array(steps), 2.0, None)
    cells = ["100%", "100%", "%s", "%%"]
    table["boundary"] = np.array(cells[:1] * 4 if constant else cells, dtype=object)
    assert _sweep_rows(table) == _reference_rows(table)
