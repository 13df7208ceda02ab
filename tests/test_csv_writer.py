"""The shared CSV writer against per-cell and per-row '%'-formatting.

``gridio._csv_block`` formats every float cell of a block at once; each
cell must read exactly as ``'%.17g' % v``, for every double: subnormals,
powers of ten one ulp either side, ties, signed zeros, infinities and NaN.
Cells whose rounding the fast path cannot decide, and every cell where
np.longdouble is no wider than a double, take '%' itself; the edge corpus
runs through both paths.  A column constant over a block skips the kernel,
``_float_cells``, so the kernel is also tested on its own.
"""

import math
import struct
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracstep import Convention, PhysicalSetup, gridio, impenetrable_limit, sample, solve
from diracstep.gridio import CSV_HEADER, _csv_block, _power_of_ten, write_csv


@pytest.fixture(autouse=True, scope="module")
def _fast_path_at_any_size():
    """Blocks of every size take the fast path here, not only the large ones."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gridio, "_FAST_CELLS", 0)
        yield


def _per_cell(values) -> bytes:
    return "".join("%.17g\n" % v for v in values).encode()


def _kernel(values) -> bytes:
    """``_float_cells`` of the values with the fast path asked for, one line per cell."""
    cells = gridio._float_cells(np.array(values, float), True)
    cells[:, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern_reads_as_percent_17g(patterns):
    values = [_from_bits(bits) for bits in patterns]
    assert _kernel(values) == _per_cell(values)
    assert _csv_block([np.array(values)]) == _per_cell(values)


def _edge_corpus() -> list[float]:
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
              2.2250738585072014e-308, 1.7976931348623157e308, 0.0001, 1e-5, 1e16,
              1e17, 9999999999999998.0, 99999999999999984.0, 123456789012345678.0]
    for e in range(-325, 309):
        v = float(f"1e{e}")
        values += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    for k in range(-1074, 1024):
        v = 2.0 ** k
        values += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    values += [float(i) for i in range(-1000, 1001)]
    values += [i + 0.5 for i in range(-1000, 1000)]
    values += [i / 1000 for i in range(-1000, 1001)]
    return values + [-v for v in values]


@pytest.mark.parametrize("fast", [True, False], ids=["fast-path", "percent-only"])
def test_edge_corpus_reads_as_percent_17g(monkeypatch, fast):
    if not fast:
        monkeypatch.setattr(gridio, "_tables", lambda: None)
    values = _edge_corpus()
    assert _kernel(values) == _per_cell(values)
    assert _csv_block([np.array(values)]) == _per_cell(values)


def test_small_blocks_are_formatted_by_percent_without_the_tables(monkeypatch):
    def refuse():
        raise AssertionError("tables built for a small block")

    monkeypatch.setattr(gridio, "_FAST_CELLS", 4096)
    monkeypatch.setattr(gridio, "_tables", refuse)
    values = _edge_corpus()[:4095]
    assert _csv_block([np.array(values)]) == _per_cell(values)


def test_constant_columns_count_toward_the_fast_path(monkeypatch):
    # 2 × 3000 float cells, of which the 3000 of one varying column are fewer
    # than _FAST_CELLS: the block still takes the fast path.
    calls, original = [], gridio._tables

    def tables():
        calls.append(1)
        return original()

    monkeypatch.setattr(gridio, "_FAST_CELLS", 4096)
    monkeypatch.setattr(gridio, "_tables", tables)
    varying = np.linspace(-1.0, 2.0, 3000)
    block = [varying, np.full(3000, 0.1)]
    assert _csv_block(block) == b"".join(b"%.17g,0.10000000000000001\n" % v
                                         for v in varying.tolist())
    assert calls


def test_fast_path_is_on_where_longdouble_holds_64_bits():
    assert (gridio._tables() is not None) == (np.finfo(np.longdouble).nmant >= 63)


@pytest.mark.parametrize("bits", [64, 113])
def test_powers_of_ten_are_rounded_to_within_half_an_ulp(bits):
    for s in range(16 - gridio._X_HI, 16 - gridio._X_LO + 1):
        q, e = _power_of_ten(s, bits)
        assert 2 ** (bits - 1) <= q < 2 ** bits
        assert abs(q * Fraction(2) ** e - Fraction(10) ** s) <= Fraction(2) ** e / 2


def test_text_and_integer_cells_read_as_str():
    columns = [np.array([1.5, -0.0]), np.array(["KleinZone", "Edge,Point"], dtype=object),
               np.array([0, 12]), np.array([math.nan, 2.0])]
    assert _csv_block(columns) == b"1.5,KleinZone,0,nan\n-0,Edge,Point,12,2\n"


# ASCII str columns and integer columns in 0 … 9 take their own paths; every
# other column, and each of these, must read as astype("S") does.
_TEXT_COLUMNS = {
    "object": np.array(["KleinZone", "", "Edge,Point", "100%"], dtype=object),
    "str": np.array(["DirichletUpper", "", "Edge,Point", "100%"]),
    "str-empty": np.array(["", "", "", ""]),
    "str-strided": np.array(["main", "x", "", "y", "%s", "z", "lower", "w"])[::2],
    "str-non-native": np.array(["Edge", "", ",", "%%"], dtype=">U4"),
    "digits": np.array([0, 9, 1, 0]),
    "digits-uint8": np.array([3, 5, 0, 9], dtype=np.uint8),
    "integers": np.array([0, 10, -1, 9]),
    "large-integers": np.array([2**63 - 1, -2**63, 12, 0]),
    "bool": np.array([True, False, False, True]),
}


@pytest.mark.parametrize("name", _TEXT_COLUMNS)
def test_text_cells_read_as_astype_s(name):
    column = _TEXT_COLUMNS[name]
    text = [bytes(v) for v in column.astype("S")]
    assert gridio._text_cells(column).tobytes().translate(None, b"\0") == b",".join(text) + b","
    floats = np.array([1.5, -0.0, math.nan, 2.0])
    expected = b"".join(b"%.17g,%s,%s\n" % (f, v, v) for f, v in zip(floats.tolist(), text))
    assert _csv_block([floats, column, column]) == expected


def test_non_ascii_text_is_refused_as_astype_s_refuses_it():
    with pytest.raises(UnicodeEncodeError):
        _csv_block([np.array(["Klein", "Zone\u00e9"])])


def _per_row(gs) -> bytes:
    """The CSV of a sample, one %-format per row."""
    row = ",".join(["%.17g"] * 7)
    lines = [CSV_HEADER] + [row % (x, p.real, p.imag, c.real, c.imag, r, j)
                            for x, p, c, r, j in zip(gs.xs, gs.phi, gs.chi, gs.rho, gs.j)]
    return ("\n".join(lines) + "\n").encode()


def test_wavefunction_of_20000_points_equals_per_row_formatting(tmp_path):
    solution = solve(PhysicalSetup(1.0, 4.0, 2.0), Convention.MAIN)
    gs = sample(solution, -37.25, 41.5, 20000)
    assert len(gs.xs) == 20001  # both sides of the step at x = 0
    write_csv(gs, tmp_path / "wave.csv")
    assert (tmp_path / "wave.csv").read_bytes() == _per_row(gs)


def test_rows_span_blocks(tmp_path, monkeypatch):
    # 9 rows of 7 cells in blocks of at most 14 cells: four blocks of 2 rows
    # and a last one of 1.
    monkeypatch.setattr(gridio, "_BLOCK_CELLS", 14)
    gs = sample(impenetrable_limit(2.0, 1.0), -3.0, 2.0, 8)
    write_csv(gs, tmp_path / "wall.csv")
    assert (tmp_path / "wall.csv").read_bytes() == _per_row(gs)


# Values a block's constant float columns take: signed zeros, NaN,
# infinities, the least subnormal, a 17-digit integer and a 17-digit fraction.
_CONSTANTS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e17, 0.1]


def _per_value(columns) -> bytes:
    """The CSV rows of ``columns``, one '%'-format per cell."""
    return b"".join(b",".join(b"%.17g" % v if isinstance(v, float) else str(v).encode()
                              for v in row) + b"\n"
                    for row in zip(*(column.tolist() for column in columns)))


def _written(columns, block_cells: int) -> bytes:
    """The rows that ``_write_rows`` writes of ``columns`` in blocks of at most
    about ``block_cells`` cells."""
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(gridio, "_BLOCK_CELLS", block_cells)
        gridio._write_rows(Path(tmp) / "t.csv", "h", columns)
        return (Path(tmp) / "t.csv").read_bytes()


@st.composite
def _tables_with_constant_columns(draw):
    n = draw(st.integers(1, 40))
    value = st.sampled_from(_CONSTANTS)
    column = st.one_of(
        value.map(lambda v: np.full(n, v)),  # constant over every block
        st.lists(value, min_size=n, max_size=n).map(np.array),  # constant in some blocks
        st.lists(st.floats(), min_size=n, max_size=n).map(np.array),
        st.lists(st.sampled_from(["Transmission", "main", ""]), min_size=n,
                 max_size=n).map(np.array),
        st.lists(st.integers(0, 9), min_size=n, max_size=n).map(np.array),
    )
    return draw(st.lists(column, min_size=1, max_size=8)), draw(st.integers(1, 60))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_tables_with_constant_columns())
def test_tables_with_constant_columns_read_as_percent_17g(table):
    columns, block_cells = table
    assert _written(columns, block_cells) == b"h\n" + _per_value(columns)


def test_column_constant_in_one_block_and_varying_in_the_next():
    # Blocks of 3 rows: the second column is constant in the first block only.
    columns = [np.arange(6.0), np.array([1.5, 1.5, 1.5, 2.0, 0.1, 0.1])]
    assert _written(columns, 6) == (b"h\n0,1.5\n1,1.5\n2,1.5\n3,2\n"
                                    b"4,0.10000000000000001\n5,0.10000000000000001\n")


def test_signed_zeros_are_not_one_constant():
    assert not gridio._constant(np.array([0.0, -0.0, 0.0]))
    assert _csv_block([np.array([0.0, -0.0, 0.0])]) == b"0\n-0\n0\n"
    assert gridio._constant(np.full(3, math.nan))


def test_one_row_table():
    columns = [np.array([0.1]), np.array(["main"]), np.array([-0.0]), np.array([3])]
    assert _csv_block(columns) == b"0.10000000000000001,main,-0,3\n"


@pytest.mark.parametrize("text", [False, True], ids=["floats-only", "with-text"])
def test_every_float_column_constant(text):
    columns = [np.full(5, -math.inf), np.full(5, 5e-324), np.full(5, math.nan)]
    if text:
        columns.insert(1, np.array(["a", "b", "c", "d", "e"]))
    assert _csv_block(columns) == _per_value(columns)
    assert _csv_block(columns[:1]) == b"-inf\n" * 5
