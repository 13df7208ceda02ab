"""Spatial sampling of solutions and deterministic CSV export.

``sample`` evaluates the whole grid on numpy arrays in one pass, through
``matching.PlaneWaveSolution``'s ``left_values`` / ``right_values``, which
share one body with ``left_value_at`` / ``right_value_at``; ``rho`` and
``j`` from ``spinor.densities`` / ``currents`` equal ``density`` /
``current`` too: a sample holds exactly the values a per-point loop would
give.  A ``GridSample`` holds those arrays, read-only; its tuple fields
``xs``, ``phi``, ``chi``, ``rho`` and ``j`` are built on first read, and
``write_csv`` reads none of them.  ``write_csv`` and ``sweep`` write their
rows through one CSV writer, ``_write_rows``, which formats every float
cell of a block of rows at once, byte for byte as ``'%.17g' % v``, and
every other cell as ``astype("S")`` writes it: an ASCII str column (the
sweep's labels) from its code units and an integer column in 0 … 9 (its
``transition``) as one digit, with no Python object per cell.  A float
column that is constant over a block (a sweep's fixed energy, a zero
imaginary part, the one spinor beyond an impenetrable wall) is formatted
once per block, by ``'%'`` itself.

``sample`` refuses a grid on which a plane wave's phase k·x overflows, or
reaches 2^52 in magnitude, where its ulp is 1 rad or more and e^{ikx} has
no correct digit.

Output contract: a CSV with header ``x,phi_re,phi_im,chi_re,chi_im,rho,j``
(17 significant digits, '\\n' line endings, byte-identical for identical
inputs) plus a JSON metadata sidecar named ``<basename>.meta.json`` with
keys {mass_energy, step_height, energy, convention, regime,
generator_version}; the regime is ``core.classify_regime`` of the state's
energies, or a limit state's kind, whose step height is the edge V₀ it sits
on (null at the hard wall, ∞).  Complex components are stored as separate
real and imaginary columns so any plotting tool can consume them.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np

from . import __version__
from .core import classify_regime
from .limits import LimitSolution
from .matching import PlaneWaveSolution
from .spinor import currents, densities

__all__ = ["GridSample", "sample", "write_csv"]

CSV_HEADER = "x,phi_re,phi_im,chi_re,chi_im,rho,j"


_COLUMNS = (("xs", float), ("phi", complex), ("chi", complex), ("rho", float),
            ("j", float))


def _tuple_of(name: str) -> functools.cached_property:
    """The field ``name``: a tuple of Python numbers, built from the held array
    on first read."""
    return functools.cached_property(lambda gs: tuple(getattr(gs, "_" + name).tolist()))


class GridSample:
    """Sampled solution on an ordered grid.

    At x = 0 two entries are recorded, the left-branch and right-branch
    one-sided values (identical whenever the solution is continuous).
    rho and j are recomputed from the sampled components, never stored
    independently.

    The columns are held as read-only numpy arrays.  Each of the fields
    ``xs``, ``phi``, ``chi``, ``rho`` and ``j`` is a tuple of Python numbers
    built from its array on first read, so writing a CSV builds none.
    Instances are frozen and compare by value.
    """

    def __init__(self, xs, phi, chi, rho, j, metadata: dict) -> None:
        for (name, dtype), values in zip(_COLUMNS, (xs, phi, chi, rho, j)):
            array = np.array(values, dtype)
            array.flags.writeable = False
            object.__setattr__(self, "_" + name, array)
        object.__setattr__(self, "metadata", metadata)

    xs, phi, chi, rho, j = (_tuple_of(name) for name, _ in _COLUMNS)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.metadata == other.metadata and all(
            np.array_equal(getattr(self, "_" + name), getattr(other, "_" + name))
            for name, _ in _COLUMNS)

    def __repr__(self) -> str:
        return f"GridSample({len(self._xs)} rows, metadata={self.metadata!r})"


def _metadata(solution) -> dict:
    regime = solution.kind if isinstance(solution, LimitSolution) else classify_regime(solution)
    step_height = solution.step_height if solution.step_height < math.inf else None
    return {"mass_energy": solution.mass_energy, "step_height": step_height,
            "energy": solution.energy, "convention": solution.convention.value,
            "regime": regime.value, "generator_version": __version__}


def sample(
    solution: PlaneWaveSolution,
    x_min: float,
    x_max: float,
    n_points: int,
) -> GridSample:
    """Sample a solution on n_points positions spanning [x_min, x_max].

    When the range straddles the step, the interior grid point nearest
    x = 0 is moved onto it, so the grid contains x = 0 exactly and both
    one-sided values are recorded there; both ends stay where they are.
    """
    if n_points < 2:
        raise ValueError("need at least two grid points")
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise ValueError(f"x_min and x_max must be finite, got [{x_min}, {x_max}]")
    if not x_min < x_max:
        raise ValueError("x_min must be below x_max")
    if math.isinf(x_max - x_min):
        raise ValueError(
            f"range [{x_min}, {x_max}] too wide: x_max - x_min overflows"
        )
    # A wave's e^{ikx} has no value where k·x overflows, and no correct digit
    # from |k·x| = 2^52 on, where ulp(k·x) >= 1 rad.  The largest |x| on each
    # side of the step gives the largest phase there.
    k, x = max(((wave.wave_number.real, x)
                for waves, x in (((solution.incident, solution.reflected), min(x_min, 0.0)),
                                 ((solution.transmitted,), max(x_max, 0.0)))
                for wave in waves), key=lambda kx: abs(kx[0] * kx[1]))
    if math.isinf(k * x):
        raise ValueError(f"phase k*x overflows: k = {k}, x = {x}")
    if abs(k * x) >= 2.0 ** 52:
        raise ValueError(f"phase k*x has no correct digit: k = {k}, x = {x}, "
                         f"ulp(k*x) = {math.ulp(k * x)}")
    step = (x_max - x_min) / (n_points - 1)
    # The last point is x_max itself; (n_points - 1)·step may round past it,
    # beyond the double range too, so it is never formed.
    grid = np.arange(n_points, dtype=float)
    grid[:-1] = x_min + grid[:-1] * step
    grid[-1] = x_max
    if x_min < 0.0 < x_max and not (grid == 0.0).any():
        if n_points == 2:
            raise ValueError(
                f"a 2-point grid on [{x_min}, {x_max}] straddles x = 0 and has no "
                "interior point to move onto it: use at least 3 points"
            )
        grid[1 + np.argmin(np.abs(grid[1:-1]))] = 0.0

    # One row per grid point, two at x = 0: the left branch, then the right.
    zeros = np.flatnonzero(grid == 0.0)
    xs = np.insert(grid, zeros, grid[zeros])
    right = xs >= 0.0
    right[zeros + np.arange(len(zeros))] = False
    left = ~right
    phi = np.empty(len(xs), dtype=complex)
    chi = np.empty(len(xs), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        phi[left], chi[left] = solution.left_values(xs[left])
        phi[right], chi[right] = solution.right_values(xs[right])
    if not (np.isfinite(phi).all() and np.isfinite(chi).all()):
        raise ValueError("spinor components must be finite")

    return GridSample(xs, phi, chi, densities(phi, chi), currents(phi, chi),
                      _metadata(solution))


def write_csv(gs: GridSample, path: str | Path) -> None:
    """Write the sample as CSV plus its JSON metadata sidecar.

    Byte-deterministic: fixed 17-significant-digit formatting, '\\n'
    endings, sorted sidecar keys.
    """
    path = Path(path)
    phi, chi = gs._phi, gs._chi
    columns = [gs._xs, phi.real, phi.imag, chi.real, chi.imag, gs._rho, gs._j]
    try:
        _write_rows(path, CSV_HEADER, columns)
        sidecar = path.with_name(path.stem + ".meta.json")
        sidecar.write_text(
            json.dumps(gs.metadata, sort_keys=True, indent=2) + "\n", newline="\n"
        )
    except OSError as exc:
        raise OSError(f"cannot write sample to {path}: {exc}") from exc


# ------------------------------------------------------------------ CSV rows
#
# Every float cell is written as '%.17g' % v, byte for byte, without a Python
# call per cell.  A finite nonzero |v| is D·10^(X−16) with 10^16 <= D < 10^17.
# D = rint(|v|·10^(16−X)) is formed in np.longdouble, where the power of ten
# and the product each round once: the scaled value y lies within eps·y of
# the exact one, so rint(y) is the correctly rounded D unless y's fraction
# lies within 2·eps·y of ½.  Those cells, and every cell where np.longdouble
# is narrower than 64 bits, are formatted by '%' itself.
#
# A cell is a _CELL-byte field: sign, "0.000" prefix, d0, point, d1 … d16,
# exponent, padding, separator, NUL where a part is absent.  A block's CSV
# bytes are its fields with every NUL deleted; a column constant over the
# block is one '%' text, unpadded, repeated on every row.

_CELL = 32
_TAIL = slice(2, 6)  # d1 … d16 as four uint32 groups of four ASCII digits
_X_LO, _X_HI = -326, 310  # decimal exponents of doubles, two past each end
_BLOCK_CELLS = 16384  # most cells formatted at once: bounds the block's buffers
# A block of fewer float cells is formatted by '%' itself: a process that
# writes one 501-point wavefunction (3507 cells) would spend more on building
# the tables, about 5 ms, than the fast path saves.
_FAST_CELLS = 4096
_SPECIAL = np.frombuffer(b"".join(text.ljust(_CELL - 1, b"\0") + b","
                                  for text in (b"0", b"-0", b"inf", b"-inf", b"nan")),
                         np.uint8).reshape(5, _CELL)


def _power_of_ten(s: int, bits: int) -> tuple[int, int]:
    """10^s rounded to ``bits`` significant bits, half to even: (q, e) with
    value q·2^e and 2^(bits − 1) <= q < 2^bits."""
    n, d = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
    e = n.bit_length() - d.bit_length() - bits
    if e >= 0:
        d <<= e
    else:
        n <<= -e
    q, r = divmod(n, d)  # n/d in [2^(bits − 1), 2^(bits + 1))
    if q >> bits:
        q, r, d, e = q >> 1, r + (q & 1) * d, d << 1, e + 1
    q += 2 * r > d or (2 * r == d and q & 1)
    return (q >> 1, e + 1) if q >> bits else (q, e)


def _template(x: int) -> bytes:
    """The cell of decimal exponent x before its digits and sign: the "0.000"
    prefix of -4 <= x < 0, the exponent where x < -4 or x >= 17, the point
    after d0 where x is 0 or in the exponent form, and the separator."""
    prefix = b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b""
    exponent = b"" if -4 <= x < 17 else b"e%+03d" % x
    point = b"." if x == 0 or exponent else b"\0"
    return (b"\0" + prefix.ljust(5, b"\0") + b"\0" + point + bytes(16)
            + exponent.ljust(7, b"\0") + b",")


@functools.cache
def _tables():
    """(powers, eps, templates, groups) of the vectorised '%.17g', or None
    where np.longdouble does not hold every 10^(16 − X) correctly rounded to
    64 bits or more.  Each power of ten is built from exact integers, 32
    bits at a time, and read back the same way."""
    bits = np.finfo(np.longdouble).nmant + 1
    if bits < 64:
        return None
    exact = [_power_of_ten(16 - x, bits) for x in range(_X_LO, _X_HI + 1)]
    shifts = range(0, bits, 32)
    # 32-bit words are exact in a double, and each sum of them in np.longdouble.
    words = np.array([q >> k & 0xFFFFFFFF for q, _ in exact for k in shifts],
                     float).reshape(len(exact), -1)
    e = np.array([e for _, e in exact])
    powers = np.ldexp(sum(np.ldexp(words[:, i].astype(np.longdouble), k)
                          for i, k in enumerate(shifts)), e)
    mantissa, exponent = np.frexp(powers)
    rest, back = np.ldexp(mantissa, bits), np.empty_like(words)
    for i, k in reversed(list(enumerate(shifts))):
        back[:, i] = np.floor(np.ldexp(rest, -k))
        rest = rest - np.ldexp(back[:, i].astype(np.longdouble), k)
    if (back != words).any() or (exponent - bits != e).any():
        return None

    templates = b"".join(map(_template, range(_X_LO, _X_HI + 1)))
    # The four ASCII digits of 0 … 9999 as uint32, then again with their
    # trailing zeros as NUL.
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    digits = (digits + ord("0")).astype(np.uint8)
    groups = np.concatenate([digits, digits * ~trailing]).view(np.uint32).ravel()
    eps = float(np.finfo(np.longdouble).eps)
    return powers, eps, np.frombuffer(templates, np.uint64).reshape(-1, _CELL // 8), groups


def _scale(a: np.ndarray, x: np.ndarray, powers: np.ndarray):
    """floor(y) and the fraction of y = a·10^(16 − x), y formed in np.longdouble."""
    y = a.astype(np.longdouble) * powers[x - _X_LO]
    t = y.astype(np.int64)
    return t, (y - t).astype(np.float64)


def _float_cells(values: np.ndarray, fast: bool) -> np.ndarray:
    """'%.17g' % v of each value, as one NUL-padded _CELL-byte field per value
    that ends in ','; by '%' itself unless ``fast``."""
    m = len(values)
    a = np.abs(values)
    regular = (a > 0.0) & (a < math.inf)
    tables = _tables() if fast else None
    if tables is None:
        cells = np.zeros((m, _CELL), np.uint8)
        cells[:, -1] = ord(",")
        slow = np.arange(m)
    else:
        powers, eps, templates, groups = tables
        # Zeros, infinities and NaN are few where any: indexed by position.
        special = np.flatnonzero(~regular)
        a[special] = 1.0
        # X from log10, corrected where the scaled value has not 17 digits.
        x = np.floor(np.log10(a)).astype(np.intp)
        t, frac = _scale(a, x, powers)
        todo = np.flatnonzero((t < 10 ** 16) | (t >= 10 ** 17))
        for _ in range(2):
            x[todo] += np.where(t[todo] >= 10 ** 17, 1, -1)
            t[todo], frac[todo] = _scale(a[todo], x[todo], powers)
            todo = todo[(t[todo] < 10 ** 16) | (t[todo] >= 10 ** 17)]
        d = t + (frac > 0.5)
        carry = d == 10 ** 17  # 99…9.5 rounds up to the next power of ten
        x += carry
        d[carry] = 10 ** 16
        slow = regular & (np.abs(frac - 0.5) <= 2 * eps * d)
        slow[todo] = True
        slow = np.flatnonzero(slow)

        # Each remainder as a multiply and subtract: numpy's int64 '%' divides again.
        lead = d // 10 ** 16
        rest = d - lead * 10 ** 16
        hi = rest // 10 ** 8
        lo = rest - hi * 10 ** 8
        g0, g2 = hi // 10 ** 4, lo // 10 ** 4
        g = [g0, hi - g0 * 10 ** 4, g2, lo - g2 * 10 ** 4]
        cells = np.take(templates, x - _X_LO, axis=0).view(np.uint8)
        tail = cells.view(np.uint32)[:, _TAIL]
        for k in range(3):
            tail[:, k] = groups.take(g[k])
        # Trailing zeros as NUL: those of the last group, and of each group
        # before it whose later groups are all 0.
        stripped = groups[10000:]
        tail[:, 3] = stripped.take(g[3])
        rows = np.flatnonzero(g[3] == 0)
        for k in (2, 1, 0):
            tail[rows, k] = stripped.take(g[k][rows])
            rows = rows[g[k][rows] == 0]
        cells[:, 0] = np.signbit(values) * np.uint8(ord("-"))
        cells[:, 6] = lead + ord("0")
        cells[:, 7] *= cells[:, 8] != 0
        # 1 <= X < 17: d1 … dX before the point, with their zeros restored.
        for e in np.flatnonzero(np.bincount(x[(x >= 1) & (x < 17)])).tolist():
            rows = np.flatnonzero(x == e)
            cells[rows, 7:7 + e] = np.maximum(cells[rows, 8:8 + e], ord("0"))
            cells[rows, 7 + e] = (cells[rows, 8 + e] != 0) * np.uint8(ord(".")) if e < 16 else 0
        if len(special):
            v = values[special]
            cells[special] = _SPECIAL[np.where(np.isnan(v), 4, 2 * np.isinf(v) + np.signbit(v))]
    if len(slow):
        text = np.array([b"%.17g" % v for v in values[slow].tolist()], dtype=f"S{_CELL - 1}")
        cells[slow, :-1] = text.view(np.uint8).reshape(len(slow), _CELL - 1)
    return cells


def _text_cells(column: np.ndarray) -> np.ndarray:
    """str(v) of each value, as one NUL-padded field per value that ends in ','.
    An ASCII str column is read from its code units, and an integer column in
    0 … 9 as one digit per value; any other column through ``astype("S")``."""
    column = np.ascontiguousarray(column)
    n, text = len(column), None
    if column.dtype.kind == "U":
        units = column.view(np.uint32).reshape(n, column.itemsize // 4)
        # A byte-swapped column reads each nonzero code unit as 2^24 or more.
        if units.max(initial=0) < 128:
            text = units
    elif column.dtype.kind in "iu" and n and 0 <= column.min() and column.max() <= 9:
        text = (column + ord("0")).reshape(n, 1)
    if text is None:
        text = column.astype("S")
        text = text.view(np.uint8).reshape(n, text.itemsize)
    cells = np.empty((n, text.shape[1] + 1), np.uint8)
    cells[:, :-1] = text
    cells[:, -1] = ord(",")
    return cells


def _constant(column: np.ndarray) -> bool:
    """Whether every value of a float64 column has the bits of its first:
    0.0 and -0.0 differ, and a NaN equals itself."""
    bits = column.view(np.int64)
    # The ends first: a column that varies all but always differs there.
    return bool(bits[0] == bits[-1] and (bits == bits[0]).all())


def _csv_block(columns: list[np.ndarray]) -> bytes:
    """The CSV rows of a block of equal-length columns, each row ending in
    '\\n': a float64 cell as '%.17g' % v, any other as str(v).  A _constant
    float column is formatted once, unpadded; the others go through one
    _float_cells call, on the fast path where the block has _FAST_CELLS float
    cells or more, constant ones counted."""
    n = len(columns[0])
    # 0: text, 1: a float column that varies, 2: a constant one.
    kinds = [0 if c.dtype != np.float64 else 1 + _constant(c) for c in columns]
    varying = [c for c, kind in zip(columns, kinds) if kind == 1]
    fast = n * (len(columns) - kinds.count(0)) >= _FAST_CELLS
    cells = (_float_cells(np.stack(varying, axis=1).ravel(), fast).reshape(n, -1)
             if varying else None)
    parts, k = [], 0
    for kind, run in itertools.groupby(zip(kinds, columns), key=lambda kc: kc[0]):
        run = [c for _, c in run]
        if kind == 1:
            parts.append(cells[:, k * _CELL:(k + len(run)) * _CELL])
            k += len(run)
        elif kind == 2:
            text = np.frombuffer(b"".join(b"%.17g," % c[0] for c in run), np.uint8)
            parts.append(np.broadcast_to(text, (n, len(text))))
        else:
            parts.extend(map(_text_cells, run))
    # A constant part is a read-only broadcast, so it is never the rows itself.
    rows = parts[0] if len(parts) == 1 and kinds[0] != 2 else np.concatenate(parts, axis=1)
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


def _write_rows(path: Path, header: str, columns: list[np.ndarray]) -> None:
    """Write the header line and the rows of ``columns`` to ``path`` as CSV,
    in blocks of equal numbers of rows, each of about _BLOCK_CELLS cells or
    fewer: a large table has no small last block for '%' to format."""
    n = len(columns[0])
    blocks = max(1, -(-n * len(columns) // _BLOCK_CELLS))
    rows = max(1, -(-n // blocks))
    with open(path, "wb") as out:
        out.write(header.encode() + b"\n")
        for start in range(0, n, rows):
            out.write(_csv_block([column[start:start + rows] for column in columns]))
