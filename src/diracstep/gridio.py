"""Spatial sampling of solutions and deterministic CSV export.

``sample`` evaluates the whole grid on numpy arrays in one pass, through
the ``left_values`` / ``right_values`` evaluators of
``matching.PlaneWaveSolution``, the one state type of matched and limit
solutions.  Each equals its scalar counterpart (``left_value_at`` /
``right_value_at``) bit for bit, and so do ``rho`` and ``j`` from
``spinor.densities`` / ``currents``: a sample holds exactly the values a
per-point loop would give.  ``write_csv`` formats each row with a single
%-format.

Output contract: a CSV with header ``x,phi_re,phi_im,chi_re,chi_im,rho,j``
(17 significant digits, '\\n' line endings, byte-identical for identical
inputs) plus a JSON metadata sidecar named ``<basename>.meta.json`` with
keys {mass_energy, step_height, energy, convention, regime,
generator_version}; a limit state's regime is its kind, its step height the
edge V₀ it sits on (null at the hard wall, ∞).  Complex components are stored
as separate real and imaginary columns so any plotting tool can consume them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .limits import LimitSolution
from .matching import PlaneWaveSolution
from .spinor import currents, densities

__all__ = ["GridSample", "sample", "write_csv"]

CSV_HEADER = "x,phi_re,phi_im,chi_re,chi_im,rho,j"
# One %-format per row; "%.17g" gives the same bytes as f"{v:.17g}".
_ROW = ",".join(["%.17g"] * 7)


@dataclass(frozen=True)
class GridSample:
    """Sampled solution on an ordered grid.

    At x = 0 two entries are recorded, the left-branch and right-branch
    one-sided values (identical whenever the solution is continuous).
    rho and j are recomputed from the sampled components, never stored
    independently.
    """

    xs: tuple[float, ...]
    phi: tuple[complex, ...]
    chi: tuple[complex, ...]
    rho: tuple[float, ...]
    j: tuple[float, ...]
    metadata: dict


def _metadata(solution) -> dict:
    limit = isinstance(solution, LimitSolution)
    source = solution if limit else solution.setup  # holds mass_energy and energy
    regime = solution.kind if limit else solution.kinematics.regime
    step_height = solution.step_height if solution.step_height < math.inf else None
    return {"mass_energy": source.mass_energy, "step_height": step_height,
            "energy": source.energy, "convention": solution.convention.value,
            "regime": regime.value, "generator_version": __version__}


def sample(
    solution: PlaneWaveSolution,
    x_min: float,
    x_max: float,
    n_points: int,
) -> GridSample:
    """Sample a solution on n_points positions spanning [x_min, x_max].

    When the range straddles the step the grid is snapped to contain
    x = 0 exactly and both one-sided values are recorded there.
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
    step = (x_max - x_min) / (n_points - 1)
    grid = x_min + np.arange(n_points) * step
    grid[-1] = x_max
    if x_min <= 0.0 <= x_max and not (grid == 0.0).any():
        grid[np.argmin(np.abs(grid))] = 0.0

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

    return GridSample(
        xs=tuple(xs.tolist()),
        phi=tuple(phi.tolist()),
        chi=tuple(chi.tolist()),
        rho=tuple(densities(phi, chi).tolist()),
        j=tuple(currents(phi, chi).tolist()),
        metadata=_metadata(solution),
    )


def write_csv(gs: GridSample, path: str | Path) -> None:
    """Write the sample as CSV plus its JSON metadata sidecar.

    Byte-deterministic: fixed 17-significant-digit formatting, '\\n'
    endings, sorted sidecar keys.
    """
    path = Path(path)
    lines = [CSV_HEADER]
    lines.extend(
        _ROW % (x, p.real, p.imag, c.real, c.imag, r, cur)
        for x, p, c, r, cur in zip(gs.xs, gs.phi, gs.chi, gs.rho, gs.j)
    )
    try:
        path.write_text("\n".join(lines) + "\n", newline="\n")
        sidecar = path.with_name(path.stem + ".meta.json")
        sidecar.write_text(
            json.dumps(gs.metadata, sort_keys=True, indent=2) + "\n", newline="\n"
        )
    except OSError as exc:
        raise OSError(f"cannot write sample to {path}: {exc}") from exc
