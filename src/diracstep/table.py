"""One setup's state and record, and the array core of ``sweep``.

``_resolved`` is the one per-setup rule, for ``solve``'s state and
``record``'s row alike: on a regime edge the limit eigenstate, elsewhere
``_chain``'s values, by default under the regime's physical convention.
``_chain`` is the one open-regime route, written once over a namespace of
arithmetic (``core._kinematics`` → ``matching._continuity`` →
``observables._observe``): Python numbers for one setup, numpy arrays
rounded as CPython rounds for ``scatter_table``, which gives ``record``'s
rows for N setups, with fixed-width str label columns indexed by integer
codes.  Edge rows are ``record``'s, of ``limits.edge_limit``.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import defaultdict

import numpy as np

from .core import _REGIMES, PhysicalSetup, Regime, _kinematics, _regime, classify_regime, refusal
from .limits import edge_limit
from .matching import Convention, PlaneWaveSolution, _continuity, physical_convention
from .observables import BoundaryCondition, _observation, _observe
from .spinor import ARRAY, SCALAR

__all__ = ["record", "scatter_table", "solve"]
_EDGES = (Regime.EDGE_POINT, Regime.EDGE_LOWER)


def _chain(xp, m, v0, e, conv: Convention, evanescent: bool):
    """The record columns of open-regime setups of one convention and one
    operand type, on Python numbers or arrays; k, a and ``_continuity``'s
    values, the state's; and each row's refusal cause: 0, or the first that
    holds, the last where a value of the state or of the row is not finite."""
    (k, kappa, a, b, b_dprime), kbar_zero = _kinematics(xp, m, v0, e, evanescent)
    values, matching_hits = _continuity(xp, a, b, b_dprime, kappa, conv, evanescent)
    upper, lower, q_t, r, t, t_upper, t_lower = values
    columns = {"a": a, "b_re": b.real, "b_im": b.imag, "k": k, "kbar_or_kappa": kappa,
               **_observe(xp, a, r, xp.product(-r, a), t, t_upper, t_lower, q_t, v0, evanescent)}
    # Under an evanescent step v_t is NaN by definition.
    skip = ("boundary", "v_t") if evanescent else ("boundary",)
    checked = [b_dprime, upper, lower, *(v for name, v in columns.items() if name not in skip)]
    nonfinite = functools.reduce(operator.or_, map(xp.nonfinite, checked))
    hits = (kbar_zero, *matching_hits, nonfinite)
    return columns, (k, a, values), xp.select(hits, list(range(1, len(hits) + 1)), 0)


def _resolved(setup: PhysicalSetup, conv: Convention | None):
    """A setup's regime, its convention (by default its regime's) and on an
    edge its ``edge_limit`` state, else ``_chain``'s columns and state values
    on Python numbers, or the ``core.refusal`` of its first cause."""
    regime = classify_regime(setup)
    if regime in _EDGES:
        state = edge_limit(setup, conv)
        return regime, state.convention, state
    conv = conv or physical_convention(regime)
    m, v0, e = setup.mass_energy, setup.step_height, setup.energy
    columns, state, cause = _chain(SCALAR, m, v0, e, conv, regime is Regime.EVANESCENT)
    if cause:
        raise refusal(cause, m, v0, e, conv)
    return regime, conv, (columns, state)


def solve(setup: PhysicalSetup, conv: Convention | None = None) -> PlaneWaveSolution:
    """The edge state (``limits.edge_limit``) or the matched state of a setup,
    refused where ``record`` refuses it."""
    regime, conv, found = _resolved(setup, conv)
    if regime in _EDGES:
        return found
    return PlaneWaveSolution._continued(*found[1], conv, **vars(setup))


def record(setup: PhysicalSetup, conv: Convention | None = None) -> dict:
    """Every ``scatter_table`` column but ``transition`` for one setup, or its
    refusal: ``_chain``'s on an open regime, the ``edge_limit`` state's on an
    edge; ``continuity`` is the mismatch of the one-sided values at x = 0,
    relative to max(1, |ψ(0⁻)|)."""
    regime, conv, found = _resolved(setup, conv)
    if regime in _EDGES:
        # b = k̄/(E − V₀ + mc²) → −∞ at the edge point, 0 at the lower edge
        columns = {"a": found.a, "b_re": -math.inf if regime is Regime.EDGE_POINT else 0.0,
                   "b_im": 0.0, "k": found.wave_number, "kbar_or_kappa": 0.0,
                   **_observation(found)}
    else:
        columns = found[0]
    return {"step_height": setup.step_height, "energy": setup.energy, "regime": regime.value,
            "convention": conv.value, **columns}


def _names(members) -> np.ndarray:
    """The values of enum members as a str array, as wide as the longest."""
    return np.array([member.value for member in members])


# Name tables of the label columns, indexed by integer codes: a regime by
# ``core._regime``'s index into ``_REGIMES``, a convention by its place in
# ``Convention``.  Every value of an enum fits its column.
_REGIME_NAMES = _names(_REGIMES)
_CONVENTIONS = tuple(Convention)
_CONVENTION_NAMES = _names(Convention)
_BOUNDARY_DTYPE = _names(BoundaryCondition).dtype
_IS_EDGE = np.array([regime in _EDGES for regime in _REGIMES])
_EVANESCENT = _REGIMES.index(Regime.EVANESCENT)
# Each regime's physical convention; an edge row takes its state's (any here).
_PHYSICAL = np.array([_CONVENTIONS.index(physical_convention(regime))
                      if regime not in _EDGES else 0 for regime in _REGIMES])


def scatter_table(mass, step_heights, energies, conv: Convention | None) -> dict:
    """Every ``sweep`` column, as a numpy array, for the broadcast setups
    (mass, step height, energy); ``transition`` marks a change of regime
    from the previous row.  ``conv=None`` picks each row's physical
    convention.  A table with refused rows raises the error ``record`` gives
    its first, with the row's index as ``row`` and the number of refused rows
    as ``refused``.

    Rows are classified, grouped and compared on integer codes.  The label
    columns ``regime``, ``convention`` and ``boundary`` are fixed-width str
    arrays taken from name tables, and ``transition`` an integer column, so
    no column holds a Python object per row.
    """
    m, v0, e = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float))
                                     for x in (mass, step_heights, energies)))
    with np.errstate(all="ignore"):
        valid = ((m >= 0.0) & np.isfinite(m) & (v0 > 0.0) & np.isfinite(v0)
                 & np.isfinite(e) & (e > m))
        regime = _regime(ARRAY, m, v0, e)
        # With conv=None each open regime's physical convention; edge rows get theirs below.
        convs = _PHYSICAL[regime] if conv is None else np.full(len(e), _CONVENTIONS.index(conv))
        edge = _IS_EDGE[regime]
        evanescent = regime == _EVANESCENT
        table = defaultdict(lambda: np.zeros(len(e)), {
            "step_height": v0, "energy": e, "regime": _REGIME_NAMES[regime],
            "transition": np.concatenate(([0], regime[1:] != regime[:-1])).astype(int),
            "convention": _CONVENTION_NAMES[convs],
            "boundary": np.zeros(len(e), _BOUNDARY_DTYPE)})
        cause = np.zeros(len(e), dtype=int)
        open_rows = valid & ~edge
        # One group per (convention, evanescent) pair among the open rows.
        group = 2 * convs + evanescent
        for g in np.flatnonzero(np.bincount(group[open_rows])).tolist():
            rows = open_rows & (group == g)
            columns, _, cause[rows] = _chain(ARRAY, m[rows], v0[rows], e[rows],
                                             _CONVENTIONS[g // 2], bool(g % 2))
            for name, column in columns.items():
                table[name][rows] = column
    # ``record`` fills each edge row; an invalid row is refused by its
    # ``PhysicalSetup``, whose error only the first needs.
    refused, errors = (cause != 0) | ~valid, {}
    for i in np.concatenate((np.flatnonzero(edge & valid), np.flatnonzero(~valid)[:1])).tolist():
        try:
            row = record(PhysicalSetup(float(m[i]), float(v0[i]), float(e[i])), conv)
        except ValueError as exc:
            refused[i], errors[i] = True, exc
            continue
        for name in row.keys() - {"step_height", "energy", "regime"}:
            table[name][i] = row[name]
    if refused.any():
        i = int(np.argmax(refused))
        error = errors.get(i) or refusal(int(cause[i]), float(m[i]), float(v0[i]),
                                         float(e[i]), _CONVENTIONS[convs[i]])
        error.row, error.refused = i, int(refused.sum())
        raise error
    return dict(table)
