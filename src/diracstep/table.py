"""One setup's state and record, and the array core of ``sweep``.

``solve`` is the one home of the per-setup rule: a setup on a regime edge
takes its limit eigenstate, any other the matched state, by default under
its regime's physical convention.  ``record`` is its row, as ``scatter``
prints it, and ``scatter_table`` gives the same rows for N setups.  An
open-regime row is ``_chain``'s, written once over a namespace of arithmetic
(``core._kinematics`` → ``matching._continuity`` → ``observables._observe``):
Python numbers for ``record``, numpy arrays rounded as CPython rounds for
``scatter_table``.  Edge rows are ``record``'s, of ``limits.edge_limit``.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import defaultdict

import numpy as np

from .core import PhysicalSetup, Regime, _kinematics, classify_regime, kinematics, refusal
from .limits import edge_limit
from .matching import (Convention, PlaneWaveSolution, _continuity, match,
                       physical_convention)
from .observables import _observation, _observe
from .spinor import ARRAY, SCALAR

__all__ = ["record", "scatter_table", "solve"]
_EDGES = (Regime.EDGE_POINT, Regime.EDGE_LOWER)


def _chain(xp, m, v0, e, conv: Convention, evanescent: bool):
    """The record columns of open-regime setups of one convention and one
    operand type, on Python numbers or arrays, and each row's refusal cause:
    0, or the first ``core.refusal`` cause that holds, the last where a value
    of the state or of the row is not finite."""
    (k, kappa, a, b, b_dprime), kinematic_hits = _kinematics(xp, m, v0, e, evanescent)
    (upper, lower, q_t, r, t, t_upper, t_lower), matching_hits = _continuity(
        xp, a, b, b_dprime, kappa, conv, evanescent)
    columns = {"a": a, "b_re": b.real, "b_im": b.imag, "k": k, "kbar_or_kappa": kappa,
               **_observe(xp, a, r, xp.product(-r, a), t, t_upper, t_lower, q_t, v0, evanescent)}
    # Under an evanescent step v_t is NaN by definition.
    skip = ("boundary", "v_t") if evanescent else ("boundary",)
    values = [b_dprime, upper, lower, *(v for name, v in columns.items() if name not in skip)]
    nonfinite = functools.reduce(operator.or_, map(xp.nonfinite, values))
    hits = (*kinematic_hits, *matching_hits, nonfinite)
    return columns, xp.select(hits, list(range(1, len(hits) + 1)), 0)


def solve(setup: PhysicalSetup, conv: Convention | None = None) -> PlaneWaveSolution:
    """The edge state (``limits.edge_limit``) or the matched state of a setup."""
    regime = classify_regime(setup)
    if regime in _EDGES:
        return edge_limit(setup, conv)
    return match(kinematics(setup), conv or physical_convention(regime))


def record(setup: PhysicalSetup, conv: Convention | None = None) -> dict:
    """Every ``scatter_table`` column but ``transition`` for one setup, or its
    refusal: ``_chain``'s on an open regime, the ``edge_limit`` state's on an
    edge; ``continuity`` is the mismatch of the one-sided values at x = 0,
    relative to max(1, |ψ(0⁻)|)."""
    regime = classify_regime(setup)
    m, v0, e = setup.mass_energy, setup.step_height, setup.energy
    if regime in _EDGES:
        sol = edge_limit(setup, conv)
        conv = sol.convention
        # b = k̄/(E − V₀ + mc²) → −∞ at the edge point, 0 at the lower edge
        columns = {"a": sol.a, "b_re": -math.inf if regime is Regime.EDGE_POINT else 0.0,
                   "b_im": 0.0, "k": sol.wave_number, "kbar_or_kappa": 0.0,
                   **_observation(sol, v0)}
    else:
        conv = conv or physical_convention(regime)
        columns, cause = _chain(SCALAR, m, v0, e, conv, regime is Regime.EVANESCENT)
        if cause:
            raise refusal(cause, m, v0, e, conv)
    return {"step_height": v0, "energy": e, "regime": regime.value,
            "convention": conv.value, **columns}


def scatter_table(mass, step_heights, energies, conv: Convention | None) -> dict:
    """Every ``sweep`` column, as a numpy array, for the broadcast setups
    (mass, step height, energy); ``transition`` marks a change of regime
    from the previous row.  ``conv=None`` picks each row's physical
    convention.  A table with refused rows raises the error ``record`` gives
    its first, with the row's index as ``row`` and the number of refused rows
    as ``refused``.
    """
    m, v0, e = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float))
                                     for x in (mass, step_heights, energies)))
    edges = [edge.value for edge in _EDGES]
    with np.errstate(all="ignore"):
        valid = ((m >= 0.0) & np.isfinite(m) & (v0 > 0.0) & np.isfinite(v0)
                 & np.isfinite(e) & (e > m))
        regime = np.select(  # classify_regime
            [v0 == e + m, v0 == e - m, v0 > e + m, v0 < e - m],
            [*edges, Regime.KLEIN_ZONE.value, Regime.TRANSMISSION.value],
            Regime.EVANESCENT.value,
        ).astype(object)
        # With conv=None each open regime's physical convention; edge rows get theirs below.
        convs = np.full(len(e), None if conv is None else conv.value, dtype=object)
        if conv is None:
            for open_regime in (Regime.TRANSMISSION, Regime.EVANESCENT, Regime.KLEIN_ZONE):
                convs[regime == open_regime.value] = physical_convention(open_regime).value
        edge = np.isin(regime, edges)
        evanescent = regime == Regime.EVANESCENT.value
        table = defaultdict(lambda: np.zeros(len(e)), {
            "step_height": v0, "energy": e, "regime": regime,
            "transition": np.concatenate(([0], regime[1:] != regime[:-1])).astype(int),
            "convention": convs, "boundary": np.empty(len(e), dtype=object)})
        cause = np.zeros(len(e), dtype=int)
        open_rows = valid & ~edge
        for c, ev in set(zip(convs[open_rows], evanescent[open_rows].tolist())):
            rows = open_rows & (convs == c) & (evanescent == ev)
            columns, cause[rows] = _chain(ARRAY, m[rows], v0[rows], e[rows], Convention(c), ev)
            for name, column in columns.items():
                table[name][rows] = column
    # Edge and invalid rows with the same setup, bit for bit, share one
    # ``record``; its error is kept for the first of them.
    refused, errors = cause != 0, {}
    special = np.flatnonzero(edge | ~valid)
    rows_of = defaultdict(list)
    bits = np.stack((m, v0, e), axis=1)[special].view(np.int64)
    for i, key in zip(special.tolist(), map(tuple, bits.tolist())):
        rows_of[key].append(i)
    for rows in rows_of.values():
        i = rows[0]
        try:
            row = record(PhysicalSetup(float(m[i]), float(v0[i]), float(e[i])), conv)
        except ValueError as exc:
            refused[rows], errors[i] = True, exc
            continue
        for name in row.keys() - {"step_height", "energy", "regime"}:
            table[name][rows] = row[name]
    if refused.any():
        i = int(np.argmax(refused))
        error = errors.get(i) or refusal(int(cause[i]), float(m[i]), float(v0[i]),
                                         float(e[i]), Convention(convs[i]))
        error.row, error.refused = i, int(refused.sum())
        raise error
    return dict(table)
