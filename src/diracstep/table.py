"""One setup's state and record, and the array core of ``sweep``.

``solve`` is the one home of the per-setup rule: a setup on a regime edge
takes its limit eigenstate, any other the matched state, by default under
its regime's physical convention.  ``record`` is its row, as ``scatter``
prints it.  ``scatter_table`` gives the same rows for N setups, bit for bit:
it runs ``kinematics`` → ``match`` → ``coefficients`` → ``classify_boundary``
on numpy arrays, one operation for each of the chain's, with the chain's
operand types (complex only in the evanescent band, which keeps the signed
zeros), transmitted column and CPython's rounding (``spinor``'s array
arithmetic).  Edge rows are ``record``'s.  Refused rows are found as masks,
and ``record`` of the first raises the chain's own error.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .boundary import TOLERANCE, BoundaryCondition, classify_boundary
from .core import PhysicalSetup, Regime, classify_regime, kinematics
from .forces import external_force_mean
from .limits import edge_limit
from .matching import (GROWING_UNDER_EVANESCENT, Convention, PlaneWaveSolution, match,
                       physical_convention, transmitted_column)
from .observables import coefficients
from .spinor import (complex_product, complex_quotient, currents, densities, magnitude,
                     product, quotient)

__all__ = ["record", "scatter_table", "solve"]
_EDGES = (Regime.EDGE_POINT, Regime.EDGE_LOWER)


def _open_rows(m, v0, e, conv: Convention, evanescent: bool):
    """The chain on open-regime rows of one convention and one operand type:
    their columns and the rows it refuses."""
    d = e - v0
    k2 = (e - m) * (e + m)
    a = np.sqrt((e - m) / (e + m))
    kbar2 = (d - m) * (d + m)
    kappa = np.sqrt(np.abs(kbar2))
    if evanescent:
        k_t = complex_product(-1j, kappa)
        b = complex_quotient(k_t, d + m)
    else:
        k_t = kappa.astype(complex)
        b = kappa / (d + m)
    b_dprime = -quotient(1.0, b)
    refused = (k2 == np.inf) | (kbar2 == np.inf) | (kbar2 == 0.0) | (d + m == 0.0)
    refused |= b == 0.0
    # match
    upper, lower, q_t = transmitted_column(conv, b, b_dprime, k_t)
    scale = np.maximum(magnitude(upper), magnitude(lower))
    u_hat, l_hat = quotient(upper, scale), quotient(lower, scale)
    det = product(u_hat, a) + l_hat
    t = complex_quotient(np.asarray(quotient(2.0 * a, det), dtype=complex), scale)
    r = np.asarray(quotient(product(u_hat, a) - l_hat, det), dtype=complex)
    t_upper, t_lower = complex_product(t, upper), complex_product(t, lower)
    r_lower = complex_product(-r, a)
    # coefficients, with psi(0) from the transmitted wave's value_at(0.0)
    j_in = currents(1.0, a)
    phase = np.exp(complex_product(complex_product(1j, q_t), 0.0))
    psi_upper, psi_lower = complex_product(phase, t_upper), complex_product(phase, t_lower)
    rho0 = densities(psi_upper, psi_lower)
    # continuity at x = 0: psi(0-) = [1 + r, a + r_lower] against psi(0)
    left_upper, left_lower = 1.0 + r, a + r_lower
    residual = np.maximum(magnitude(left_upper - psi_upper), magnitude(left_lower - psi_lower))
    left_scale = np.maximum(np.maximum(1.0, magnitude(left_upper)), magnitude(left_lower))
    if evanescent:
        T, v_t = np.zeros_like(a), np.full_like(a, np.nan)
    else:
        j_t, rho_t = currents(t_upper, t_lower), densities(t_upper, t_lower)
        T, v_t = j_t / j_in, j_t / rho_t
        refused |= rho_t == 0.0
    # classify_boundary, whose scale ** 2 overflows past ~1.3e154
    sol_scale = np.maximum.reduce([
        np.maximum(1.0, np.abs(a)),
        np.maximum(magnitude(r), magnitude(r_lower)),
        np.maximum(magnitude(t_upper), magnitude(t_lower)),
    ])
    upper_zero = magnitude(psi_upper) < TOLERANCE * sol_scale
    lower_zero = magnitude(psi_lower) < TOLERANCE * sol_scale
    boundary = np.where(
        upper_zero == lower_zero, BoundaryCondition.NONE.value,
        np.where(upper_zero, BoundaryCondition.DIRICHLET_UPPER.value,
                 BoundaryCondition.DIRICHLET_LOWER.value))
    for spinor_part in (upper, lower, r, r_lower, t_upper, t_lower, psi_upper, psi_lower):
        refused |= ~np.isfinite(spinor_part)
    refused |= (det == 0) | (j_in == 0.0) | (np.float_power(sol_scale, 2.0) == np.inf)
    columns = {"a": a, "b_re": b.real, "b_im": b.imag, "k": np.sqrt(k2),
               "kbar_or_kappa": kappa, "r_re": r.real, "r_im": r.imag,
               "t_re": t.real, "t_im": t.imag, "T": T, "rho0": rho0, "v_t": v_t,
               "R": np.abs(currents(r, r_lower)) / np.abs(j_in),
               "j0": currents(psi_upper, psi_lower), "boundary": boundary,
               "continuity": residual / left_scale, "force": -v0 * rho0}
    return columns, refused


def solve(setup: PhysicalSetup, conv: Convention | None = None) -> PlaneWaveSolution:
    """The edge state (``limits.edge_limit``) or the matched state of a setup."""
    regime = classify_regime(setup)
    if regime in _EDGES:
        return edge_limit(setup, conv)
    return match(kinematics(setup), conv or physical_convention(regime))


def record(setup: PhysicalSetup, conv: Convention | None = None) -> dict:
    """Every ``scatter_table`` column but ``transition`` for one setup, from
    ``solve``, or the chain's error; ``continuity`` is the mismatch of the
    one-sided values at x = 0, relative to max(1, |ψ(0⁻)|)."""
    sol, regime = solve(setup, conv), classify_regime(setup)
    if regime in _EDGES:  # b = k̄/(E − V₀ + mc²) → −∞ at the edge point, 0 at the lower
        b, kbar_or_kappa = -np.inf if regime is Regime.EDGE_POINT else 0.0, 0.0
    else:
        b, kbar_or_kappa = sol.kinematics.b, sol.kinematics.kbar_or_kappa
    columns = {  # a and k of the incident wave [1, a]·e^{ikx}
        "step_height": setup.step_height, "energy": setup.energy, "regime": regime.value,
        "convention": sol.convention.value, "a": sol.incident.amplitude.lower,
        "b_re": b.real, "b_im": b.imag, "k": sol.incident.wave_number,
        "kbar_or_kappa": kbar_or_kappa, "r_re": sol.r.real, "r_im": sol.r.imag,
        "t_re": sol.t.real, "t_im": sol.t.imag, **vars(coefficients(sol)),
        "force": external_force_mean(sol),
        "boundary": classify_boundary(sol).classification.value}
    left, right = sol.left_value_at(0.0), sol.spinor_at(0.0)
    residual = max(abs(left.upper - right.upper), abs(left.lower - right.lower))
    columns["continuity"] = residual / max(1.0, abs(left.upper), abs(left.lower))
    return columns


def scatter_table(mass, step_heights, energies, conv: Convention | None) -> dict:
    """Every ``sweep`` column, as a numpy array, for the broadcast setups
    (mass, step height, energy); ``transition`` marks a change of regime
    from the previous row.  ``conv=None`` picks each row's physical
    convention.  The first row the scalar chain refuses raises its error.
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
        growing = [c.value for c in GROWING_UNDER_EVANESCENT]
        refused = ~valid | (evanescent & np.isin(convs, growing))
        table = defaultdict(lambda: np.zeros(len(e)), {
            "step_height": v0, "energy": e, "regime": regime,
            "transition": np.concatenate(([0], regime[1:] != regime[:-1])).astype(int),
            "convention": convs, "boundary": np.empty(len(e), dtype=object)})
        open_rows = ~edge & ~refused
        for c in set(convs[open_rows]):
            for ev in (False, True):
                rows = open_rows & (convs == c) & (evanescent == ev)
                if rows.any():
                    columns, refused[rows] = _open_rows(
                        m[rows], v0[rows], e[rows], Convention(c), ev)
                    for name, column in columns.items():
                        table[name][rows] = column
    # Rows with the same setup, bit for bit, share one scalar evaluation, in
    # the order of their first rows so that the first refusal still raises.
    special = np.flatnonzero(refused | edge)
    rows_of = defaultdict(list)
    bits = np.stack((m, v0, e), axis=1)[special].view(np.int64)
    for i, key in zip(special.tolist(), map(tuple, bits.tolist())):
        rows_of[key].append(i)
    for rows in rows_of.values():
        i = rows[0]
        setup = PhysicalSetup(float(m[i]), float(v0[i]), float(e[i]))
        row = record(setup, conv)
        if refused[i]:
            raise RuntimeError(f"array core refused a row the scalar chain accepts: {setup}")
        for name in row.keys() - {"step_height", "energy", "regime"}:
            table[name][rows] = row[name]
    return dict(table)
