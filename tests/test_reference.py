"""Every open-regime column against an exact reference in decimal arithmetic.

The reference takes the binary inputs (mc², V₀, E) exactly and works in
``decimal`` at 50 significant digits.  It shares no code and no arrangement
with ``table._chain``: from k̄² = (E − V₀ − mc²)(E − V₀ + mc²) and
b = k̄/(E − V₀ + mc²) (−iκ/(E − V₀ + mc²) under an evanescent step) it solves
[1, a] + r·[1, −a] = t·[u, l] unscaled, t = 2a/(au + l) and
r = (au − l)/(au + l), and reads R = |r|², T = j_t/2a, ρ(0) = |t|²(|u|² + |l|²),
j(0) = 2Re(t̄ū·tl), v_t = j(0)/ρ(0) and the force −V₀ρ(0).

Bound.  Each column's relative error is at most C·ε·κ, with ε the double
epsilon and κ the setup's condition number, the product of two factors:

* (|au| + |l|)·(1/|au − l| + 1/|au + l|), that of r and t in the 2×2
  solve; it is large where a ± b cancels, for E ≫ mc² in the transmission
  regime and under ``negative`` in the Klein zone;
* 1 + |d|·(1/|d − mc²| + 1/|d + mc²|), that of k̄² formed from the rounded
  d = E − V₀; it is large next to either regime edge.

Under an evanescent step, where T = 0 and v_t is NaN by definition and the
exact j(0) is 0, j(0) is bounded by C·ε·κ·ρ(0) instead.

C = 2.  Measured at this arithmetic: the largest error over ε·κ was 0.87
(the force under ``lower`` in the evanescent band) over the 1000 draws per
regime of ``verify``'s range below, 1.03 (the force under ``main`` in the
evanescent band) over five more seeds of those draws, and 0.80 over
100 000 random setups next to either edge, δ/(E + mc²) log-uniform from
1e-6 to 1e-1, all at mc² = 1 in every open regime under every convention
the regime admits.
"""

import math
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracstep import Convention, PhysicalSetup, Regime, classify_regime
from diracstep.matching import GROWING_UNDER_EVANESCENT
from diracstep.table import record, scatter_table
from diracstep.verify import draw_setup

C = 2.0
EPS = 2.0 ** -52
CHECKED = ("a", "b", "k", "kbar_or_kappa", "r", "t", "R", "T", "rho0", "j0", "v_t", "force")


class Z:
    """A complex number of two Decimals."""

    def __init__(self, re, im=0):
        self.re, self.im = Decimal(re), Decimal(im)

    def __add__(self, other):
        return Z(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return Z(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return Z(-self.re, -self.im)

    def __mul__(self, other):
        return Z(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        n = other.norm()
        return Z((self.re * other.re + self.im * other.im) / n,
                 (self.im * other.re - self.re * other.im) / n)

    def conj(self):
        return Z(self.re, -self.im)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def abs(self):
        return self.norm().sqrt()


def reference(m: float, v0: float, e: float, conv: Convention):
    """The exact columns of the setup, as Decimals and Z, and its κ."""
    with localcontext(Context(prec=50)):
        m, v0, e = Decimal(m), Decimal(v0), Decimal(e)
        a = ((e - m) / (e + m)).sqrt()
        d = e - v0
        kbar2 = (d - m) * (d + m)
        kappa = abs(kbar2).sqrt()
        b = Z(0, -kappa / (d + m)) if kbar2 < 0 else Z(kappa / (d + m))
        u, l = {Convention.MAIN: (Z(1), -b), Convention.LOWER_COMPONENT: (-Z(1) / b, Z(1)),
                Convention.TRADITIONAL: (Z(1), b), Convention.NEGATIVE_ENERGY: (-b, Z(1))}[conv]
        au = Z(a) * u
        t = Z(2 * a) / (au + l)
        r = (au - l) / (au + l)
        rho0 = (t * u).norm() + (t * l).norm()
        j0 = 2 * ((t * u).conj() * (t * l)).re
        propagating = kbar2 > 0
        exact = {"a": a, "b": b, "k": ((e - m) * (e + m)).sqrt(), "kbar_or_kappa": kappa,
                 "r": r, "t": t, "R": r.norm(), "T": j0 / (2 * a) if propagating else 0,
                 "rho0": rho0, "j0": j0 if propagating else 0,
                 "v_t": j0 / rho0 if propagating else None,
                 "force": -v0 * rho0}
        solve = (au.abs() + l.abs()) * (1 / (au - l).abs() + 1 / (au + l).abs())
        edges = 1 + abs(d) * (1 / abs(d - m) + 1 / abs(d + m))
        return exact, float(solve * edges)


def _worst(m, v0, e, conv, row):
    """The largest error of the row's columns over ε·κ, and its column."""
    exact, kappa = reference(m, v0, e, conv)
    row = {**row, "b": complex(row["b_re"], row["b_im"]), "r": complex(row["r_re"], row["r_im"]),
           "t": complex(row["t_re"], row["t_im"])}
    worst = (0.0, "")
    with localcontext(Context(prec=50)):
        for name in CHECKED:
            value, ref = row[name], exact[name]
            if ref is None:
                assert math.isnan(value), name
                continue
            ref = ref if isinstance(ref, Z) else Z(ref)
            if name == "T" and ref.norm() == 0:  # under an evanescent step
                assert value == 0.0
                continue
            # The evanescent j(0) = 0 against ρ(0); every other column against itself.
            scale = exact["rho0"] if name == "j0" and ref.norm() == 0 else ref.abs()
            ratio = float((Z(value.real, value.imag) - ref).abs() / scale) / (EPS * kappa)
            worst = max(worst, (ratio, name))
    return worst


def _conventions(regime):
    growing = GROWING_UNDER_EVANESCENT if regime is Regime.EVANESCENT else ()
    return [conv for conv in Convention if conv not in growing]


OPEN = (Regime.KLEIN_ZONE, Regime.TRANSMISSION, Regime.EVANESCENT)


@pytest.mark.parametrize("regime", OPEN, ids=lambda r: r.value)
def test_table_matches_the_reference_over_verifys_draws(regime):
    rng = np.random.default_rng(2021)
    setups = [draw_setup(rng, regime) for _ in range(1000)]
    v0 = [s.step_height for s in setups]
    e = [s.energy for s in setups]
    for conv in _conventions(regime):
        table = scatter_table(1.0, v0, e, conv)
        names = [name for name in table if name not in ("regime", "convention", "boundary")]
        columns = {name: table[name].tolist() for name in names}
        for i, setup in enumerate(setups):
            row = {name: columns[name][i] for name in names}
            ratio, name = _worst(1.0, setup.step_height, setup.energy, conv, row)
            assert ratio <= C, (conv.value, setup, name, ratio)


@st.composite
def edge_setups(draw):
    """mc² = 1, E log-uniform over verify's range, V₀ at δ from either edge E ∓ mc²,
    on either side, with δ/(E + mc²) from 1e-6 to 1e-1."""
    e = math.exp(draw(st.floats(math.log(1.0 + 1e-3), math.log(1e3))))
    edge = e + draw(st.sampled_from((-1.0, 1.0)))
    delta = (e + 1.0) * 10.0 ** draw(st.floats(-6.0, -1.0))
    v0 = edge + draw(st.sampled_from((-1.0, 1.0))) * delta
    assume(v0 > 0.0)
    regime = classify_regime(PhysicalSetup(1.0, v0, e))
    return v0, e, draw(st.sampled_from(_conventions(regime)))


@settings(max_examples=500, deadline=None)
@given(edge_setups())
def test_record_matches_the_reference_next_to_either_edge(case):
    v0, e, conv = case
    ratio, name = _worst(1.0, v0, e, conv, record(PhysicalSetup(1.0, v0, e), conv))
    assert ratio <= C, (conv.value, v0, e, name, ratio)
