"""Every state carries the energies it solves, and ``observe`` reads them.

``golden/observations.txt`` holds ``repr(observe(state))`` of states from
every constructor under every convention that builds one, at setups drawn
with a fixed seed across 600 decades of scale, as the two-argument reader
that ``observe`` replaced gave them; the nonrelativistic states once refused
for their unit, where 2mc2 E_kin underflowed, are new.  Regenerate it, after
a deliberate output change only, with
``PYTHONPATH=src python tests/test_state_energies.py``.
"""

import math
import random
import sys
from pathlib import Path

import pytest

from diracstep import (
    Convention,
    PhysicalSetup,
    Regime,
    classify_regime,
    edge_limit,
    impenetrable_limit,
    infinite_potential_limit,
    nonrelativistic_limit,
    observe,
    solve,
)

GOLDEN = Path(__file__).parent / "golden" / "observations.txt"


def _setups(seed: int, n: int):
    """(mc2, E, V0 in an open regime, E_kin) at random scales, a tenth massless."""
    rng = random.Random(seed)
    for _ in range(n):
        scale = 10.0 ** rng.uniform(-300.0, 300.0)
        m = 0.0 if rng.random() < 0.1 else scale * rng.uniform(0.01, 2.0)
        e = m + scale * 10.0 ** rng.uniform(-8.0, 3.0)
        v0 = rng.choice([(e + m) * (1.0 + 10.0 ** rng.uniform(-12.0, 2.0)),
                         (e - m) * rng.uniform(0.01, 0.999), rng.uniform(e - m, e + m)])
        yield m, e, v0, scale * 10.0 ** rng.uniform(-12.0, 0.0)


def _observations(seed: int = 3401, n: int = 12):
    """(label, observation) of every constructor's state at each setup; a
    refused state is left out, and so are the matched states of a setup that
    falls on an edge, where ``solve`` gives the edge state."""
    for i, (m, e, v0, e_kin) in enumerate(_setups(seed, n)):
        setup = PhysicalSetup(m, v0, e)
        edge = classify_regime(setup) in (Regime.EDGE_POINT, Regime.EDGE_LOWER)
        builders = [(f"match {conv.value}", lambda c=conv: solve(setup, c))
                    for conv in Convention if not edge]
        builders += [(f"edge {sign} {conv and conv.value}", lambda c=conv, v=v: edge_limit(
            PhysicalSetup(m, v, e), c)) for sign, v in (("+", e + m), ("-", e - m))
            for conv in (None, *Convention)]
        builders += [(f"impenetrable {conv.value}", lambda c=conv: impenetrable_limit(e, m, c))
                     for conv in Convention]
        builders += [(f"nonrel {conv.value}", lambda c=conv: nonrelativistic_limit(e_kin, m, c))
                     for conv in (Convention.MAIN, Convention.NEGATIVE_ENERGY)]
        for label, build in builders:
            try:
                yield f"{i} {label}", observe(build())
            except ValueError:  # refused: degenerate, growing, singular or not in range
                pass
        for conv in Convention:
            try:
                yield f"{i} infinite {conv.value}", observe(infinite_potential_limit(e, m, conv))
            except ValueError:
                pass


def _transcript() -> str:
    return "".join(f"{label} {obs!r}\n" for label, obs in _observations())


def test_observe_reads_every_state_as_before():
    assert _transcript() == GOLDEN.read_text()


@pytest.mark.parametrize("seed", range(5))
def test_every_constructor_carries_the_energies_it_solves(seed):
    """solve and edge_limit carry their setup's mc2, V0 and E, the
    impenetrable limit V0 = E + mc2, a nonrelativistic limit its E_kin at a
    hard wall (V0 = inf), and the infinite-step state V0 = inf."""
    infinite = 0
    for m, e, v0, e_kin in _setups(seed, 20):
        for conv in Convention:
            edges = [PhysicalSetup(m, e + m, e)] + ([PhysicalSetup(m, e - m, e)] if m else [])
            for setup, construct in ((PhysicalSetup(m, v0, e), lambda s: solve(s, conv)),
                                     *((edge, lambda s: edge_limit(s, conv)) for edge in edges)):
                try:
                    state = construct(setup)
                except ValueError:
                    continue
                assert (state.mass_energy, state.step_height, state.energy) == (
                    setup.mass_energy, setup.step_height, setup.energy)
            for build, carried in (
                    (lambda c=conv: impenetrable_limit(e, m, c), (m, e + m, e)),
                    (lambda c=conv: nonrelativistic_limit(e_kin, m, c), (m, math.inf, e_kin)),
                    (lambda c=conv: infinite_potential_limit(e, m, c), (m, math.inf, e))):
                try:
                    state = build()
                except ValueError:
                    continue
                assert (state.mass_energy, state.step_height, state.energy) == carried
                infinite += not hasattr(state, "kind")  # the plain infinite-step state
    assert infinite


if __name__ == "__main__":
    GOLDEN.write_text(_transcript(), newline="\n")
    sys.exit(0)
