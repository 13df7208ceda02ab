"""The verify suites against exact references, at many seeds."""

import pytest

from diracstep import oracle
from diracstep.verify import run_closed_vs_oracle, run_limits

# ``verify`` is run at seeds derived from other seeds, so a check that fails at
# some seed is a failure, not noise.
SEEDS = [12345, 20240802, *range(1, 29)]


@pytest.mark.parametrize("seed", SEEDS)
def test_closed_vs_oracle_passes_at_every_seed(seed):
    result = run_closed_vs_oracle(seed=seed)
    assert result.passed, result.failures[:3]
    # Every error is against Sauter at the same width, at most 10·tol.
    assert result.max_error < 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_limits_passes_at_every_seed(seed):
    result = run_limits(seed=seed)
    assert result.passed, result.failures[:3]
    assert result.max_error < 1e-7


def test_closed_vs_oracle_solves_stay_within_the_oracle_scan_cells(monkeypatch):
    """At the default trials: at least 20 solves, none with a pass of more
    than 4096 cells, the most the benchmark's oracle scan builds."""
    passes = []
    build = oracle._magnus_cells

    def counted(setup, step, counts):
        passes.extend(counts)
        return build(setup, step, counts)

    solves = []
    solve = oracle.integrate_scattering

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(oracle, "_magnus_cells", counted)
    monkeypatch.setattr("diracstep.verify.integrate_scattering", counted_solve)
    for seed in SEEDS:
        solves.clear()
        run_closed_vs_oracle(seed=seed)
        assert len(solves) >= 20
    assert max(passes) <= 4096
