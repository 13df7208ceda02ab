"""1D Dirac step-potential scattering toolkit.

Closed-form Klein-zone scattering for every transmitted-wave convention,
impenetrable-barrier and nonrelativistic limits, wall forces, boundary
condition classification, grid sampling/CSV export, and an independent
Magnus-propagator scattering oracle that cross-checks the closed forms.
"""

__version__ = "0.1.0"

from .boundary import BoundaryCondition, BoundaryReport, classify_boundary
from .core import (
    EdgePointError,
    Kinematics,
    PhysicalSetup,
    Regime,
    classify_regime,
    kinematics,
)
from .forces import (
    ForceReport,
    external_force_mean,
    momentum_flux_bracket,
    nr_boundary_force_dirichlet,
    nr_boundary_force_neumann,
)
from .gridio import GridSample, sample, write_csv
from .limits import (
    InfiniteStepLimit,
    LimitKind,
    LimitSolution,
    edge_limit,
    impenetrable_limit,
    infinite_potential_limit,
    nonrelativistic_limit,
)
from .matching import (
    Convention,
    PlaneWaveSolution,
    ScatteringSolution,
    match,
    physical_convention,
)
from .observables import (
    ObservableSet,
    coefficients,
    density_current_at_origin,
    transmitted_velocity,
)
from .oracle import OracleResult, SmoothStep, integrate_scattering, sauter_log_coefficients
from .spinor import (
    PlaneWaveState,
    Side,
    Spinor,
    apply_hamiltonian,
    charge_conjugate,
    current,
    density,
)
from .table import scatter_table

__all__ = [
    "__version__",
    "BoundaryCondition",
    "BoundaryReport",
    "Convention",
    "EdgePointError",
    "ForceReport",
    "GridSample",
    "InfiniteStepLimit",
    "Kinematics",
    "LimitKind",
    "LimitSolution",
    "ObservableSet",
    "OracleResult",
    "PhysicalSetup",
    "PlaneWaveSolution",
    "PlaneWaveState",
    "Regime",
    "ScatteringSolution",
    "Side",
    "SmoothStep",
    "Spinor",
    "apply_hamiltonian",
    "charge_conjugate",
    "classify_boundary",
    "classify_regime",
    "coefficients",
    "current",
    "density",
    "density_current_at_origin",
    "edge_limit",
    "external_force_mean",
    "impenetrable_limit",
    "infinite_potential_limit",
    "integrate_scattering",
    "kinematics",
    "match",
    "momentum_flux_bracket",
    "nonrelativistic_limit",
    "nr_boundary_force_dirichlet",
    "nr_boundary_force_neumann",
    "physical_convention",
    "sample",
    "scatter_table",
    "sauter_log_coefficients",
    "transmitted_velocity",
    "write_csv",
]
