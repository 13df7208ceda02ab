"""1D Dirac step-potential scattering toolkit.

Closed-form Klein-zone scattering for every transmitted-wave convention,
impenetrable-barrier and nonrelativistic limits, wall forces, boundary
condition classification, grid sampling/CSV export, and an independent
Magnus-propagator scattering oracle that cross-checks the closed forms.

The namespace is lazy (PEP 562): ``import diracstep`` loads no submodule,
and a public name or a submodule such as ``diracstep.oracle`` is imported
on first access, so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each submodule with the public names it defines.
_EXPORTS = {
    "cli": (),
    "core": ("EdgePointError", "PhysicalSetup", "Regime", "classify_regime"),
    "gridio": ("GridSample", "sample", "write_csv"),
    "limits": ("LimitKind", "LimitSolution", "edge_limit", "impenetrable_limit",
               "infinite_potential_limit", "nonrelativistic_limit"),
    "matching": ("Convention", "PlaneWaveSolution", "physical_convention"),
    "observables": ("BoundaryCondition", "Observation", "observe"),
    "oracle": ("OracleResult", "SmoothStep", "integrate_scattering", "sauter_log_coefficients"),
    "spinor": ("PlaneWaveState", "Spinor", "apply_hamiltonian", "charge_conjugate", "current",
               "density"),
    "table": ("scatter_table", "solve"),
    "verify": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
