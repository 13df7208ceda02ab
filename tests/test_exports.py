"""The package's public names: each export resolves to its defining module,
on first access (``import diracstep`` loads no submodule); the scalar
chain's modules import no numpy; no source or test file imports a package
that CI does not install; README's Python example gives the values its
comments state."""

import ast
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import diracstep

MODULES = [importlib.import_module(f"diracstep.{info.name}")
           for info in pkgutil.iter_modules(diracstep.__path__)]


@pytest.mark.parametrize("name", [n for n in diracstep.__all__ if n != "__version__"])
def test_package_export_is_listed_by_its_defining_module(name):
    obj = getattr(diracstep, name)
    module = importlib.import_module(obj.__module__)
    assert getattr(module, name) is obj
    assert name in module.__all__


PUBLIC_NAMES = {
    "__version__", "BoundaryCondition", "Convention", "EdgePointError", "GridSample",
    "LimitKind", "LimitSolution", "Observation", "OracleResult", "PhysicalSetup",
    "PlaneWaveSolution", "PlaneWaveState", "Regime", "SmoothStep", "Spinor",
    "apply_hamiltonian", "charge_conjugate", "classify_regime", "current", "density",
    "edge_limit", "impenetrable_limit", "infinite_potential_limit", "integrate_scattering",
    "nonrelativistic_limit", "observe",
    "physical_convention", "sample", "scatter_table", "sauter_log_coefficients", "solve",
    "write_csv",
}

_LAZY_NAMESPACE = """
import importlib, json, sys
import diracstep
report = {"loaded_on_import": sorted(m for m in sys.modules if m.startswith("diracstep."))}
report["all"] = list(diracstep.__all__)
# As the benchmark worker reads the oracle: the submodule through the package,
# after importing the command line.
import diracstep.cli
report["oracle"] = (diracstep.oracle.integrate_scattering
                    is importlib.import_module("diracstep.oracle").integrate_scattering)
report["resolves"] = {
    name: getattr(diracstep, name)
    is getattr(importlib.import_module(getattr(diracstep, name).__module__), name)
    for name in diracstep.__all__ if name != "__version__"
}
star = {}
exec("from diracstep import *", star)
report["star"] = sorted(name for name in diracstep.__all__ if name in star)
report["dir"] = sorted(set(diracstep.__all__) - set(dir(diracstep)))
try:
    diracstep.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
print(json.dumps(report))
"""


def test_package_namespace_is_lazy():
    # A fresh interpreter: this test session has imported every module.
    src = str(Path(diracstep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _LAZY_NAMESPACE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(done.stdout)
    assert report["loaded_on_import"] == []
    assert set(report["all"]) == PUBLIC_NAMES
    assert len(report["all"]) == len(PUBLIC_NAMES)
    assert report["oracle"]
    assert [name for name, same in report["resolves"].items() if not same] == []
    assert report["star"] == sorted(PUBLIC_NAMES)
    assert report["dir"] == []
    assert report["unknown"] == "module 'diracstep' has no attribute 'no_such_name'"


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_exports_exist(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def _module_level_imports(statements):
    """The modules that ``statements`` import when the module loads: not
    inside functions, nor under ``if TYPE_CHECKING``."""
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _module_level_imports(node.orelse)
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
        yield from _module_level_imports(
            child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt))


@pytest.mark.parametrize("name", ["core", "matching", "observables", "limits"])
def test_scalar_chain_modules_do_not_import_numpy(name):
    # The scalar chain runs on Python numbers (spinor.SCALAR); numpy stays
    # with the array evaluators.
    source = importlib.util.find_spec(f"diracstep.{name}").origin
    tree = ast.parse(Path(source).read_text(encoding="utf-8"))
    imported = list(_module_level_imports(tree.body))
    assert not [module for module in imported if module.split(".")[0] == "numpy"], imported


ROOT = Path(__file__).resolve().parents[1]
PYTHON_FILES = sorted((*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")))


@pytest.mark.parametrize("path", PYTHON_FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_file_imports_a_package_ci_does_not_install(path):
    # scipy, sympy and mpmath may be installed locally, but CI installs only
    # numpy, pytest and hypothesis. Imports inside functions count too.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module and not node.level]
    absent = [module for module in imported
              if module.split(".")[0] in ("scipy", "sympy", "mpmath")]
    assert absent == []


def _same(actual, stated) -> bool:
    """Whether a value is the one a comment states: floats to 1e-12 relative,
    NaN for NaN, everything else by ==, tuples element by element."""
    if isinstance(stated, tuple):
        return (isinstance(actual, tuple) and len(actual) == len(stated)
                and all(map(_same, actual, stated)))
    if isinstance(stated, float) and isinstance(actual, float):
        return (math.isnan(actual) and math.isnan(stated)) or math.isclose(
            actual, stated, rel_tol=1e-12)
    return actual == stated


def test_readme_python_example_gives_the_values_in_its_comments():
    # Each line of README's ``python`` block that is an expression states its
    # value in the comment, up to an optional ": explanation".
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)[1]
    namespace, checked = {}, 0
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if not code.strip() or code.startswith("import ") or re.match(r"\w+ = ", code):
            exec(code, namespace)
            continue
        stated = eval(comment.partition(": ")[0],
                      {"nan": math.nan, "BoundaryCondition": diracstep.BoundaryCondition})
        assert _same(eval(code, namespace), stated), line
        checked += 1
    assert checked == 5
