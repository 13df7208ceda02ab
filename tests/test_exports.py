"""The package's public names: each export resolves to its defining module;
the scalar chain's modules import no numpy; no source or test file imports
a package that CI does not install."""

import ast
import importlib
import importlib.util
import pkgutil
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


@pytest.mark.parametrize("name", ["core", "matching", "observables", "boundary", "forces",
                                  "limits"])
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
