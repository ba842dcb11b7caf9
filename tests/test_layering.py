"""Import layering and the package surface.

The estimators (``correlations``, ``ensemble``) choose and drive engines,
and ``cli`` drives the estimators; nothing below them may import them back.
Every library module's ``__all__`` is the one list of its public names, and
``qsdsim`` re-exports each of them; a module the package forgets to import
fails here.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsdsim

PACKAGE = Path(qsdsim.__file__).parent
LOWER = ("noise", "hilbert", "diffusion", "jumps", "gisin", "master")
UPPER = {"correlations", "ensemble", "cli"}
# the command line is not part of the library surface
LIBRARY = sorted(
    path.stem for path in PACKAGE.glob("*.py") if path.stem not in ("__init__", "__main__", "cli")
)


def qsdsim_imports(module: str) -> set:
    """The qsdsim modules that ``module`` imports, by their short names."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("qsdsim."):
                found.add(node.module.split(".")[1])
            elif node.module == "qsdsim":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("qsdsim.")
            )
    return found


@pytest.mark.parametrize("module", LOWER)
def test_lower_layers_do_not_import_estimators(module):
    assert qsdsim_imports(module) & UPPER == set()


def test_import_parser_sees_relative_imports():
    assert {"diffusion", "ensemble", "hilbert", "jumps", "noise"} <= qsdsim_imports(
        "correlations"
    )


@pytest.mark.parametrize("module", LIBRARY)
def test_module_exports_exist_and_are_reexported(module):
    mod = importlib.import_module(f"qsdsim.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"qsdsim.{module}.__all__ names a missing {name}"
        assert name in qsdsim.__all__, f"qsdsim.{module}.{name} is not re-exported"
        assert getattr(qsdsim, name) is getattr(mod, name)


def test_package_exports_resolve():
    assert [name for name in qsdsim.__all__ if not hasattr(qsdsim, name)] == []
    assert len(set(qsdsim.__all__)) == len(qsdsim.__all__)


def test_import_loads_neither_numpy_random_nor_logging():
    # both cost milliseconds of every run's start; streams load numpy.random
    # on first use
    code = (
        "import sys, qsdsim, qsdsim.cli; "
        "print(sorted({'numpy.random', 'logging'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert out.stdout.strip() == "[]"
