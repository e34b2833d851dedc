"""Every name a module exports exists, and the package re-exports only such
names, so a deletion cannot leave a stale export behind.  Importing the
package loads no module beyond a fixed list, so the import path cannot grow
unnoticed, and no module imports another's private names beyond a fixed
list, so a decision two modules share cannot spread unnoticed."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import su2fourier

_MODULES = sorted(m.name for m in pkgutil.iter_modules(su2fourier.__path__))


def _module(name):
    return importlib.import_module(f"su2fourier.{name}")


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_exists(name):
    module = _module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_exported_names():
    exported = {n for name in _MODULES for n in _module(name).__all__}
    public = {
        n for n, v in vars(su2fourier).items()
        if not n.startswith("_") and not isinstance(v, ModuleType)
    }
    assert public and public <= exported


# what ``import su2fourier`` may load once NumPy is loaded: the package's own
# modules and these; the benchmark's setup_s is mostly this import
_IMPORT_PATH = {"__future__", "copy", "dataclasses"}
_IMPORT_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy\n"
    "before = set(sys.modules)\n"
    "import su2fourier\n"
    "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
)


def test_import_path_loads_only_the_known_modules():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, str(src)],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    assert "su2fourier.divergence" in out
    known = ("su2fourier", "numpy.polynomial")
    assert [m for m in out if m not in _IMPORT_PATH and not m.startswith(known)] == []


# (importer, module, name) of every private name one package module imports
# from another (dunders such as __version__ are public); each is a decision
# two modules share, so extend this only in a change that says why
_PRIVATE_IMPORTS = {
    ("convergence", "fourier", "_coeffs_from_cos_moments"),
    ("convergence", "fourier", "_translate_norms"),
    ("divergence", "fourier", "_coeffs_from_cos_moments"),
    # one run cut and ragged layout for the batch forms of lebesgue_constant
    # and verify_chain, so both bound their temporaries by one cap
    ("divergence", "fourier", "_ragged_runs"),
}


def test_modules_import_only_the_known_private_names():
    found = set()
    for path in Path(su2fourier.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found |= {
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                }
    assert found == _PRIVATE_IMPORTS
