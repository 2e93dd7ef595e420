"""Each module imports on its own: the package root imports no submodule,
so an import-order cycle would only show when a module is imported first."""

import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ncburgers

MODULES = sorted(m.name for m in pkgutil.iter_modules(ncburgers.__path__))


def test_modules_found():
    assert {"fields", "reduction", "lang", "verify", "cli"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    src = str(Path(ncburgers.__file__).resolve().parent.parent)
    code = "import sys; sys.path.insert(0, %r); import ncburgers.%s" % (src, module)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_numpy_only_on_the_float_path():
    src = str(Path(ncburgers.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, %r); import ncburgers.cli, ncburgers.oracle; "
        "print('numpy' in sys.modules)" % src
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
