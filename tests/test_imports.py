"""Each module imports on its own: the package root imports no submodule,
so an import-order cycle would only show when a module is imported first."""

import ast
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


# Imports made inside functions: numpy stays off every exact path, and the
# two in fields.py get around the import cycle with lang and reduction.  A
# new one needs a reason; removing one means shortening this list.
FUNCTION_LOCAL_IMPORTS = [
    ("cli.py", "_cmd_oracle", "numpy"),
    ("fields.py", "__repr__", ".lang"),
    ("fields.py", "_derinv", ".reduction"),
    ("oracle.py", "__post_init__", "numpy"),
    ("oracle.py", "derivative", "numpy"),
    ("oracle.py", "cole_hopf_numeric", "numpy"),
]


def _function_local_imports(node, function=None):
    """(enclosing function, imported module) for each import in a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _function_local_imports(child, child.name)
        elif isinstance(child, ast.Import) and function:
            yield from ((function, alias.name) for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and function:
            yield function, "." * child.level + (child.module or "")
        else:
            yield from _function_local_imports(child, function)


def test_function_local_imports_are_pinned():
    package = Path(ncburgers.__file__).resolve().parent
    found = [
        (path.name, *site)
        for path in sorted(package.glob("*.py"))
        for site in _function_local_imports(ast.parse(path.read_text()))
    ]
    assert found == FUNCTION_LOCAL_IMPORTS


# Private names imported from a sibling module, by importing file.  A new
# private coupling has to be added here; making a name public or dropping
# its use means shortening this list.
PRIVATE_IMPORTS = [
    ("lang.py", ".reduction", "_ForeignAtom"),
    ("lang.py", ".reduction", "_image"),
    ("operators.py", ".fields", "_AtomTuple"),
    ("reduction.py", ".fields", "_d_atom"),
    ("variational.py", ".operators", "_mult_op"),
]


def test_private_imports_are_pinned():
    package = Path(ncburgers.__file__).resolve().parent
    found = [
        (path.name, "." * node.level + (node.module or ""), alias.name)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == PRIVATE_IMPORTS


def test_oracle_imports_only_fields():
    # the oracle is the second opinion on the reducer's verdicts, so it must
    # not import the layers that build or reduce them
    package = Path(ncburgers.__file__).resolve().parent
    found = {
        node.module
        for node in ast.walk(ast.parse((package / "oracle.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
    }
    assert found == {"fields"}
