"""Every name a releval module imports is read in it, and none is private to another.

No linter runs in tier-1, so an import left behind when its last use goes
would stay unnoticed; this reads each module's syntax tree instead. A
``_``-prefixed name belongs to its module: one that another module needs is
made public where it is defined.
"""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import releval

import test_golden


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read as a name or listed in __all__."""
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {node.value for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in assign.targets)
                for node in ast.walk(assign.value) if isinstance(node, ast.Constant)}
    return sorted(imported - read - exported)


def test_no_module_imports_a_name_it_never_reads():
    unused = {path.name: names for path in sorted(Path(releval.__file__).parent.glob("*.py"))
              if (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert unused == {}


def test_an_unused_import_is_found():
    tree = ast.parse("from .errors import BadLabelValue, BadSpec\nimport numpy as np\n"
                     "__all__ = ['np']\nraise BadSpec('x')\n")
    assert _unused_imports(tree) == ["BadLabelValue"]


def _private_imports(tree: ast.Module) -> list[str]:
    """``_``-prefixed names imported from another module of the package; a private
    module imported whole (``from . import _lazy``) is not one."""
    return sorted(alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level and node.module
                  for alias in node.names if alias.name.startswith("_"))


def test_no_module_imports_a_private_name_of_another():
    private = {path.name: names for path in sorted(Path(releval.__file__).parent.glob("*.py"))
               if (names := _private_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert private == {}


def test_a_private_import_is_found():
    tree = ast.parse("from . import _lazy\nfrom ._lazy import np\n"
                     "from .core import _is_text, check_pages\nfrom typing import _Final\n")
    assert _private_imports(tree) == ["_is_text"]


def _imported_modules(tree: ast.Module) -> set[str]:
    """The top-level package of every absolute import."""
    return ({alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
            | {node.module.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and not node.level})


def test_no_module_imports_click():
    importers = [path.name for path in sorted(Path(releval.__file__).parent.glob("*.py"))
                 if "click" in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))]
    assert importers == []


def test_an_import_of_click_is_found():
    tree = ast.parse("import click.testing\nfrom click import echo\nfrom . import core\n")
    assert _imported_modules(tree) == {"click"}


# the entry point, in an interpreter where any import of click fails
_WITHOUT_CLICK = "import sys; sys.modules['click'] = None; from releval.cli import run; run()"


@pytest.mark.parametrize("args, stdout_sha256", [
    (["--version"], hashlib.sha256(b"releval, version 0.1.0\n").hexdigest()),
    (test_golden.GOLDEN["metric"][0], test_golden.GOLDEN["metric"][2]["stdout"]),
], ids=["version", "metric"])
def test_the_cli_runs_where_click_cannot_be_imported(tmp_path, args, stdout_sha256):
    test_golden._write_inputs(tmp_path)
    src = str(Path(releval.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _WITHOUT_CLICK, *args], cwd=tmp_path,
                            env=env, capture_output=True)
    assert (result.returncode, result.stderr) == (0, b"")
    assert hashlib.sha256(result.stdout).hexdigest() == stdout_sha256
