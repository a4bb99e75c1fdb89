"""Every name a releval module imports is read in it, and none is private to another.

No linter runs in tier-1, so an import left behind when its last use goes
would stay unnoticed; this reads each module's syntax tree instead. A
``_``-prefixed name belongs to its module: one that another module needs is
made public where it is defined.
"""

import ast
from pathlib import Path

import releval


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
