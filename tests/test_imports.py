"""Every name a releval module imports is read in it.

No linter runs in tier-1, so an import left behind when its last use goes
would stay unnoticed; this reads each module's syntax tree instead.
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
