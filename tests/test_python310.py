"""The package compiles under CPython 3.10, the oldest version pyproject allows.

The test interpreter may be newer, and 3.10 may lack numpy, so nothing is
imported there: each module's source is compiled, and so is each regex a
module compiles at import, as read from its syntax tree, and each template
``dataset_io`` compiles for a file's first line, as built here. A possessive
quantifier (``a++``), which 3.11 added to ``re``, is a pattern 3.10 rejects.
Skipped when no working 3.10 interpreter is on PATH or among pyenv's versions.
"""

import ast
import functools
import json
import shutil
import subprocess
from pathlib import Path

import pytest

import releval
from releval import dataset_io

SOURCES = sorted(Path(releval.__file__).parent.glob("*.py"))
# run by the 3.10 interpreter: compile each file and each pattern it is sent
_CHECK = """
import json, re, sys
request = json.load(sys.stdin)
for path in request["files"]:
    with open(path, encoding="utf-8") as fh:
        compile(fh.read(), path, "exec")
for pattern in request["patterns"]:
    re.compile(pattern)
"""


@functools.cache
def _python310() -> str | None:
    """A CPython 3.10 that runs, from PATH or pyenv's versions, or None."""
    candidates = [shutil.which("python3.10")]
    if pyenv := shutil.which("pyenv"):
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
        if root:
            candidates += sorted(map(str, Path(root).glob("versions/3.10*/bin/python3.10")))
    for python in filter(None, candidates):
        try:
            out = subprocess.run([python, "-I", "-c", "import sys; print(sys.version_info[:2])"],
                                 capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if out.stdout.strip() == "(3, 10)":
            return python
    return None


def _folded(node: ast.expr, constants: dict[str, str]) -> object:
    """The value of a literal, of a ``+`` of folded values, or of the name of a
    module-level str constant; anything else raises, so no pattern goes unchecked."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _folded(node.left, constants) + _folded(node.right, constants)
    if isinstance(node, ast.Name):
        return constants[node.id]
    return ast.literal_eval(node)


def _module_patterns(tree: ast.Module) -> list[str]:
    """The first argument of each module-level ``NAME = re.compile(...)``, folded."""
    constants: dict[str, str] = {}
    patterns = []
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "re.compile":
            patterns.append(_folded(node.value.args[0], constants))
            continue
        try:
            value = _folded(node.value, constants)
        except (KeyError, TypeError, ValueError):
            continue
        if isinstance(value, str):
            constants.update((target.id, value) for target in node.targets
                             if isinstance(target, ast.Name))
    return patterns


# a first line of each key order, arm form and separators the templates take
_FIRST_LINES = [json.dumps(record, sort_keys=sort_keys, separators=separators)
                for record in ({"query_id": "q", "market": "US",
                                "stratum": {"interest": "a", "popularity": "head"},
                                "control": arm, "treatment": arm}
                               for arm in ([{"rank": 1, "label": 3}],
                                           {"machine_labels": [3], "reference_labels": [4]}))
                for sort_keys in (False, True) for separators in ((", ", ": "), (",", ":"))]


def _template_patterns() -> list[str]:
    """The source of each template ``dataset_io`` compiles, one per first line."""
    return [dataset_io._template(line)[0].__self__.pattern for line in _FIRST_LINES]


def _check_under_310(files: list[str], patterns: list[str]) -> subprocess.CompletedProcess:
    python = _python310()
    if python is None:
        pytest.skip("no working CPython 3.10 interpreter found")
    return subprocess.run([python, "-I", "-c", _CHECK], capture_output=True, text=True,
                          input=json.dumps({"files": files, "patterns": patterns}), timeout=120)


def test_every_module_and_module_regex_compiles_under_python310():
    templates = _template_patterns()
    assert len(set(templates)) == 8  # 2 key orders x 2 arm forms x 2 separators
    patterns = [pattern for path in SOURCES
                for pattern in _module_patterns(ast.parse(path.read_text(encoding="utf-8")))]
    out = _check_under_310([str(path) for path in SOURCES], patterns + templates)
    assert out.returncode == 0, out.stderr


def test_a_pattern_or_source_newer_than_310_fails_the_check(tmp_path):
    tree = ast.parse('import re\n_A = re.compile(r"a++")\n_B = len("a")\n')
    assert _module_patterns(tree) == ["a++"]
    assert _check_under_310([], ["a++"]).returncode != 0
    # a pattern built with + from a module-level constant is folded, and checked
    tree = ast.parse('import re\n_X = r"a"\n_Y = re.compile(_X + r"a++")\n')
    assert _module_patterns(tree) == ["aa++"]
    assert _check_under_310([], _module_patterns(tree)).returncode != 0
    newer = tmp_path / "newer.py"
    newer.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n", encoding="utf-8")
    assert _check_under_310([str(newer)], []).returncode != 0
