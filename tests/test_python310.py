"""The package compiles under CPython 3.10, the oldest version pyproject allows.

The test interpreter may be newer, and 3.10 may lack numpy, so nothing is
imported there: each module's source is compiled, and so is each regex a
module compiles at import, as read from its syntax tree. A possessive
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


def _module_patterns(tree: ast.Module) -> list[str]:
    """The first argument of each module-level ``NAME = re.compile(...)``."""
    return [ast.literal_eval(node.value.args[0]) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func) == "re.compile"]


def _check_under_310(files: list[str], patterns: list[str]) -> subprocess.CompletedProcess:
    python = _python310()
    if python is None:
        pytest.skip("no working CPython 3.10 interpreter found")
    return subprocess.run([python, "-I", "-c", _CHECK], capture_output=True, text=True,
                          input=json.dumps({"files": files, "patterns": patterns}), timeout=120)


def test_every_module_and_module_regex_compiles_under_python310():
    patterns = [pattern for path in SOURCES
                for pattern in _module_patterns(ast.parse(path.read_text(encoding="utf-8")))]
    assert patterns  # dataset_io's arm regexes at least
    out = _check_under_310([str(path) for path in SOURCES], patterns)
    assert out.returncode == 0, out.stderr


def test_a_pattern_or_source_newer_than_310_fails_the_check(tmp_path):
    tree = ast.parse('import re\n_A = re.compile(r"a++")\n_B = len("a")\n')
    assert _module_patterns(tree) == ["a++"]
    assert _check_under_310([], ["a++"]).returncode != 0
    newer = tmp_path / "newer.py"
    newer.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n", encoding="utf-8")
    assert _check_under_310([str(newer)], []).returncode != 0
