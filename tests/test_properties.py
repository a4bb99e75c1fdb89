"""Property tests of the JSONL input boundary, through the CLI.

Records are drawn around the schema: mostly valid, with wrong types, bad
labels and ranks, missing arms, duplicate ids, unknown fields and lines that
are not JSON objects mixed in. Every input must end in exit 0, 1 or 2 with
no traceback and, on failure, a parseable ``--error-json`` payload. The
accept/reject decision and the set of violations must not depend on the
order of the lines.
"""

import json
import re
import tempfile
import warnings
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from releval.cli import main

LABEL = st.integers(1, 5)
BAD_LABEL = st.sampled_from([0, 6, 2.5, True, "3", None, [3]])


def _list_arm(labels):
    return [{"rank": i + 1, "label": lab} for i, lab in enumerate(labels)]


def _dual_arm(machine):
    return st.lists(LABEL, min_size=len(machine), max_size=len(machine)).map(
        lambda reference: {"machine_labels": machine, "reference_labels": reference})


PAGE = st.lists(LABEL, min_size=1, max_size=5)
ARM = st.one_of(PAGE.map(_list_arm), PAGE.flatmap(_dual_arm))
# query ids are added per line by ``jsonl_lines``
VALID = st.fixed_dictionaries({
    "market": st.sampled_from(["US", "FR"]),
    "stratum": st.fixed_dictionaries({"interest": st.sampled_from(["art", "food"]),
                                      "popularity": st.sampled_from(["head", "tail"])}),
    "control": ARM,
    "treatment": ARM,
})
# one field of a valid record replaced by a value of the wrong shape or type
BAD_VALUES = {
    "query_id": st.sampled_from(["", None, 7, ["q1"], "q0"]),  # "q0" may repeat
    "market": st.sampled_from([7, None, True]),
    "stratum": st.sampled_from(["x", None, {"interest": 5, "popularity": "head"},
                                {"interest": "art", "popularity": "warm"},
                                {"popularity": "head"}, {"interest": "", "popularity": "tail"}]),
    "control": st.one_of(
        st.sampled_from([None, 5, "x", [], {"machine_labels": [3]},
                         {"machine_labels": [3], "reference_labels": [3, 4]},
                         [{"rank": 2, "label": 3}], [{"label": 3}],
                         [{"rank": True, "label": 3}]]),
        BAD_LABEL.map(lambda lab: _list_arm([3, lab])),
        BAD_LABEL.map(lambda lab: {"machine_labels": [lab], "reference_labels": [3]})),
    "extra": st.just(1),
}
BAD_VALUES["treatment"] = BAD_VALUES["control"]


@st.composite
def broken(draw):
    obj = draw(VALID)
    key = draw(st.sampled_from(sorted(BAD_VALUES) + ["treatment-missing", "control-missing"]))
    if key.endswith("-missing"):
        del obj[key.split("-")[0]]
    else:
        obj[key] = draw(BAD_VALUES[key])
    return obj


JUNK = st.sampled_from(["{not json", "[1, 2]", "5", '"q1"', "null", ""])


@st.composite
def jsonl_lines(draw):
    """Mostly valid records, each with its own query id, and a few bad lines."""
    lines = []
    for i in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["valid"] * 8 + ["broken", "junk"]))
        if kind == "junk":
            lines.append(draw(JUNK))
            continue
        obj = {"query_id": f"q{i}", **draw(VALID if kind == "valid" else broken())}
        lines.append(json.dumps(obj))
    return lines


COMMANDS = (["metric"], ["evaluate"], ["evaluate", "--by", "stratum"])


def _run(args, lines):
    """Run one command on ``lines``; returns what must not depend on line order."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # unknown fields
            result = CliRunner().invoke(main, [args[0], str(path), *args[1:], "--error-json"])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        repr(result.exception))
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 0:
        # per-query score rows are order-free; estimates may differ in the last bit
        return 0, sorted(result.stdout.splitlines()) if args == ["metric"] else None
    payload = json.loads(result.stdout)
    if "violations" not in payload:
        return result.exit_code, payload
    # a line-level violation names its line, which moves with the shuffle
    violations = [re.sub(r"line \d+", "line #", json.dumps(v, sort_keys=True))
                  for v in payload["violations"]]
    return result.exit_code, payload["error"], sorted(violations)


@given(lines=jsonl_lines(), data=st.data())
def test_cli_boundary_is_typed_and_order_free(lines, data):
    shuffled = data.draw(st.permutations(lines))
    for args in COMMANDS:
        assert _run(args, lines) == _run(args, shuffled), args
