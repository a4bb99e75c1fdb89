"""Property tests of the input boundary, through the CLI.

JSONL records are drawn around the schema: mostly valid, with wrong types,
bad labels and ranks, missing arms, duplicate ids, unknown fields, lines
that are not JSON objects and bytes that are not UTF-8 mixed in. The
accept/reject decision and the set of violations must not depend on the
order of the lines.

Spec files (design, population spec, effect, confusion) are drawn valid and
then have at most one node replaced, deleted or repeated; ``mde`` takes its
numbers from a pool of edge values.

Every input must end in exit 0, 1 or 2 with no traceback and, on failure, a
parseable ``--error-json`` payload. The same spec files, read by their
loaders, must agree with their JSON Schemas under ``releval/schemas/``.

Datasets are drawn whole, ragged, list-form and dual-label pages, records
without a treatment arm and query ids that JSON must escape included; the
writer must give json.dumps's bytes for them, and reading them back the same
dataset.
"""

import copy
import csv
import functools
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import releval
from releval import dataset_io
from releval.cli import main
from releval.core import EvalDataset, PopularitySegment, QueryRecord, StratumKey
from releval.dataset_io import (
    load_confusion,
    load_design,
    load_effect,
    load_population_spec,
    read_dataset,
    write_dataset,
)
from releval.errors import RelevalError

from conftest import dataset_bytes

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


# "\udcff" is written as the byte 0xff, so the file is not valid UTF-8; json
# cannot decode the last two, nested past the recursion limit and an integer
# past int's digit limit, though neither is malformed
JUNK = st.sampled_from(["{not json", "[1, 2]", "5", '"q1"', "null", "", "\udcff",
                        "[" * 100_000 + "]" * 100_000, "1" * 5000])


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
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8",
                        errors="surrogateescape")
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
        # an undecodable byte is named by its offset, which moves with the shuffle
        return result.exit_code, dict(
            payload, message=re.sub(r"position \d+", "position #", payload["message"]))
    # a line-level violation names its line, which moves with the shuffle
    violations = [re.sub(r"line \d+", "line #", json.dumps(v, sort_keys=True))
                  for v in payload["violations"]]
    return result.exit_code, payload["error"], sorted(violations)


@given(lines=jsonl_lines(), data=st.data())
def test_cli_boundary_is_typed_and_order_free(lines, data):
    shuffled = data.draw(st.permutations(lines))
    for args in COMMANDS:
        assert _run(args, lines) == _run(args, shuffled), args


# -- datasets written ------------------------------------------------------------

# any text UTF-8 can encode: a lone surrogate is rejected where records are read
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
QUERY_ID = (TEXT.filter(bool)
            | st.sampled_from(['q"0', "q\\0", "q\n\t", "\x00", "\u2028", "\u00e9", "\u65e5",
                               "\U0001f600", "</q>"]))


@st.composite
def datasets(draw):
    """Records whose pages hold 0 to K labels, each arm list-form or dual-label."""
    k_depth = draw(st.integers(1, 30))
    page = st.lists(LABEL, min_size=0, max_size=k_depth).map(bytes)

    def arm():
        machine = draw(page)
        dual = draw(st.booleans())
        return machine, draw(st.lists(LABEL, min_size=len(machine),
                                      max_size=len(machine)).map(bytes)) if dual else None

    records = []
    for query_id in draw(st.lists(QUERY_ID, max_size=8, unique=True)):
        control, control_reference = arm()
        treatment, treatment_reference = arm() if draw(st.booleans()) else (None, None)
        stratum = StratumKey(draw(TEXT.filter(bool)), draw(st.sampled_from(list(PopularitySegment))))
        records.append(QueryRecord(query_id, draw(TEXT), stratum, control, treatment,
                                   control_reference, treatment_reference))
    return EvalDataset(tuple(records), k_depth=k_depth)


# small chunks put the chunk edges, and an empty page at a chunk's start, inside a few records
@given(dataset=datasets(), chunk=st.integers(1, 4))
def test_write_dataset_gives_json_bytes_and_reads_back(dataset, chunk):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataset_io, "_WRITE_CHUNK", chunk):
        path = Path(tmp) / "d.jsonl"
        write_dataset(dataset, path)
        assert path.read_bytes() == dataset_bytes(dataset.records)
        assert read_dataset(path, k_depth=dataset.k_depth) == dataset


@given(query_id=QUERY_ID)
@example(query_id="q\x1b[31mred")
def test_metric_writes_each_query_id_as_read(query_id):
    obj = {"query_id": query_id, "stratum": {"interest": "art", "popularity": "head"},
           "control": [{"rank": 1, "label": 3}]}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "d.jsonl", Path(tmp) / "out.csv"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        stdout = CliRunner().invoke(main, ["metric", str(path)]).stdout_bytes
        assert CliRunner().invoke(main, ["metric", str(path), "--out", str(out)]).exit_code == 0
        assert stdout == out.read_bytes()
    [row] = list(csv.reader(io.StringIO(stdout.decode("utf-8"), newline="")))[2:]
    assert row[0] == query_id


# -- spec files -----------------------------------------------------------------

JUNK_VALUE = st.sampled_from([None, True, 0, -1, 3, 0.5, 2.5, -0.5, 1e308, 10 ** 400,
                              float("nan"), float("inf"), "x", "", "head", [], [1], {},
                              {"interest": "a"}])
# what takes the place of a number: mostly numbers at the edges of the float range
NUMBER_JUNK = st.sampled_from([0, -1, 1e308, 10 ** 400, float("nan"), float("inf"), True, "1"])
KEYS = [("a", "head"), ("b", "tail"), ("c", "single")]
STRATA = st.lists(st.sampled_from(KEYS), min_size=1, max_size=3, unique=True)


def _strata(draw, keys, fields):
    """``keys`` with equal weights, plus per-stratum ``fields``."""
    return [{"interest": i, "popularity": p, "weight": 1.0 / len(keys), **draw(fields)}
            for i, p in keys]


def _paths(node, path=()):
    """Every path into a JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, (*path, key))


@st.composite
def mutated(draw, doc):
    """``doc`` as drawn, or with one node replaced by junk, deleted or repeated."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    op = draw(st.sampled_from(["keep", "keep", "replace", "replace", "delete", "repeat"]))
    if op == "keep":
        return doc
    if not path:
        return draw(JUNK_VALUE)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if op == "replace":
        parent[last] = draw(NUMBER_JUNK if type(parent[last]) in (int, float) else JUNK_VALUE)
    elif op == "delete":
        del parent[last]
    elif isinstance(parent, list):  # a repeated dict key is no change
        parent.insert(last, copy.deepcopy(parent[last]))
    return doc


SIGMA = st.fixed_dictionaries({"sigma": st.sampled_from([0.0, 0.1, 1.0])},
                              optional={"mu": st.sampled_from([0.5])})
PROFILE = st.one_of(
    st.fixed_dictionaries({"kind": st.just("curve"), "mean_top": st.sampled_from([1.0, 4.2, 5.0]),
                           "decay": st.sampled_from([0.0, 0.3])}),
    st.fixed_dictionaries({"kind": st.just("categorical"),
                           "probs": st.just([0.1, 0.2, 0.4, 0.2, 0.1])}))


@st.composite
def design_doc(draw, keys):
    return draw(mutated(_strata(draw, keys, SIGMA)))


@st.composite
def spec_doc(draw):
    return draw(mutated({"k_depth": draw(st.integers(1, 3)),
                         "queries_per_stratum": draw(st.integers(1, 3)),
                         "market": "US",
                         "strata": _strata(draw, draw(STRATA),
                                           st.fixed_dictionaries({"profile": PROFILE}))}))


@st.composite
def effect_doc(draw):
    shifts = [{"interest": i, "popularity": p, "shift": draw(st.sampled_from([-1.0, 0.25, 2.0]))}
              for i, p in draw(st.lists(st.sampled_from(KEYS), max_size=2, unique=True))]
    return draw(mutated({"default": draw(st.sampled_from([0.0, 0.05])), "shifts": shifts}))


@st.composite
def confusion_doc(draw):
    if draw(st.booleans()):
        doc = {"calibrate": {"exact": draw(st.sampled_from([0.5, 0.737, 1.0])),
                             "within_one": draw(st.sampled_from([0.917, 1.0]))}}
    else:
        doc = {"rows": [[1.0 if i == j else 0.0 for j in range(5)] for i in range(5)]}
    return draw(mutated(doc))


def _invoke(args, files, keys=()):
    """Run one command with ``files`` (name to JSON document) written beside it,
    and a paired dataset of two records in each stratum of ``keys``."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in files.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
        data = Path(tmp) / "data.jsonl"
        data.write_text("".join(
            json.dumps({"query_id": f"q{n}", "stratum": {"interest": i, "popularity": p},
                        "control": _list_arm([3, 4]), "treatment": _list_arm([4, n % 5 + 1])})
            + "\n" for n, (i, p) in enumerate(list(keys) * 2)), encoding="utf-8")
        paths["data"] = str(data)
        paths["out"] = str(Path(tmp) / "out.jsonl")
        result = CliRunner().invoke(main, [a.format(**paths) for a in args] + ["--error-json"])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        repr(result.exception))
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 1:
        assert "error" in json.loads(result.stdout)
    return result


@settings(max_examples=300)
@given(keys=STRATA, data=st.data(), budget=st.sampled_from(["1", "8", "100"]),
       estimator=st.sampled_from(["srs", "stratified"]))
def test_design_file_boundary_is_typed(keys, data, budget, estimator):
    design = data.draw(design_doc(keys))
    result = _invoke(["design", "--strata", "{design}", "--budget", budget], {"design": design})
    if result.exit_code == 0:
        assert sum(json.loads(result.stdout)["per_stratum"].values()) == int(budget)
    result = _invoke(["evaluate", "{data}", "--design", "{design}", "--estimator", estimator],
                     {"design": design}, keys)
    if result.exit_code == 0:
        assert json.loads(result.stdout)["topline"]["n"] == 2 * len(keys)


@settings(max_examples=300)
@given(spec=spec_doc(), effect=st.none() | effect_doc(), confusion=st.none() | confusion_doc())
def test_simulate_spec_files_boundary_is_typed(spec, effect, confusion):
    files = {"spec": spec}
    args = ["simulate", "--spec", "{spec}", "--out", "{out}"]
    for name, doc in (("effect", effect), ("confusion", confusion)):
        if doc is not None:
            files[name] = doc
            args += [f"--{name}", "{" + name + "}"]
    _invoke(args, files)


# -- schema and loader agree -------------------------------------------------------
# Whatever a loader accepts, its schema accepts. The converse holds too, except
# where the loader rejects for a rule the schema cannot state: numbers JSON
# cannot hold as floats (NaN, infinity, 10**400), weights or probabilities
# that must sum to 1, stratum keys that must be unique, exact <= within_one,
# ranks that run 1..n, and dual-label arrays of one length. (Nor can a schema
# tell 3.0 from 3, which the loaders reject as an integer; nothing draws it.)


@functools.cache
def _validator(name):
    jsonschema = pytest.importorskip("jsonschema")
    schema = Path(releval.__file__).parent / "schemas" / f"{name}.schema.json"
    return jsonschema.Draft202012Validator(json.loads(schema.read_text(encoding="utf-8")))


def _float_range(node):
    """Every number in ``node`` is a finite float or an int a float can hold."""
    if isinstance(node, dict):
        return all(_float_range(v) for v in node.values())
    if isinstance(node, list):
        return all(_float_range(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return not isinstance(node, int) or abs(node) <= sys.float_info.max


def _sums_to_one(values):
    return abs(sum(values) - 1.0) <= 1e-9


def _unique_keys(entries):
    keys = [(e["interest"], e["popularity"]) for e in entries]
    return len(set(keys)) == len(keys)


def _assert_agree(schema, loader, doc, rules_beyond_schema_hold):
    """``rules_beyond_schema_hold`` is asked only of documents the schema accepts."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            loader(path)
            accepted = True
        except RelevalError:
            accepted = False
    valid = _validator(schema).is_valid(doc)
    if accepted:
        assert valid
    elif valid:
        assert not (_float_range(doc) and rules_beyond_schema_hold(doc))


def _spec_rules_hold(doc):
    probs = [s["profile"]["probs"] for s in doc["strata"] if s["profile"]["kind"] == "categorical"]
    rows = [row for p in probs for row in (p if not p or isinstance(p[0], list) else [p])]
    return (_sums_to_one(s["weight"] for s in doc["strata"]) and _unique_keys(doc["strata"])
            and all(_sums_to_one(row) for row in rows))


def _confusion_rules_hold(doc):
    if "rows" in doc:
        return all(_sums_to_one(row) for row in doc["rows"])
    return doc["calibrate"]["exact"] <= doc["calibrate"]["within_one"]


def _record_rules_hold(obj):
    arms = [obj[arm] for arm in ("control", "treatment") if arm in obj]
    return all([e["rank"] for e in arm] == list(range(1, len(arm) + 1)) if isinstance(arm, list)
               else len(arm["machine_labels"]) == len(arm["reference_labels"]) for arm in arms)


def _read_record(path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unknown fields
        read_dataset(path)


_PROBS = [0.1, 0.2, 0.4, 0.2, 0.1]
_IDENTITY = [[1.0 if i == j else 0.0 for j in range(5)] for i in range(5)]


def _one_stratum_spec(profile):
    return {"queries_per_stratum": 2, "strata": [
        {"interest": "a", "popularity": "head", "weight": 1.0, "profile": profile}]}


@settings(max_examples=300)
@given(obj=(VALID | broken()).map(lambda obj: {"query_id": "q0", **obj}))
def test_dataset_record_schema_and_loader_agree(obj):
    _assert_agree("dataset_record", _read_record, obj, _record_rules_hold)


@settings(max_examples=300)
@given(doc=spec_doc())
@example(doc=_one_stratum_spec({"probs": _PROBS}))  # a profile must name its kind
@example(doc=_one_stratum_spec({"kind": "categorical", "probs": []}))  # no rows at all
@example(doc={"queries_per_stratum": 2, "strata": [  # weights that sum to 1, one outside (0, 1]
    {"interest": i, "popularity": "head", "weight": w, "profile": {"kind": "curve", "mean_top": 3}}
    for i, w in (("a", 1.5), ("b", -0.5))]})
def test_population_spec_schema_and_loader_agree(doc):
    _assert_agree("population_spec", load_population_spec, doc, _spec_rules_hold)


@settings(max_examples=300)
@given(doc=confusion_doc())
@example(doc={"rows": _IDENTITY, "calibrate": {"exact": 0.5, "within_one": 0.9}})  # not both
def test_confusion_schema_and_loader_agree(doc):
    _assert_agree("confusion_matrix", load_confusion, doc, _confusion_rules_hold)


@settings(max_examples=300)
@given(doc=STRATA.flatmap(design_doc))
@example(doc=[])
@example(doc=[{"interest": "a", "popularity": "head", "weight": 1.0, "sigma": None}])  # null
def test_design_schema_and_loader_agree(doc):
    _assert_agree("design", load_design, doc, _unique_keys)


@settings(max_examples=300)
@given(doc=effect_doc())
@example(doc={"shifts": {}})
def test_effect_schema_and_loader_agree(doc):
    _assert_agree("effect_spec", load_effect, doc, lambda d: _unique_keys(d.get("shifts", [])))


# the simulator's work grows with these; each is legal up to its maximum
SIZE = st.integers(1, 3) | st.sampled_from([0, 1000, 1001, 10 ** 6 + 1, 10 ** 30, 10 ** 400])


@settings(max_examples=100)
@given(k_depth=SIZE, queries=SIZE.filter(lambda n: n != 1000))
def test_simulate_sizes_are_bounded(k_depth, queries):
    spec = {"k_depth": k_depth, "queries_per_stratum": queries,
            "strata": [{"interest": "a", "popularity": "head", "weight": 1.0,
                        "profile": {"kind": "curve", "mean_top": 4.2, "decay": 0.3}}]}
    result = _invoke(["simulate", "--spec", "{spec}", "--out", "{out}"], {"spec": spec})
    assert (result.exit_code == 0) == (1 <= k_depth <= 1000 and 1 <= queries <= 10 ** 6)


EDGE = ["0", "-1", "1", "1e-300", "1e300", "nan", "inf", "1" + "0" * 400]


@st.composite
def mde_args(draw):
    """Typical options, or with one value replaced by an edge value."""
    size = draw(st.sampled_from(["--n", "--target"]))
    args = {"--mu": draw(st.sampled_from(["0.5", "0.8"])),
            "--sigma": draw(st.sampled_from(["0", "0.2"])),
            "--alpha": "0.05", "--power": "0.8",
            size: draw(st.sampled_from(["100", "1" + "0" * 30] if size == "--n"
                                       else ["0.02", "1e-8", "1e-100"]))}
    key = draw(st.sampled_from([None, *args]))
    if key is not None:
        # --n is an integer option, which click checks itself
        edges = [v for v in EDGE if v.isdigit()] if key == "--n" else EDGE
        args[key] = draw(st.sampled_from(edges))
    return [part for item in args.items() for part in item]


@settings(max_examples=300)
@given(args=mde_args())
def test_mde_boundary_is_typed(args):
    _invoke(["mde", *args], {})


_FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(0, 20))
def test_fails(x):
    assert x < 10
"""


def test_a_failing_property_shows_its_example(tmp_path):
    # the Hypothesis plugin warns while it reports a failure; under the repo's
    # warnings-as-errors settings that must not end the run in INTERNALERROR
    (tmp_path / "test_fails.py").write_text(_FAILING_PROPERTY, encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout
    assert "Falsifying example" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr
