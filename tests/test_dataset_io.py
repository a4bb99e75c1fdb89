"""JSONL reading and writing: records stream into validation one line at a
time, and are written a block of records at a time."""

import gc
import json
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import releval
from releval import core, dataset_io
from releval.alignment import label_agreement
from releval.core import EvalDataset, QueryRecord, validate_dataset
from releval.dataset_io import read_dataset, read_jsonl, write_dataset
from releval.errors import BadLabelValue, BadRankSequence, DatasetValidationError, MissingArm
from releval.metrics import arm_scores
from releval.simulator import ConfusionMatrix, apply_labeler

from conftest import dataset_bytes, dual_raw, raw_record, record, sk


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def json_alone():
    """A patch under which every line is read by json and the parser."""
    return mock.patch.object(dataset_io, "_template", lambda line: None)


def records_or_violations(path):
    try:
        return read_dataset(path).records
    except DatasetValidationError as err:
        return [(v.code, v.query_id, v.field, str(v)) for v in err.violations]


def test_read_jsonl_yields_records_before_the_file_ends(tmp_path):
    path = write_lines(tmp_path / "d.jsonl", [
        json.dumps(raw_record("q0", [3])), "{not json", json.dumps(raw_record("q1", [4]))])
    records = iter(read_jsonl(path))
    assert next(records).query_id == "q0"
    assert next(records).query_id == "q1"
    with pytest.raises(DatasetValidationError) as exc:
        next(records)
    assert [v.field for v in exc.value.violations] == ["line 2"]


def test_only_whole_template_lines_of_list_arms_are_read_from_their_text(tmp_path):
    # a line json.dumps wrote in the first line's key order, ranks 1..n and
    # labels 1..5, is the record read_jsonl yields, its items' keys in either
    # order; every other line is the object json decodes, and the records or
    # violations are those of json alone
    canonical = json.dumps(raw_record("q0", [3, 4], [5]))
    label_first = json.dumps(raw_record("q10", [3, 4], [5])).replace(
        '"rank": 1, "label": 3', '"label": 3, "rank": 1').replace(
        '"rank": 2, "label": 4', '"label": 4, "rank": 2')
    lines = [
        canonical,
        json.dumps(raw_record("true-crime", list(range(1, 6)) * 3, [6])),  # ranks 10+, label 6
        json.dumps(raw_record("q1", [3, 4], [2]), sort_keys=True),  # the other key order
        json.dumps(dual_raw("q2", [2], [1])),
        canonical.replace("q0", "q3").replace('"rank": 2', '"rank": 3'),  # a gap
        canonical.replace("q0", "q4").replace('"rank": 1,', '"rank": 01,'),  # malformed
        canonical.replace("q0", "q5")[:-1] + ', "extra": [{"rank": 1, "label": 2}]}',
        canonical.replace("q0", "q6").replace('"label": 4', '"label": 4.0'),
        canonical.replace('"q0"', '"q7\\\\"'),  # a string ending in a backslash
        canonical.replace('"label": 4', '"label": ٣'),  # digits json rejects
        canonical.replace('"rank": 2', '"rank": ٢'),
        json.dumps(raw_record("q8", list(range(1, 6)) * 3)),  # no treatment
        json.dumps(raw_record("q9", [3] * 1001, [3] * 1000)),  # past the ranks read as text
        label_first,
        canonical.replace('"q0"', '""'),
        canonical.replace('"q0"', '"q11"').replace('"head"', '"viral"'),
        canonical.replace('"q0"', '"q12\x01"'),  # a raw control character
        canonical.replace('"q0"', '"q13"').replace('"art"', '"ärt"'),
        canonical + " x",  # trailing text
    ]
    path = write_lines(tmp_path / "d.jsonl", lines)
    read = []
    with pytest.warns(UserWarning, match="extra"), pytest.raises(DatasetValidationError) as exc:
        for obj in read_jsonl(path):
            read.append(obj)
    assert [(v.field, str(v).split(" (")[0]) for v in exc.value.violations] == [
        (f"line {n}", f"line {n}: malformed JSON") for n in (6, 10, 11, 17, 19)]
    assert [(type(obj).__name__, obj.query_id if type(obj) is QueryRecord else obj["query_id"])
            for obj in read] == [
        ("QueryRecord", "q0"), ("dict", "true-crime"), ("dict", "q1"), ("dict", "q2"),
        ("dict", "q3"), ("dict", "q5"), ("dict", "q6"), ("dict", "q7\\"),
        ("QueryRecord", "q8"), ("dict", "q9"), ("QueryRecord", "q10"), ("dict", ""),
        ("dict", "q11"), ("QueryRecord", "q13")]
    assert (read[0].control, read[0].treatment, read[0].control_reference) == (b"\3\4", b"\5", None)
    assert read[8].control == bytes(range(1, 6)) * 3 and read[8].treatment is None
    assert read[10].control == b"\3\4" and read[13].stratum == sk("ärt")
    write_lines(path, [line for n, line in enumerate(lines, start=1)
                       if n not in (6, 10, 11, 17, 19)])
    with pytest.warns(UserWarning, match="extra"):
        read = records_or_violations(path)
        with json_alone():
            assert records_or_violations(path) == read
    assert {v[0] for v in read} == {"BadLabelValue", "BadRankSequence", "MissingArm"}


def test_only_whole_template_lines_of_dual_arms_are_read_from_their_text(tmp_path):
    # a line json.dumps wrote with the first line's separators, labels 1..5
    # and arrays of equal length, is the record read_jsonl yields; every
    # other line is the object json decodes
    canonical = json.dumps(dual_raw("q0", [3, 4], [5, 5], [2], [1]))
    lines = [
        canonical,
        json.dumps(dual_raw("q1", [2], [1], [4], [4]), separators=(",", ":")),
        canonical.replace("q0", "q2").replace('"machine_labels": [3, 4]', '"machine_labels": [3]'),
        canonical.replace("q0", "q3").replace("[2]", "[10]"),  # a label of two digits
        canonical.replace("q0", "q4").replace("[2]", "[]"),
        json.dumps({"query_id": "q5", "market": "US",
                    "stratum": {"interest": "art", "popularity": "head"},
                    "control": {"reference_labels": [3], "machine_labels": [4]}}),
        canonical.replace("q0", "q6").replace("[2]", "[٣]"),  # a digit json rejects
        json.dumps(dual_raw("q7", [1, 2, 3], [3, 2, 1])),  # no treatment
        canonical.replace("q0", "q8").replace("[1]", "[0]"),
    ]
    path = write_lines(tmp_path / "d.jsonl", lines)
    read = []
    with pytest.raises(DatasetValidationError) as exc:
        for obj in read_jsonl(path):
            read.append(obj)
    assert [v.field for v in exc.value.violations] == ["line 7"]
    assert [type(obj).__name__ for obj in read] == [
        "QueryRecord", "dict", "dict", "dict", "dict", "dict", "QueryRecord", "dict"]
    assert (read[0].control, read[0].control_reference, read[0].treatment,
            read[0].treatment_reference) == (b"\3\4", b"\5\5", b"\2", b"\1")
    assert (read[6].control, read[6].control_reference, read[6].treatment) == (
        b"\1\2\3", b"\3\2\1", None)
    del lines[6]
    write_lines(path, lines)
    read = records_or_violations(path)
    assert {v[0] for v in read} == {"BadLabelValue", "BadRankSequence"}
    with json_alone():
        assert records_or_violations(path) == read


@pytest.mark.parametrize("first, other", [
    (dual_raw("q0", [2], [1]), raw_record("q1", [3, 4], [5])),
    (raw_record("q0", [2], [1]), dual_raw("q1", [3, 4], [5, 5])),
], ids=["dual-then-list", "list-then-dual"])
@pytest.mark.parametrize("dumps", [
    lambda obj: json.dumps(obj, sort_keys=True),
    lambda obj: json.dumps(obj, separators=(",", ":")),
    json.dumps,
], ids=["sort_keys", "compact", "default"])
def test_the_first_line_picks_the_template(tmp_path, first, other, dumps):
    # the first line's key order, arm form and separators pick the one
    # template the file's lines are matched against; a line of another
    # form or key order, or with other separators, is decoded by json, and
    # the records are the same either way
    lines = [dumps(first), dumps(other), json.dumps(other | {"query_id": "q2"}),
             dumps(first | {"query_id": "q3"})]
    path = write_lines(tmp_path / "d.jsonl", lines)
    assert [type(obj).__name__ for obj in read_jsonl(path)] == [
        "QueryRecord", "dict", "dict", "QueryRecord"]
    read = read_dataset(path).records
    with json_alone():
        assert read_dataset(path).records == read
    assert [rec.query_id for rec in read] == ["q0", "q1", "q2", "q3"]


def test_a_compact_list_form_file_and_its_sort_keys_copy_read_as_json_reads_them(tmp_path):
    # a list-form file written with the compact separators is read from its
    # text by the compact templates, in either key order
    raws = [raw_record(f"q{i}", [3, 4, 1][:i % 3 + 1], [5, 2] if i % 2 else None,
                       interest=f"i{i % 4}", market="US" if i % 3 else "DE") for i in range(30)]
    for sort_keys in (False, True):
        path = write_lines(tmp_path / f"d{sort_keys}.jsonl", [
            json.dumps({k: v for k, v in raw.items() if v is not None}, sort_keys=sort_keys,
                       separators=(",", ":")) for raw in raws])
        assert {type(obj) for obj in read_jsonl(path)} == {QueryRecord}
        read = read_dataset(path).records
        with json_alone():
            assert read_dataset(path).records == read
        assert read[1] == record("q1", [3, 4], [5, 2], sk("i1"), market="US")
        assert read[0].treatment is None and read[0].market == "DE"


def test_only_read_jsonl_hands_validation_a_record_as_it_is(tmp_path):
    # a QueryRecord, or a bytes arm, of an in-memory record is not a JSON
    # object or arm; a record of read_jsonl is taken as read
    path = write_lines(tmp_path / "d.jsonl", [json.dumps(raw_record("q0", [3], [4]))])
    [rec] = read_jsonl(path)
    assert validate_dataset(read_jsonl(path)).records == (rec,)
    with pytest.raises(DatasetValidationError) as exc:
        validate_dataset([rec, dict(raw_record("q1", [3]), control=b"\3\4"),
                          dual_raw("q2", [3], [4]) | {"control": {
                              "machine_labels": b"\3", "reference_labels": [4]}}])
    assert [(v.code, v.field, str(v)) for v in exc.value.violations] == [
        ("Error", None, "expected a JSON object, got QueryRecord"),
        ("MissingArm", "control",
         "control: expected a list of rank/label objects or a dual-label object"),
        ("MissingArm", "control",
         "control: dual-label form requires machine_labels and reference_labels")]


def test_read_dataset_gives_bytes_pages_in_both_arm_forms(tmp_path):
    path = write_lines(tmp_path / "d.jsonl", [
        json.dumps(raw_record("q0", [5, 1, 3], [4, 4, 2])),
        json.dumps(dual_raw("q1", [2, 5], [3, 5], [1], [4]))])
    q0, q1 = read_dataset(path).records
    assert (q0.control, q0.treatment, q0.control_reference) == (b"\5\1\3", b"\4\4\2", None)
    assert (q1.control, q1.control_reference, q1.treatment, q1.treatment_reference) == (
        b"\2\5", b"\3\5", b"\1", b"\4")
    pages = (q0.control, q0.treatment, q1.control, q1.treatment_reference)
    assert {type(p) for p in pages} == {bytes}
    # a bool or a float is no label, though bytes() would take True as 1
    for bad in (True, 2.5):
        write_lines(path, [json.dumps(raw_record("q0", [4, bad])),
                           json.dumps(dual_raw("q1", [4, 4], [bad, 4]))])
        with pytest.raises(DatasetValidationError) as exc:
            read_dataset(path)
        assert [(v.field, str(v)) for v in exc.value.violations] == [
            (field, f"label level must be an integer in [1, 5], got {bad!r}")
            for field in ("control", "control.reference_labels")]


def test_parse_violations_alone_are_reported(tmp_path):
    # the bad label of q1 is never reported: parse violations are raised
    # when the file ends, before validation reports its own
    path = write_lines(tmp_path / "d.jsonl", [
        json.dumps(raw_record("q0", [3])), json.dumps(raw_record("q1", [9])), "[1, 2]"])
    with pytest.raises(DatasetValidationError) as exc:
        read_dataset(path)
    assert [(v.code, v.field) for v in exc.value.violations] == [("Error", "line 3")]


def test_unknown_fields_still_warn(tmp_path):
    obj = dict(raw_record("q0", [3]), extra=1)
    path = write_lines(tmp_path / "d.jsonl", [json.dumps(obj)])
    with pytest.warns(UserWarning, match=r"line 1: ignoring unknown fields \['extra'\]"):
        dataset = read_dataset(path)
    assert len(dataset) == 1


def test_unknown_field_warns_once_with_its_count(tmp_path):
    lines = [json.dumps(dict(raw_record(f"q{i}", [3]), debug=i)) for i in range(1000)]
    path = write_lines(tmp_path / "d.jsonl", lines)
    with pytest.warns(UserWarning) as caught:
        dataset = read_dataset(path)
    assert len(dataset) == 1000
    assert [str(w.message) for w in caught] == [
        f"{path}: line 1: ignoring unknown fields ['debug'] (on 1000 lines)"]


def test_peak_memory_is_close_to_the_dataset(tmp_path):
    # ragged list-form pages: the raw dicts of the whole file are several
    # times the size of the validated records, so holding them all at once
    # would show as a peak far above the live result
    rng = np.random.default_rng(3)
    lines = []
    for i in range(2000):
        levels = rng.integers(1, 6, size=int(rng.integers(1, 26))).tolist()
        lines.append(json.dumps(raw_record(f"q{i}", levels, levels[::-1],
                                           interest=f"i{i % 50}")))
    path = write_lines(tmp_path / "d.jsonl", lines)
    gc.collect()
    tracemalloc.start()
    try:
        dataset = read_dataset(path)
        gc.collect()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset) == 2000
    assert peak <= 1.5 * live


@pytest.mark.parametrize("probe", ["as-written", "market-missing", "treatment-null"])
def test_record_schema_and_loader_agree(probe):
    # a record without market is valid (market defaults to ""); a null
    # treatment is not, as a null control is not
    jsonschema = pytest.importorskip("jsonschema")
    schema_path = Path(releval.__file__).parent / "schemas" / "dataset_record.schema.json"
    validator = jsonschema.Draft202012Validator(json.loads(schema_path.read_text()))
    obj = raw_record("q0", [3, 4], [4, 4])
    if probe == "market-missing":
        del obj["market"]
    elif probe == "treatment-null":
        obj["treatment"] = None
    try:
        validate_dataset([obj])
        loader_accepts = True
    except DatasetValidationError:
        loader_accepts = False
    assert validator.is_valid(obj) == loader_accepts == (probe != "treatment-null")


def _mixed_records(n, long_at=None):
    # every arm shape in turn: list-form or dual control, and no, list-form
    # or dual treatment; pages of 0 to 12 labels, one of 20000 at long_at
    rng = np.random.default_rng(n)
    out = []
    for i in range(n):
        length = 20_000 if i == long_at else i % 13
        def draw():
            return bytes(rng.integers(1, 6, size=length, dtype=np.uint8))
        shape = i % 6
        treatment = None if shape < 2 else draw()
        out.append(record(f"q{i}", draw(), treatment, stratum=sk(f"i{i % 3}", "tail"),
                          market=("US", "FR")[i % 2],
                          control_reference=draw() if shape % 2 else None,
                          treatment_reference=draw() if shape >= 4 else None))
    return out


@pytest.mark.parametrize("n", [dataset_io._WRITE_CHUNK - 1, dataset_io._WRITE_CHUNK,
                               dataset_io._WRITE_CHUNK + 1])
def test_write_dataset_at_the_chunk_edges(tmp_path, n):
    records = _mixed_records(n)
    path = tmp_path / "d.jsonl"
    write_dataset(EvalDataset(tuple(records)), path)
    assert path.read_bytes() == dataset_bytes(records)
    assert read_dataset(path).records == tuple(records)


def test_write_dataset_of_a_20000_label_page(tmp_path):
    # one long page amid short ones, in the second chunk
    records = _mixed_records(300, long_at=131)
    path = tmp_path / "d.jsonl"
    write_dataset(EvalDataset(tuple(records)), path)
    assert path.read_bytes() == dataset_bytes(records)


def test_write_dataset_of_no_records_is_empty(tmp_path):
    path = tmp_path / "d.jsonl"
    write_dataset(EvalDataset(()), path)
    assert path.read_bytes() == b""


PAGE_FIELDS = ["control", "treatment", "control_reference", "treatment_reference"]
# every entry that takes pages from outside the parser, with each page it takes
BOUNDARIES = [
    *(("label_agreement", name) for name in ("machine", "reference")),
    *(("write_dataset", arm) for arm in PAGE_FIELDS),
    *(("arm_scores", arm) for arm in PAGE_FIELDS),
    *(("apply_labeler", arm) for arm in ("control", "treatment"))]


def _rejected(tmp_path, boundary, field, bad_page, match):
    """``boundary`` given ``bad_page`` as its ``field`` page, and valid others,
    raises BadLabelValue matching ``match`` with the page's name."""
    name = "page" if boundary == "write_dataset" else field
    with pytest.raises(BadLabelValue, match=match.format(name=name)):
        if boundary == "label_agreement":
            pages = {"machine": b"\4\2", "reference": b"\4\4", field: bad_page}
            label_agreement(pages["machine"], pages["reference"])
            return
        fields = {"control": b"\3\4", "treatment": b"\4\4", "control_reference": b"\5\5",
                  "treatment_reference": b"\2\2", field: bad_page}
        dataset = EvalDataset((QueryRecord("q0", "US", sk("art"), **fields),))
        if boundary == "write_dataset":
            write_dataset(dataset, tmp_path / "d.jsonl")
        elif boundary == "arm_scores":
            arm_scores(dataset, field)
        else:
            apply_labeler(dataset.records, ConfusionMatrix.identity(), seed=1)


@pytest.mark.parametrize("bad", [0, 6, 255])
@pytest.mark.parametrize("boundary, field", BOUNDARIES)
def test_a_label_outside_1_to_5_is_bad_label_value(tmp_path, boundary, field, bad):
    # the first bad label is named, not the later 9; a page is checked before
    # its length is compared with another's. A digit is one byte: the writer
    # would write a wrong one for a label of 0 or 6 to 255
    _rejected(tmp_path, boundary, field, bytes([3, bad, 9]),
              match=f"^{{name}} label must be in \\[1, 5\\], got {bad}$")


@pytest.mark.parametrize("page", [
    [4, 2], (4, 2), (True, 2), [], bytearray(b"\4\2"), memoryview(b"\4\2"),
    np.array([4, 2], dtype=np.uint8), array("H", [4, 2]), np.array([[4, 2]], dtype=np.uint8),
    "\4\2",
], ids=["list", "tuple", "bool-tuple", "empty-list", "bytearray", "memoryview", "uint8-array",
        "uint16", "2-d", "str"])
@pytest.mark.parametrize("boundary, field", BOUNDARIES)
def test_a_page_that_is_not_bytes_is_bad_label_value(tmp_path, boundary, field, page):
    # bytes is the one page type: a page of any other type is never converted,
    # so (True, 2) is not labels 1, 2, and it raises neither ValueError nor TypeError
    _rejected(tmp_path, boundary, field, page,
              match=f"^{{name}} labels must be bytes, got {type(page).__name__}$")


@pytest.mark.parametrize("reference", [(), (3,), (3, 4, 5)])
@pytest.mark.parametrize("arm", ["control", "treatment"])
def test_write_dataset_rejects_reference_labels_of_another_length(tmp_path, arm, reference):
    # read_dataset rejects the line such a record gives, with this message
    rec = record("q0", (1, 2), (2, 2), **{f"{arm}_reference": reference})
    with pytest.raises(BadRankSequence) as err:
        write_dataset(EvalDataset((rec,)), tmp_path / "d.jsonl")
    assert str(err.value) == f"{arm}: machine and reference label arrays differ in length"
    assert (err.value.query_id, err.value.field) == ("q0", arm)


@pytest.mark.parametrize("arm", ["control", "treatment"])
def test_write_dataset_rejects_reference_labels_beside_no_page(tmp_path, arm):
    # a line has no place for reference labels without their page
    fields = {"control": b"\1\2", "treatment": b"\2\2", f"{arm}_reference": b"\3\3"}
    fields[arm] = None
    rec = QueryRecord("q0", "US", sk("art"), **fields)
    with pytest.raises(MissingArm) as err:
        write_dataset(EvalDataset((rec,)), tmp_path / "d.jsonl")
    assert (err.value.query_id, err.value.field) == ("q0", arm)
