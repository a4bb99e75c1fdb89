"""JSONL reading: records stream into validation one line at a time."""

import gc
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import releval
from releval.core import validate_dataset
from releval.dataset_io import read_dataset, read_jsonl
from releval.errors import DatasetValidationError

from conftest import raw_record


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def test_read_jsonl_yields_records_before_the_file_ends(tmp_path):
    path = write_lines(tmp_path / "d.jsonl", [
        json.dumps(raw_record("q0", [3])), "{not json", json.dumps(raw_record("q1", [4]))])
    records = read_jsonl(path)
    assert next(records)["query_id"] == "q0"
    assert next(records)["query_id"] == "q1"
    with pytest.raises(DatasetValidationError) as exc:
        next(records)
    assert [v.field for v in exc.value.violations] == ["line 2"]


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
