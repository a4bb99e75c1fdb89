import itertools
import json
from types import MappingProxyType

import pytest

from releval.core import (
    EvalDataset,
    PopularitySegment,
    StratumKey,
    validate_dataset,
)
from releval.dataset_io import read_dataset, write_dataset
from releval.errors import (
    BadLabelValue,
    DatasetValidationError,
    OutOfDomain,
)
from releval.metrics import sdcg_at_k

from conftest import dual_raw, page, raw_record, record, sk


def test_relevance_label_range():
    # a page is checked once, where its record is parsed, in both arm forms
    good = [1, 2, 3, 4, 5]
    ds = validate_dataset([raw_record("q1", good), dual_raw("q2", good, good[::-1])])
    assert ds.records[0].control == ds.records[1].control == bytes((1, 2, 3, 4, 5))
    assert ds.records[1].control_reference == bytes((5, 4, 3, 2, 1))
    assert all(type(v) is int for rec in ds.records for v in rec.control)
    for bad in (0, 6, -1, 2.5, "3", True):
        raws = [raw_record("q1", [4, bad]), dual_raw("q2", [4, 4], [4, bad])]
        with pytest.raises(DatasetValidationError) as exc:
            validate_dataset(raws)
        assert [(v.code, v.query_id, v.field, str(v)) for v in exc.value.violations] == [
            ("BadLabelValue", qid, field, f"label level must be an integer in [1, 5], got {bad!r}")
            for qid, field in (("q1", "control"), ("q2", "control.reference_labels"))]


def test_stratum_key_requires_interest():
    with pytest.raises(BadLabelValue):
        StratumKey(interest="", popularity=PopularitySegment.HEAD)


def test_validate_two_good_paired_records():
    raws = [raw_record("q1", [5, 4], [4, 4]), raw_record("q2", [3, 2], [3, 3])]
    ds = validate_dataset(raws, k_depth=2, paired=True)
    assert len(ds) == 2
    assert ds.records[0].stratum == sk("art")
    assert ds.records[1].treatment == bytes((3, 3))


def test_a_record_that_is_not_an_object_is_a_violation_among_the_others():
    # worded as read_jsonl words a line that is not a JSON object; a mapping
    # of another type is a record
    raws = [5, raw_record("q1", [0]), None, ["q2"], MappingProxyType(raw_record("q3", [4]))]
    with pytest.raises(DatasetValidationError) as exc:
        validate_dataset(raws)
    assert [(v.code, v.query_id, v.field, str(v)) for v in exc.value.violations] == [
        ("Error", None, None, f"expected a JSON object, got {kind}")
        for kind in ("int", "NoneType", "list")] + [
        ("BadLabelValue", "q1", "control", "label level must be an integer in [1, 5], got 0")]


def test_ranked_page_from_entries_checks_sequence():
    # a page given as ranked entries becomes bytes of its labels in rank order
    ds = validate_dataset([raw_record("q1", [5, 3])])
    assert ds.records[0].control == bytes((5, 3))
    # a gap, then out of order, a repeat, rank 0 and ranks that are not JSON integers
    for ranks, field in (([1, 3], "control"), ([2, 1], "control"), ([1, 1], "control"),
                         ([0], "control"), ([True], "control[0]"), ([1.0], "control[0]")):
        raw = raw_record("q1", [5, 4][:len(ranks)])
        for entry, rank in zip(raw["control"], ranks):
            entry["rank"] = rank
        with pytest.raises(DatasetValidationError) as exc:
            validate_dataset([raw])
        assert [(v.code, v.query_id, v.field) for v in exc.value.violations] == [
            ("BadRankSequence", "q1", field)]


def test_validate_reports_rank_gap():
    raw = raw_record("q1", [5, 4])
    raw["control"][1]["rank"] = 3
    with pytest.raises(DatasetValidationError) as exc:
        validate_dataset([raw])
    codes = [v.code for v in exc.value.violations]
    assert codes == ["BadRankSequence"]
    assert exc.value.violations[0].query_id == "q1"


def test_validate_reports_bad_label():
    raw = raw_record("q1", [5, 6])
    with pytest.raises(DatasetValidationError) as exc:
        validate_dataset([raw])
    assert [v.code for v in exc.value.violations] == ["BadLabelValue"]


@pytest.mark.parametrize("key, value, code, field", [
    ("label", 3.9, "BadLabelValue", "control"),
    ("label", True, "BadLabelValue", "control"),
    ("label", "3", "BadLabelValue", "control"),
    ("label", None, "BadLabelValue", "control"),
    ("label", [3], "BadLabelValue", "control"),
    ("rank", 2.0, "BadRankSequence", "control[1]"),
    ("rank", True, "BadRankSequence", "control[1]"),
    ("rank", "2", "BadRankSequence", "control[1]"),
])
def test_list_form_requires_json_integers(key, value, code, field):
    # the list form is held to the same rule as the dual-label form: no coercion
    raw = raw_record("q1", [5, 4])
    raw["control"][1][key] = value
    with pytest.raises(DatasetValidationError) as exc:
        validate_dataset([raw])
    assert [(v.code, v.field) for v in exc.value.violations] == [(code, field)]


@pytest.mark.parametrize("key, value, field", [
    ("query_id", None, "query_id"),
    ("query_id", 7, "query_id"),
    ("market", None, "market"),
    ("market", 1, "market"),
    ("interest", None, "stratum.interest"),
    ("interest", 3, "stratum.interest"),
])
def test_identity_fields_must_be_strings(key, value, field):
    # a non-string is reported, never turned into a string such as "None"
    raw = raw_record("q1", [5, 4])
    (raw["stratum"] if key == "interest" else raw)[key] = value
    with pytest.raises(DatasetValidationError) as exc:
        validate_dataset([raw])
    assert [(v.code, v.field) for v in exc.value.violations] == [("BadLabelValue", field)]


@pytest.mark.parametrize("value, shown", [
    (0, "0"), (False, "False"), ("", "''"), ([], "[]"), (None, "None"), ("missing", "{}"),
], ids=["zero", "false", "empty-string", "empty-list", "null", "missing"])
def test_a_stratum_that_is_not_an_object_is_shown_as_given(value, shown):
    # a falsy stratum is reported as itself, not as the {} a missing one reads as
    raw = raw_record("q1", [5, 4])
    if value == "missing":
        del raw["stratum"]
    else:
        raw["stratum"] = value
    with pytest.raises(DatasetValidationError) as exc:
        validate_dataset([raw])
    [violation] = exc.value.violations
    assert (violation.field, str(violation)) == ("stratum", f"invalid stratum {shown}")


def test_validate_reports_all_violations_not_just_first():
    raws = [
        raw_record("q1", [5, 6]),          # bad label
        raw_record("q2", [5, 4]),
        raw_record("q2", [5, 4]),          # duplicate id
        raw_record("q3", [5, 4]),          # missing treatment in paired mode
    ]
    with pytest.raises(DatasetValidationError) as exc:
        validate_dataset(raws, paired=True)
    codes = sorted(v.code for v in exc.value.violations)
    assert "BadLabelValue" in codes
    assert "DuplicateQueryId" in codes
    assert "MissingArm" in codes
    assert len(codes) >= 4  # q1 also lacks a treatment arm


def test_paired_mode_rejects_empty_pages():
    raw = raw_record("q1", [], [])
    with pytest.raises(DatasetValidationError) as exc:
        validate_dataset([raw], paired=True)
    assert {v.code for v in exc.value.violations} == {"EmptyPage"}
    # single-arm mode accepts a short/empty page; scoring rejects it later
    assert len(validate_dataset([raw_record("q1", [])])) == 1


def test_validation_is_order_independent():
    raws = [
        raw_record("q1", [5, 6]),
        raw_record("q2", [5, 4]),
        raw_record("q2", [3, 3]),
        raw_record("q4", [1, 2]),
    ]
    baseline = None
    for perm in itertools.permutations(raws):
        with pytest.raises(DatasetValidationError) as exc:
            validate_dataset(list(perm))
        observed = sorted((v.code, v.query_id) for v in exc.value.violations)
        if baseline is None:
            baseline = observed
        assert observed == baseline


def test_dataset_roundtrip_is_lossless(tmp_path):
    raws = [raw_record("q1", [5, 4, 3], [4, 4, 4], interest="beauty", popularity="tail"),
            raw_record("q2", [1, 2], market="FR")]
    ds = validate_dataset(raws, k_depth=3)
    path = tmp_path / "ds.jsonl"
    write_dataset(ds, path)
    again = read_dataset(path, k_depth=3)
    assert again == ds
    # and a second round-trip produces identical bytes
    path2 = tmp_path / "ds2.jsonl"
    write_dataset(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_dual_label_form_roundtrip(tmp_path):
    rec = record("q1", page(5, 4), page(4, 4),
                 control_reference=page(5, 5), treatment_reference=page(4, 5))
    ds = EvalDataset(records=(rec,), k_depth=2)
    path = tmp_path / "dual.jsonl"
    write_dataset(ds, path)
    again = read_dataset(path, k_depth=2)
    assert again == ds
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert obj["control"] == {"machine_labels": [5, 4], "reference_labels": [5, 5]}


def test_market_is_free_form():
    ds = validate_dataset([raw_record("q1", [5], market="BR")])
    assert ds.records[0].market == "BR"


def test_record_types_are_slotted():
    # slotted instances carry no per-instance __dict__
    rec = record("q1", page(5, 4), page(4, 4))
    for obj in (rec, rec.stratum, rec.control):
        assert not hasattr(obj, "__dict__")


def test_depth_below_one_is_checked_before_any_record_is_drawn():
    def records():
        raise AssertionError("a record was drawn")
        yield

    for k in (0, -1):
        with pytest.raises(OutOfDomain):
            validate_dataset(records(), k_depth=k)
        with pytest.raises(OutOfDomain):
            EvalDataset(records=(), k_depth=k)


@pytest.mark.parametrize("k_depth", [2.5, 3.0, True, "3", None])
def test_a_depth_that_is_not_an_int_is_out_of_domain(k_depth):
    # never coerced: 3.0 is not the depth 3, nor True the depth 1
    for check in (lambda: validate_dataset([raw_record("q1", [4, 5, 3])], k_depth=k_depth),
                  lambda: EvalDataset(records=(), k_depth=k_depth),
                  lambda: sdcg_at_k(bytes((4, 5, 3)), k_depth)):
        with pytest.raises(OutOfDomain) as err:
            check()
        assert str(err.value) == f"k_depth must be an integer, got {k_depth!r}"


@pytest.mark.parametrize("raw, field", [
    (dict(raw_record("q1", [4]), stratum=MappingProxyType({"interest": "art",
                                                           "popularity": "head"})),
     "stratum"),
    (dict(raw_record("q1", [4]), control=({"rank": 1, "label": 4},)), "control"),
    (dict(dual_raw("q1", [4], [4]), control=MappingProxyType(
        {"machine_labels": [4], "reference_labels": [4]})), "control"),
    (dual_raw("q1", (4,), (4,)), "control"),
], ids=["stratum-mapping", "arm-tuple", "arm-mapping", "label-arrays-tuples"])
def test_containers_json_does_not_give_are_violations(raw, field):
    # records are what JSON decodes to: an object is a dict and an array a list
    with pytest.raises(DatasetValidationError) as err:
        validate_dataset([raw])
    [violation] = err.value.violations
    assert (violation.query_id, violation.field) == ("q1", field)


@pytest.mark.parametrize("raw, field", [
    (raw_record("q\ud800", [4]), "query_id"),
    (raw_record("q1", [4], market="D\udfff"), "market"),
    (raw_record("q1", [4], interest="art\ud800"), "stratum.interest"),
], ids=["query-id", "market", "interest"])
def test_lone_surrogate_is_bad_label_value(raw, field):
    # a JSON "\ud800" escape decodes to a str that UTF-8 cannot encode; each
    # record that repeats it is a violation of its own
    second = dict(raw, query_id=raw["query_id"] + "-2")
    with pytest.raises(DatasetValidationError) as err:
        validate_dataset([raw, second])
    assert [(type(v), v.field) for v in err.value.violations] == [(BadLabelValue, field)] * 2


def test_non_ascii_text_is_accepted():
    raw = raw_record("q\u00e9\U0001f600", [4], interest="\u00e9t\u00e9", market="\u65e5")
    [rec] = validate_dataset([raw]).records
    assert (rec.query_id, rec.market, rec.stratum.interest) == ("q\u00e9\U0001f600", "\u65e5",
                                                                "\u00e9t\u00e9")


def _fresh(text: str) -> str:
    # an equal string that is a distinct object, as each parsed line gives
    return "".join(list(text))


def test_equal_strata_and_markets_share_one_object():
    raws = [raw_record(f"q{i}", [4, 3], interest=_fresh("travel"), popularity=_fresh("head"),
                       market=_fresh("DE")) for i in range(4)]
    raws.append(raw_record("q9", [4], interest=_fresh("travel"), popularity="tail",
                           market=_fresh("US")))
    records = validate_dataset(raws).records
    assert len({id(r.stratum) for r in records[:4]}) == 1
    assert len({id(r.market) for r in records[:4]}) == 1
    assert records[4].stratum != records[0].stratum and records[4].market == "US"


def test_each_validation_interns_on_its_own():
    raws = [raw_record("q1", [4]), raw_record("q2", [3])]
    first, second = validate_dataset(raws).records, validate_dataset(raws).records
    assert first[0].stratum is first[1].stratum
    assert first[0].stratum == second[0].stratum
    assert first[0].stratum is not second[0].stratum
