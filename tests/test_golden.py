"""Golden reports: each command's output bytes on one small fixed input.

Every report and CSV is pinned by its sha256, so a change that moves a single
byte of any of them fails here. When a change alters an output on purpose,
record the new digest and say why in CHANGES.md.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from releval.cli import main

from conftest import dual_raw, raw_record

INTERESTS = ("art", "food")
POPULARITIES = ("head", "torso", "tail")


def _labels(i: int, length: int, step: int) -> list[int]:
    return [1 + (i * step + j * (j + 1)) % 5 for j in range(length)]


def _write_inputs(directory) -> None:
    # dual-label pages: 6 strata of 4 queries each, 2 markets, 6 labels a page
    dual = []
    for i in range(24):
        machine_c, machine_t = _labels(i, 6, 3), _labels(i, 6, 4)
        ref_c = [min(5, m + (i + j) % 2) for j, m in enumerate(machine_c)]
        ref_t = [max(1, m - (i * j) % 2) for j, m in enumerate(machine_t)]
        dual.append(dual_raw(f"q{i:02d}", machine_c, ref_c, machine_t, ref_t,
                             interest=INTERESTS[i % 2], popularity=POPULARITIES[i // 2 % 3],
                             market=("US", "DE")[i // 6 % 2]))
    # single-source ragged pages (short pages included) and one lone stratum
    ragged = [raw_record(f"r{i:02d}", _labels(i, 2 + i % 5, 2), _labels(i, 1 + i % 4, 3),
                         interest=INTERESTS[i % 2], popularity=POPULARITIES[i % 3])
              for i in range(17)]
    ragged.append(raw_record("lone", [4, 2], [5, 3], interest="misc", popularity="single"))
    for name, records in (("dual.jsonl", dual), ("ragged.jsonl", ragged)):
        (directory / name).write_text("".join(json.dumps(r) + "\n" for r in records),
                                      encoding="utf-8")
    weights = {"art": (0.25, 0.15, 0.1), "food": (0.2, 0.2, 0.1)}
    (directory / "design.json").write_text(json.dumps([
        {"interest": interest, "popularity": pop, "weight": weights[interest][p],
         "sigma": 0.05 + 0.02 * p}
        for interest in INTERESTS for p, pop in enumerate(POPULARITIES)]), encoding="utf-8")
    (directory / "spec.json").write_text(json.dumps({
        "k_depth": 5, "queries_per_stratum": 6, "market": "DE",
        "strata": [
            {"interest": "a", "popularity": "head", "weight": 0.6,
             "profile": {"kind": "curve", "mean_top": 4.2, "decay": 0.3}},
            {"interest": "b", "popularity": "tail", "weight": 0.4,
             "profile": {"kind": "categorical", "probs": [0.1, 0.2, 0.4, 0.2, 0.1]}},
        ]}), encoding="utf-8")
    (directory / "confusion.json").write_text(
        json.dumps({"calibrate": {"exact": 0.737, "within_one": 0.917}}), encoding="utf-8")
    (directory / "effect.json").write_text(json.dumps({"default": 0.3}), encoding="utf-8")


GOLDEN = {
    "metric": (["metric", "ragged.jsonl", "--k", "4"], [], {
        "stdout": "7c5f1c24590ed6b067d95185d3be265cec5bb7374440846c65f31d135774ec64",
    }),
    "evaluate-srs": (["evaluate", "dual.jsonl", "--by", "popularity"], [], {
        "stdout": "2b6564592354ece7cfe2b36fafeb66ef01fe2a315e4a9464f6f8948ae3075c90",
    }),
    "evaluate-stratified": (["evaluate", "dual.jsonl", "--estimator", "stratified",
                             "--design", "design.json", "--out", "evaluate.json"],
                            ["evaluate.json"], {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "evaluate.json": "89d77169ac7133d22999cb4c80915e21b5b0949670f1c3a7eb4e46346eabeaaa",
    }),
    # an srs topline beside the design's stratified MDE block
    "evaluate-srs-design": (["evaluate", "dual.jsonl", "--design", "design.json"], [], {
        "stdout": "bc9e06b76cf0f338ad55edf83d9b53a492692cc69c4d9eba1b9e2695f323f29f",
    }),
    "evaluate-by-stratum": (["evaluate", "ragged.jsonl", "--by", "stratum", "--k", "3"], [], {
        "stdout": "334efe645d7156a41fa87531731fa3da481c7513d371a43b73dc1db1895efb82",
    }),
    "align": (["align", "dual.jsonl", "--by", "market", "--errors-csv", "errors.csv"],
              ["errors.csv"], {
        "stdout": "7e30190237c5ce246b2e0c1205e306e49a97f407fa764420611ddbdc1d1969b6",
        "errors.csv": "998c2b63ed5cb5880a9cb1636769a30b669b77c30a6ba631c6e965bd77aac59f",
    }),
    "align-pooled": (["align", "dual.jsonl", "--by", "popularity"], [], {
        "stdout": "fe43da07ac7a21db97a8ecbfed728a5179d678a5f8610d7708a9c23a5d7b01ab",
    }),
    "design": (["design", "--strata", "design.json", "--budget", "40"], [], {
        "stdout": "41b556afe94a7046bef72feb3b79de6b835ffdbcb2d3d5f34882d616f619d82a",
    }),
    # two rounds pin three strata at the minimum
    "design-pinned": (["design", "--strata", "design.json", "--budget", "40",
                       "--min-per-stratum", "6"], [], {
        "stdout": "61aabb198feb815aa2756ba154099f388ce49e03330c61bac1a35d1888948846",
    }),
    "simulate": (["simulate", "--spec", "spec.json", "--confusion", "confusion.json",
                  "--effect", "effect.json", "--seed", "7", "--rho-shared", "0.5",
                  "--out", "simulated.jsonl"], ["simulated.jsonl"], {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "simulated.jsonl": "71fc91d196132497e786d661eac0bc556cb34f401010cb73b4b8e3e6d3d1b1f5",
    }),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_report_bytes_are_pinned(tmp_path, monkeypatch, name):
    # relative paths: the evaluate report records its --design path as given
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    args, files, expected = GOLDEN[name]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    digests = {"stdout": hashlib.sha256(result.stdout_bytes).hexdigest()}
    for file in files:
        digests[file] = hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
    assert digests == expected


def _bad_records() -> list[dict]:
    # one record per violation the record parser emits, in file order
    def item(rank, label=3):
        return {"rank": rank, "label": label}

    return [
        dict(raw_record("qid", [3]), query_id=7),
        raw_record("", [3]),
        dict(raw_record("market", [3]), market=5),
        dict(raw_record("interest", [3]), stratum={"interest": 3, "popularity": "head"}),
        raw_record("popularity", [3], [3], popularity="warm"),
        dict(raw_record("stratum-list", [3], [3]), stratum=["art", "head"]),
        dict(raw_record("no-interest", [3], [3]), stratum={"popularity": "tail"}),
        dict(raw_record("not-object", [3]), control=[item(1), 5]),
        dict(raw_record("no-rank", [3]), control=[item(1), {"label": 3}]),
        dict(raw_record("no-label", [3]), control=[{"rank": 1}]),
        dict(raw_record("true-rank", [3]), control=[item(1), item(True)]),
        dict(raw_record("float-rank", [3]), control=[item(1.0), item(2)]),
        dict(raw_record("rank-gap", [3]), control=[item(1), item(3)]),
        raw_record("list-label", [4, 6], [2, 2.5]),
        dual_raw("dual-label", [4, 0], [4, 4], [3, 3], [True, 3]),
        dual_raw("dual-ref-label", [4, 4], [4, "4"], [3, 3], [3, 3]),
        dual_raw("dual-length", [4, 4], [4], [3], [3]),
        dict(dual_raw("dual-missing", [4], [4]), control={"machine_labels": [4]}),
        dict(raw_record("scalar-arm", [3]), treatment=5),
        {k: v for k, v in raw_record("no-control", [3], [3]).items() if k != "control"},
        raw_record("dup", [3], [4]),
        raw_record("dup", [2], [5]),
        raw_record("empty", [], [4]),
        raw_record("one-arm", [4]),
        raw_record("ok", [5, 4], [4, 5]),
    ]


VIOLATIONS = {
    # blank and padded lines are read as json.loads reads them: only space,
    # tab, CR and LF count as JSON whitespace around a value
    "lines": ("\n".join(['{"query_id": "q0", "control": [', " \x0c", "[1, 2]",
                         " " + json.dumps(raw_record("fine", [3], [4])), '"text"', "{}} ",
                         json.dumps(raw_record("feed", [3], [4])) + "\x0c", "\ufeff{}"]) + "\n",
              "62cd675f2af4e03625e154cb06442f291b47ae7af4a34ec91dff16517158f62c"),
    "records": ("".join(json.dumps(r) + "\n" for r in _bad_records()),
                "f3348e144b612b7215d6bee67364415c9104402b478c640ee8302b3bc9755025"),
}


@pytest.mark.parametrize("name", VIOLATIONS)
def test_violation_payloads_are_pinned(tmp_path, name):
    # every violation the parser emits, in one --error-json payload per input:
    # a file with malformed lines reports only those, so lines and records
    # each have their own input
    text, digest = VIOLATIONS[name]
    path = tmp_path / "bad.jsonl"
    path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["evaluate", str(path), "--error-json"])
    assert result.exit_code == 1, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest
