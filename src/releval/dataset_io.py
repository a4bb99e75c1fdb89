"""File formats: JSONL datasets and JSON design, spec and report files.

Datasets are JSONL (one query object per line, streamable); reports are
canonical JSON (sorted keys, fixed indentation, trailing newline) so that
re-running with the same inputs and seed yields byte-identical files.
JSON Schema files for every format ship under releval/schemas/.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from itertools import accumulate
from pathlib import Path
from typing import Any, Iterator, Mapping

# the spec loaders build these modules' types; reading and writing datasets
# needs neither, so their code runs only when a loader first reads them
from . import sampling, simulator
from .core import (
    DEFAULT_K_DEPTH,
    EvalDataset,
    PopularitySegment,
    StratumKey,
    _is_text,
    check_unique_strata,
    validate_dataset,
)
from .errors import (BadLabelValue, BadRankSequence, BadSpec, DatasetValidationError,
                     MissingArm, RecordError)

KNOWN_RECORD_FIELDS = {"query_id", "market", "stratum", "control", "treatment"}
# decodes one JSON value at the start of a string, returning it and its end
_raw_decode = json.JSONDecoder().raw_decode
# what json raises for a text it cannot decode: a JSONDecodeError (a
# ValueError) for malformed JSON, a bare ValueError for an integer of more
# digits than int() converts (sys.get_int_max_str_digits()) and a
# RecursionError for a value nested deeper than the interpreter's stack
_UNDECODABLE = (ValueError, RecursionError)


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield the object on each line of a JSONL file, one at a time.

    Malformed lines, and lines json cannot decode for their size, are
    collected with their line numbers and raised together, as one
    DatasetValidationError, once the file is exhausted.
    Unknown record fields are counted as the file is read; at its end each
    field name gets one warning, with the number of lines that carry it and
    the first of them.
    """
    violations: list[RecordError] = []
    unknown: dict[str, list[int]] = {}  # field name -> [line count, first line]
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            # a line that is one value followed by its newline decodes directly;
            # any other line goes through json.loads, which skips blank
            # padding and words every error as it always has
            try:
                obj, end = _raw_decode(line)
                direct = end == len(line) or line[end:] == "\n"
            except _UNDECODABLE:
                direct = False
            if not direct:
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except _UNDECODABLE as err:
                    violations.append(RecordError(
                        f"line {lineno}: malformed JSON ({getattr(err, 'msg', err)})",
                        field=f"line {lineno}"))
                    continue
            if type(obj) is not dict:
                violations.append(RecordError(
                    f"line {lineno}: expected a JSON object, got {type(obj).__name__}",
                    field=f"line {lineno}"))
                continue
            if not KNOWN_RECORD_FIELDS.issuperset(obj):
                for name in obj.keys() - KNOWN_RECORD_FIELDS:
                    seen = unknown.setdefault(name, [0, lineno])
                    seen[0] += 1
            yield obj
    for name, (count, first) in sorted(unknown.items()):
        warnings.warn(f"{path}: line {first}: ignoring unknown fields {[name]} "
                      f"(on {count} line{'s' if count > 1 else ''})")
    if violations:
        raise DatasetValidationError(violations)


def read_dataset(path: str | Path, k_depth: int = DEFAULT_K_DEPTH,
                 paired: bool = False) -> EvalDataset:
    """Stream a JSONL file into validation: each raw object is dropped once checked.

    A file with malformed lines reports only those, as it is read in full
    before any record violation is raised.
    """
    return validate_dataset(read_jsonl(path), k_depth=k_depth, paired=paired)


# records formatted per chunk: it bounds the chunk's arrays and text
_WRITE_CHUNK = 128
# a record line, fields in sort_keys order; the treatment field, when the
# record has one, carries its own key
_LINE = '{"control": %s, "market": %s, "query_id": %s, "stratum": %s%s}\n'
_DIGITS = bytes.maketrans(b"\1\2\3\4\5", b"12345")  # each label byte to its ASCII digit


def _page_texts(pages: list[bytes | None]) -> list[str | None]:
    """Each page's labels as json writes a list's items ("4, 2, 5"); None stays None.

    Each label is a cell "d, " of one buffer, decoded once, and a page's text is
    its cells less the last ", ". A page not one byte a label in 1..5 raises BadLabelValue.
    """
    try:
        labels = b"".join([page for page in pages if page is not None])
        ends = list(accumulate(0 if page is None else 3 * len(page) for page in pages))
        valid = 3 * len(labels) == ends[-1] and not labels.translate(None, b"\1\2\3\4\5")
    except TypeError:  # a page that is not bytes-like
        valid = False
    if not valid:
        raise BadLabelValue("label level must be an integer in [1, 5]")
    cells = bytearray(b"0, ") * len(labels)
    cells[::3] = labels.translate(_DIGITS)
    text = cells.decode("ascii")
    return [None if page is None else text[start:end - 2] if end > start else ""
            for page, start, end in zip(pages, [0] + ends, ends)]


def _arm_json(arm: str, page: str | None, reference: str | None, query_id: str) -> str:
    """An arm's JSON from its pages' texts: a dual-label object when it has
    reference labels, else a ranked list of {"label": L, "rank": r} objects."""
    if reference is None:
        return "[" + ", ".join(f'{{"label": {d}, "rank": {r}}}'
                               for r, d in enumerate(page[::3], start=1)) + "]"
    if page is None:
        raise MissingArm(f"{arm}: reference labels without the arm's labels",
                         query_id=query_id, field=arm)
    if len(page) != len(reference):  # one digit a label: as long iff as many labels
        raise BadRankSequence(f"{arm}: machine and reference label arrays differ in length",
                              query_id=query_id, field=arm)
    return '{"machine_labels": [%s], "reference_labels": [%s]}' % (page, reference)


def write_dataset(dataset: EvalDataset, path: str | Path) -> None:
    """Write ``dataset`` as JSONL, one record a line: the bytes json.dumps(obj,
    sort_keys=True) gives for its JSON object, labels formatted as bytes
    _WRITE_CHUNK records at a time and strings by json, each distinct market
    and stratum once. Reference labels read_dataset could not pair with their
    page, of another length or beside no page, raise as it would.
    """
    records = dataset.records
    markets = {market: json.dumps(market) for market in {rec.market for rec in records}}
    # strata by id: the dataset keeps each alive, and a StratumKey hashes in Python
    strata = {id(s): json.dumps({"interest": s.interest, "popularity": s.popularity.value})
              for s in {id(rec.stratum): rec.stratum for rec in records}.values()}
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(records), _WRITE_CHUNK):
            chunk = records[lo:lo + _WRITE_CHUNK]
            lines = []  # drops the last chunk's lines before this chunk's texts are made
            arms = iter(_page_texts([page for rec in chunk for page in (
                rec.control, rec.control_reference, rec.treatment, rec.treatment_reference)]))
            for control, control_ref, treatment, treatment_ref, rec in zip(*[arms] * 4, chunk):
                if treatment is not None or treatment_ref is not None:
                    treatment = ', "treatment": ' + _arm_json("treatment", treatment,
                                                              treatment_ref, rec.query_id)
                lines.append(_LINE % (_arm_json("control", control, control_ref, rec.query_id),
                                      markets[rec.market], json.dumps(rec.query_id),
                                      strata[id(rec.stratum)], treatment or ""))
            fh.write("".join(lines))


def _dataclass_fields(obj: Any) -> dict:
    # json's hook: a dataclass is written as its fields; anything else raises TypeError
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def canonical_json(obj: Any) -> str:
    """Deterministic JSON rendering used for all report files; a str enum is its value."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                      default=_dataclass_fields) + "\n"


# -- design / spec files ------------------------------------------------------
# Fields take exactly the JSON types their schemas declare: a number is an
# int or float (never a bool), and nothing is coerced with int(), float() or
# str().

def _json_number(value: Any, name: str) -> float:
    if type(value) not in (int, float):
        raise BadSpec(f"{name} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError as err:
        raise BadSpec(f"{name} is out of range, got {value!r}") from err


def _json_int(value: Any, name: str) -> int:
    if type(value) is not int:
        raise BadSpec(f"{name} must be a JSON integer, got {value!r}")
    return value


def _json_str(value: Any, name: str) -> str:
    if type(value) is not str:
        raise BadSpec(f"{name} must be a JSON string, got {value!r}")
    if not _is_text(value):
        raise BadSpec(f"{name} must be UTF-8 text, got {value!r}")
    return value


def _stratum_key(obj: Mapping[str, Any]) -> StratumKey:
    try:
        return StratumKey(interest=_json_str(obj["interest"], "interest"),
                          popularity=PopularitySegment(_json_str(obj["popularity"], "popularity")))
    except (KeyError, ValueError, RecordError) as err:  # RecordError: an empty interest
        raise BadSpec(f"invalid stratum reference {obj!r}") from err


def _optional_number(obj: Mapping[str, Any], key: str) -> float | None:
    # an absent key is None; a present null is not a number
    return _json_number(obj[key], key) if key in obj else None


def _load_json(path: str | Path) -> Any:
    """The JSON value in a spec file.

    The CLI maps OSError and JSONDecodeError to an I/O error (exit 2); a file
    json cannot decode for its size, which raises neither, is an OSError.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except _UNDECODABLE as err:
        raise OSError(f"{path}: malformed JSON ({err})") from err


def load_design(path: str | Path) -> list[sampling.StratumSpec]:
    """Strata design file: JSON list of {interest, popularity, weight, sigma?, mu?}."""
    raw = _load_json(path)
    if not isinstance(raw, list) or not raw:
        raise BadSpec("design file must be a non-empty JSON list of stratum objects")
    try:
        specs = [sampling.StratumSpec(
            key=_stratum_key(obj),
            weight=_json_number(obj["weight"], "weight"),
            sigma=_optional_number(obj, "sigma"),
            mu=_optional_number(obj, "mu"),
        ) for obj in raw]
    except (KeyError, TypeError, ValueError) as err:
        raise BadSpec(f"invalid design entry: {err!r}") from err
    check_unique_strata([s.key for s in specs], "design file")
    return specs


def load_population_spec(path: str | Path) -> simulator.PopulationSpec:
    """Population spec JSON. k_depth defaults to DEFAULT_K_DEPTH; every profile
    names its kind; a size past MAX_K_DEPTH or MAX_QUERIES_PER_STRATUM is a BadSpec."""
    raw = _load_json(path)
    try:
        strata = []
        for obj in raw["strata"]:
            prof = obj["profile"]
            kind = prof["kind"]
            if kind == "categorical":
                profile = simulator.LabelProfile(kind=kind, probs=_as_prob_tuple(prof["probs"]))
            else:
                profile = simulator.LabelProfile(
                    kind=kind, mean_top=_json_number(prof["mean_top"], "mean_top"),
                    decay=_json_number(prof.get("decay", 0.0), "decay"))
            strata.append(simulator.StratumProfile(key=_stratum_key(obj),
                                                   weight=_json_number(obj["weight"], "weight"),
                                                   profile=profile))
        return simulator.PopulationSpec(
            strata=tuple(strata),
            queries_per_stratum=_json_int(raw["queries_per_stratum"], "queries_per_stratum"),
            market=_json_str(raw.get("market", "US"), "market"),
            k_depth=_json_int(raw.get("k_depth", DEFAULT_K_DEPTH), "k_depth"))
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise BadSpec(f"invalid population spec: {err}") from err


def _as_prob_tuple(probs) -> tuple:
    if probs and isinstance(probs[0], list):
        return tuple(tuple(_json_number(p, "probs") for p in row) for row in probs)
    return tuple(_json_number(p, "probs") for p in probs)


def load_confusion(path: str | Path) -> simulator.ConfusionMatrix:
    """Confusion file: {"rows": 5x5} or {"calibrate": {"exact":, "within_one":}}, not both."""
    raw = _load_json(path)
    if not isinstance(raw, dict) or ("calibrate" in raw) == ("rows" in raw):
        raise BadSpec("confusion file must contain either 'rows' or 'calibrate', not both")
    try:
        if "calibrate" in raw:
            cal = raw["calibrate"]
            return simulator.calibrate_confusion(_json_number(cal["exact"], "exact"),
                                                 _json_number(cal["within_one"], "within_one"))
        return simulator.ConfusionMatrix(rows=tuple(tuple(_json_number(p, "rows") for p in row)
                                                    for row in raw["rows"]))
    except (KeyError, TypeError, ValueError) as err:
        raise BadSpec(f"invalid confusion file: {err!r}") from err


def load_effect(path: str | Path) -> simulator.EffectSpec:
    """Effect file: {"default": float, "shifts": [{interest, popularity, shift}]}."""
    raw = _load_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("shifts", []), list):
        raise BadSpec("effect file must be a JSON object whose 'shifts' is a list")
    try:
        shifts = [(_stratum_key(obj), _json_number(obj["shift"], "shift"))
                  for obj in raw.get("shifts", [])]
        default = _json_number(raw.get("default", 0.0), "default")
    except (KeyError, TypeError, ValueError) as err:
        raise BadSpec(f"invalid effect file: {err!r}") from err
    check_unique_strata([key for key, _ in shifts], "effect file")
    return simulator.EffectSpec(shifts=dict(shifts), default=default)
