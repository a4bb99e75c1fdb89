"""File formats: JSONL datasets and JSON design, spec and report files.

Datasets are JSONL (one query object per line, streamable); reports are
canonical JSON (sorted keys, fixed indentation, trailing newline) so that
re-running with the same inputs and seed yields byte-identical files.
JSON Schema files for every format ship under releval/schemas/.
"""

from __future__ import annotations

import dataclasses
import json
import re
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
    ParsedLines,
    PopularitySegment,
    QueryRecord,
    StratumKey,
    check_name,
    check_pages,
    check_unique_strata,
    stratum_key,
    validate_dataset,
)
from .errors import BadRankSequence, BadSpec, DatasetValidationError, MissingArm, RecordError

KNOWN_RECORD_FIELDS = {"query_id", "market", "stratum", "control", "treatment"}
# decodes one JSON value at the start of a string, returning it and its end
_raw_decode = json.JSONDecoder().raw_decode
# what json raises for a text it cannot decode: a JSONDecodeError (a
# ValueError) for malformed JSON, a bare ValueError for an integer of more
# digits than int() converts (sys.get_int_max_str_digits()) and a
# RecursionError for a value nested deeper than the interpreter's stack
_UNDECODABLE = (ValueError, RecursionError)

# A record line as json.dumps writes it, matched whole by a template (see
# _template), each field a named group. A string holds no escape and no
# control character, so its text is its value; a query id and an interest
# hold one character or more, and a popularity is known. Labels are [1-5] and
# ranks [0-9]+, not \d, which takes any Unicode digit json rejects.
_TEXT = r'"(?P<%s>[^"\\\x00-\x1f]%s)"'
_FIELDS = {"query_id": r'"query_id": ' + _TEXT % ("query_id", "+"),
           "market": r'"market": ' + _TEXT % ("market", "*"),
           "stratum": (r'"stratum": \{"interest": ' + _TEXT % ("interest", "+")
                       + r', "popularity": "(?P<popularity>%s)"\}' % "|".join(PopularitySegment))}
_KEY_ORDERS = {  # each key order by the text its lines start with
    '{"query_id"': (r'\{%(query_id)s, %(market)s, %(stratum)s, "control": %(control)s'
                    r'(?:, "treatment": %(treatment)s)?\}\n?'),
    '{"control"': (r'\{"control": %(control)s, %(market)s, %(query_id)s, %(stratum)s'
                   r'(?:, "treatment": %(treatment)s)?\}\n?'),
}
# a list-form arm, its items' keys in either order (rank first, or label first
# as sort_keys writes them), and a dual-label arm of one label or more an array
_LIST_ARM = (r'(?P<%(arm)s>\[\{"rank": [0-9]+, "label": [1-5]\}'
             r'(?:, \{"rank": [0-9]+, "label": [1-5]\})*\]'
             r'|\[\{"label": [1-5], "rank": [0-9]+\}(?:, \{"label": [1-5], "rank": [0-9]+\})*\])')
_DUAL_ARM = (r'\{"machine_labels": \[(?P<%(arm)s>[1-5](?:, [1-5])*)\], '
             r'"reference_labels": \[(?P<%(arm)s_reference>[1-5](?:, [1-5])*)\]\}')
# an arm's text less all but its digits and separators, each digit as its value:
# '[{"rank": 1, "label": 3}, {"rank": 2, "label": 5}]' gives b"\1,\3,\2,\5"
_ARM_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
# the ranks 1..1000, the simulator's deepest page, as _ARM_VALUES gives their
# text, each followed by a comma: a longer arm is left to json
_RANKS = b"".join(b"%d," % rank for rank in range(1, 1001)).translate(_ARM_VALUES)


def _list_page(text: str) -> bytes | None:
    """A list-form arm's labels, one a byte, if its ranks are 1..n in order, else None."""
    fields = text.encode().translate(_ARM_VALUES, b'[]{}"rankbel: ').split(b",")
    ranks, labels = (fields[::2], fields[1::2]) if text[3] == "r" else (fields[1::2], fields[::2])
    return b"".join(labels) if _RANKS.startswith(b",".join(ranks) + b",") else None


def _list_pages(control: str, treatment: str | None) -> tuple | None:
    """A list-form line's pages, or None if an arm's ranks are not 1..n."""
    pages = _list_page(control), treatment and _list_page(treatment)
    return pages if pages[0] and (pages[1] or not treatment) else None


def _dual_pages(control: str, control_ref: str, treatment, treatment_ref) -> tuple | None:
    """A dual-label line's pages, then their reference pages, or None if an arm's
    arrays differ in length: a template takes one separator, so as many labels."""
    texts = control, treatment or "", control_ref, treatment_ref or ""
    if len(texts[0]) != len(texts[2]) or len(texts[1]) != len(texts[3]):
        return None
    pages = "]".join(texts).encode().translate(_ARM_VALUES, b", ").split(b"]")
    return pages if treatment is not None else (pages[0], None, pages[2])


# each arm form: the text of a line that holds it, its template, its pages' reader
_ARM_FORMS = (('[{"', _LIST_ARM, _list_pages, ("control", "treatment")),
              ('{"machine_labels"', _DUAL_ARM, _dual_pages,
               ("control", "control_reference", "treatment", "treatment_reference")))


def _template(line: str) -> tuple | None:
    """The template a file's first line picks, or None: the key order it starts
    with (the bench's, ``query_id`` first, or sort_keys'), the first arm form whose
    text it holds, and the compact separators if it holds no '": '. Returned as its
    fullmatch, the numbers of the groups of a record's names and arms, and a reader."""
    start = line[:line.find('"', 2) + 1]
    for mark, arm, read_pages, arms in _ARM_FORMS if start in _KEY_ORDERS else ():
        if mark in line:
            source = _KEY_ORDERS[start] % dict(_FIELDS, control=arm % {"arm": "control"},
                                               treatment=arm % {"arm": "treatment"})
            if '": ' not in line:
                source = source.replace(", ", ",").replace(": ", ":")
            template = re.compile(source)
            names = ("query_id", "market", "interest", "popularity", *arms)
            return template.fullmatch, [template.groupindex[name] for name in names], read_pages
    return None


def read_jsonl(path: str | Path) -> ParsedLines:
    """Each line of a JSONL file, one at a time: the record a template read from
    its text, or its JSON object.

    A line is read from its text when it matches whole the template the file's
    first line picks (see ``_template``; compact separators, list-form arms too,
    have theirs) and its record is valid as it stands; json decodes any other
    line for the parser. Malformed lines, and lines json cannot decode for their
    size, are raised with their line numbers, as one DatasetValidationError, once
    the file is exhausted; each unknown field name then gets one warning, with
    the count and the first of its lines. The records' strata and markets are
    interned in the table the returned iterable carries.
    """
    return ParsedLines(_read_lines(path, interned := {}), interned)


def _read_lines(path: str | Path, interned: dict) -> Iterator[dict | QueryRecord]:
    violations: list[RecordError] = []
    unknown: dict[str, list[int]] = {}  # field name -> [line count, first line]
    match = None  # the template the first line picks, if any; json reads any line alike
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if match is None:
                match, order, read_pages = _template(line) or (False, None, None)
            if fields := match and match(line):
                query_id, market, interest, popularity, *arms = fields.group(*order)
                if pages := read_pages(*arms):
                    yield QueryRecord(query_id, interned.setdefault(market, market),
                                      stratum_key(interest, popularity, interned), *pages)
                    continue
            try:  # one value and its newline decodes directly, a step short of json.loads
                obj, end = _raw_decode(line)
                if end != len(line) and line[end:] != "\n":
                    raise ValueError  # padding or trailing text
            except _UNDECODABLE:
                try:  # skips blank padding and words every error as it always has
                    obj = json.loads(line)
                except _UNDECODABLE as err:
                    if line.strip():  # a blank line is skipped
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
    before any record violation is raised; a template's records are taken as read.
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
    its cells less the last ", ". The pages pass ``core.check_pages`` as one
    join: a page that is not bytes, or a label outside 1..5, is BadLabelValue.
    """
    labels = check_pages([page for page in pages if page is not None], "page")
    ends = list(accumulate(0 if page is None else 3 * len(page) for page in pages))
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
# The loaders read a file's shape (its keys, lists and objects) and pass each
# JSON value as read to the type that holds it, which checks it with core's
# value rules: a value of another JSON type is an error, never coerced.

def _stratum_key(obj: Mapping[str, Any]) -> StratumKey:
    try:
        return StratumKey(interest=check_name(obj["interest"], "interest"),
                          popularity=PopularitySegment(check_name(obj["popularity"], "popularity")))
    except (KeyError, ValueError, RecordError) as err:  # RecordError: an empty interest
        raise BadSpec(f"invalid stratum reference {obj!r}") from err


def _optional(obj: Mapping[str, Any], key: str) -> Any:
    # an absent key is None; a present null is not a number
    if obj.get(key, 0) is None:
        raise BadSpec(f"{key} must be a number, got None")
    return obj.get(key)


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
        specs = [sampling.StratumSpec(key=_stratum_key(obj), weight=obj["weight"],
                                      sigma=_optional(obj, "sigma"), mu=_optional(obj, "mu"))
                 for obj in raw]
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
                profile = simulator.LabelProfile(kind=kind, probs=prof["probs"])
            else:
                profile = simulator.LabelProfile(kind=kind, mean_top=prof["mean_top"],
                                                 decay=prof.get("decay", 0.0))
            strata.append(simulator.StratumProfile(key=_stratum_key(obj), weight=obj["weight"],
                                                   profile=profile))
        return simulator.PopulationSpec(
            strata=tuple(strata), queries_per_stratum=raw["queries_per_stratum"],
            market=raw.get("market", "US"), k_depth=raw.get("k_depth", DEFAULT_K_DEPTH))
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise BadSpec(f"invalid population spec: {err}") from err


def load_confusion(path: str | Path) -> simulator.ConfusionMatrix:
    """Confusion file: {"rows": 5x5} or {"calibrate": {"exact":, "within_one":}}, not both."""
    raw = _load_json(path)
    if not isinstance(raw, dict) or ("calibrate" in raw) == ("rows" in raw):
        raise BadSpec("confusion file must contain either 'rows' or 'calibrate', not both")
    try:
        if "calibrate" in raw:
            cal = raw["calibrate"]
            return simulator.calibrate_confusion(cal["exact"], cal["within_one"])
        return simulator.ConfusionMatrix(rows=raw["rows"])
    except (KeyError, TypeError, ValueError) as err:
        raise BadSpec(f"invalid confusion file: {err!r}") from err


def load_effect(path: str | Path) -> simulator.EffectSpec:
    """Effect file: {"default": float, "shifts": [{interest, popularity, shift}]}."""
    raw = _load_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("shifts", []), list):
        raise BadSpec("effect file must be a JSON object whose 'shifts' is a list")
    try:
        shifts = [(_stratum_key(obj), obj["shift"]) for obj in raw.get("shifts", [])]
    except (KeyError, TypeError, ValueError) as err:
        raise BadSpec(f"invalid effect file: {err!r}") from err
    check_unique_strata([key for key, _ in shifts], "effect file")
    return simulator.EffectSpec(shifts=dict(shifts), default=raw.get("default", 0.0))
