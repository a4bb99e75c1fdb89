"""Domain types and dataset validation.

All types are frozen dataclasses, immutable after construction; the one
mutable part is EvalDataset's page-score memo, filled on first use. The
record types are slotted, and the records of one dataset share one object per
distinct stratum and market, to keep a large dataset small. Validation is a
pure function and reports every violation it finds, not just the first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .errors import (
    BadLabelValue,
    BadPValue,
    BadRankSequence,
    BadSpec,
    DatasetValidationError,
    DuplicateQueryId,
    EmptyPage,
    MissingArm,
    OutOfDomain,
    RecordError,
)

DEFAULT_K_DEPTH = 25

# the ways estimation splits a dataset into segments, each name to a
# stratum's segment key: its popularity, its interest, or the whole stratum
# (defined here, where the CLI can list them without running estimation)
GROUPINGS = {
    "popularity": lambda stratum: stratum.popularity,
    "interest": lambda stratum: stratum.interest,
    "stratum": lambda stratum: stratum,
}

_LEVELS = frozenset(range(1, 6))
_LABEL_BYTES = b"\1\2\3\4\5"  # the levels, one byte each
_INT = frozenset((int,))
_BYTES = frozenset((bytes,))


def shown(value: Any) -> str:
    """``repr(value)``, or a stand-in where ``value`` is or holds an int too long to print."""
    try:
        return repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits()
        return f"<{type(value).__name__} too long to print>"


# The value rules of the spec types, each written once; every type checks
# its own fields with them, so a spec file and the Python API take the same
# values. A value of another type is never converted.

def is_number(value: Any) -> bool:
    """Whether ``value`` is a number: an int or a float, never a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_number(value: Any, name: str, error: type = BadSpec) -> float:
    """``value`` as a float if it is a number within the float range, else ``error``."""
    if not is_number(value):
        raise error(f"{name} must be a number, got {shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} is out of range, got {shown(value)}") from None


def check_integer(value: Any, name: str, error: type = BadSpec) -> int:
    """``value`` if it is an int and not a bool, else ``error``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {shown(value)}")
    return value


def check_name(value: Any, name: str, error: type = BadSpec, *where: Any) -> str:
    """``value`` if it is a str of UTF-8 text, as every file releval writes needs, else
    ``error(message, *where)``: a RecordError's query id and field follow its message.
    A lone surrogate, which a JSON escape such as ``\\ud800`` decodes to, is not text."""
    if not isinstance(value, str):
        raise error(f"{name} must be a string, got {shown(value)}", *where)
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise error(f"{name} must be UTF-8 text, got {value!r}", *where) from None
    return value


def check_instance(value: Any, kind: type, name: str) -> Any:
    """``value`` if it is a ``kind``, else BadSpec: the one rule for a spec field
    that holds another spec type, or a tuple of them."""
    if not isinstance(value, kind):
        raise BadSpec(f"{name} must be a {kind.__name__}, got {shown(value)}")
    return value


def store_numbers(obj: Any, *names: str) -> None:
    """Store each field ``name`` of the frozen dataclass ``obj`` as check_number gives it."""
    for name in names:
        object.__setattr__(obj, name, check_number(getattr(obj, name), name))


def check_metric_depth(k_depth: int) -> None:
    """The metric depth K counts ranks, so it is an integer of at least 1."""
    if check_integer(k_depth, "k_depth", OutOfDomain) < 1:
        raise OutOfDomain(f"k_depth must be >= 1, got {shown(k_depth)}")


# the level checks of power and fdr live here, in the module every command
# runs, so that a command can check its options before it reads any data

def check_alpha(alpha: float) -> None:
    """A significance level is a number in (0, 1); NaN is not."""
    if not is_number(alpha) or not 0.0 < alpha < 1.0:
        raise OutOfDomain(f"alpha must be in (0, 1), got {alpha}")


def check_fdr_level(q: float) -> None:
    """An FDR level is a number in (0, 1); NaN is not."""
    if not is_number(q) or not 0.0 < q < 1.0:
        raise BadPValue(f"q must be in (0, 1), got {q}")


class PopularitySegment(str, enum.Enum):
    """Query popularity class by search volume; SINGLE = fewer than 10 searches."""

    HEAD = "head"
    TORSO = "torso"
    TAIL = "tail"
    SINGLE = "single"


@dataclass(frozen=True, order=True, slots=True)
class StratumKey:
    """(interest, popularity) cell; strata partition the query population."""

    interest: str
    popularity: PopularitySegment

    def __post_init__(self):
        if not self.interest:
            raise BadLabelValue("stratum interest tag must be non-empty")

    def __str__(self) -> str:
        return f"{self.interest}/{self.popularity.value}"


def check_unique_strata(keys: Sequence[StratumKey], where: str) -> None:
    """Strata partition the population: a key that repeats in ``where`` is a
    BadSpec naming each repeated key."""
    if len(set(keys)) != len(keys):
        repeated = sorted({str(k) for k in keys if keys.count(k) > 1})
        raise BadSpec(f"duplicate stratum keys in {where}: {repeated}")


def _checked_page(labels: Sequence[Any], query_id: str, arm: str, source: str,
                  violations: list[RecordError]) -> bytes | None:
    """One page's labels as bytes, one int in 1..5 a byte, or None with a violation.

    Each label is an ordinal 5-point judgment, 1 (highly irrelevant) .. 5
    (highly relevant); position i holds rank i+1. Each label of the JSON
    array ``labels`` must be an int, never a bool. A violation names the
    field ``arm + source``.
    """
    # whole-page tests first, types first, as an all-int page is hashable
    if _INT.issuperset(map(type, labels)) and _LEVELS.issuperset(labels):
        return bytes(labels)
    bad = next(v for v in labels if type(v) is not int or not 1 <= v <= 5)
    violations.append(BadLabelValue(
        f"label level must be an integer in [1, 5], got {bad!r}", query_id=query_id,
        field=arm + source))
    return None


def check_pages(pages: Sequence[bytes], name: str) -> bytes:
    """The labels of ``pages``, bytes of one label in 1..5 a byte, joined; the first
    page of another type, never converted, or label outside 1..5 is BadLabelValue."""
    if not _BYTES.issuperset(map(type, pages)):
        got = next(type(page).__name__ for page in pages if type(page) is not bytes)
        raise BadLabelValue(f"{name} labels must be bytes, got {got}")
    labels = b"".join(pages)
    if bad := labels.translate(None, _LABEL_BYTES):
        raise BadLabelValue(f"{name} label must be in [1, 5], got {bad[0]}")
    return labels


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """One evaluation query: stratum, market, and its ranked page(s).

    A page is ``bytes``, one label in 1..5 a byte, checked by the parser or by
    the template that read its line. ``control``/``treatment`` hold the working
    labels (machine labels when a second source exists); ``*_reference`` hold
    reference (human) labels for the same ranked results, when present.
    """

    query_id: str
    market: str
    stratum: StratumKey
    control: bytes
    treatment: bytes | None = None
    control_reference: bytes | None = None
    treatment_reference: bytes | None = None


@dataclass(frozen=True)
class EvalDataset:
    """Validated collection of query records with a shared metric depth.

    ``_scores`` holds each arm's page scores once ``metrics.arm_scores`` has
    computed them; it takes no part in init, repr or equality.
    """

    records: tuple[QueryRecord, ...]
    k_depth: int = DEFAULT_K_DEPTH
    _scores: dict[str, list] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_metric_depth(self.k_depth)

    def __len__(self) -> int:
        return len(self.records)


def _parse_arm(raw: Any, query_id: str, arm: str,
               violations: list[RecordError]) -> tuple[bytes | None, bytes | None]:
    """Parse one arm into (page, reference_page). Appends violations in place.

    Accepted forms, as JSON decodes them; every array's labels are checked
    as a page's:
      * list of {"rank": int, "label": int} objects (single label source)
      * {"machine_labels": [...], "reference_labels": [...]} parallel arrays
    """
    kind = type(raw)
    if kind is dict:
        machine = raw.get("machine_labels")
        reference = raw.get("reference_labels")
        if type(machine) is not list or type(reference) is not list:
            violations.append(MissingArm(
                f"{arm}: dual-label form requires machine_labels and reference_labels",
                query_id=query_id, field=arm))
            return None, None
        if len(machine) != len(reference):
            violations.append(BadRankSequence(
                f"{arm}: machine and reference label arrays differ in length",
                query_id=query_id, field=arm))
            return None, None
        return (_checked_page(machine, query_id, arm, ".machine_labels", violations),
                _checked_page(reference, query_id, arm, ".reference_labels", violations))
    if kind is not list:
        violations.append(MissingArm(
            f"{arm}: expected a list of rank/label objects or a dual-label object",
            query_id=query_id, field=arm))
        return None, None
    # one pass: each item must be an object with an integer rank; the ranks
    # are listed again only to word a violation when they are not 1..n
    labels = []
    in_order = True
    for position, item in enumerate(raw, start=1):
        try:
            rank, label = item["rank"], item["label"]
        except (KeyError, TypeError):
            rank = None
        if type(rank) is not int:
            violations.append(BadRankSequence(
                f"{arm}[{position - 1}]: expected an object with integer rank and label",
                query_id=query_id, field=f"{arm}[{position - 1}]"))
            return None, None
        if rank != position:
            in_order = False
        labels.append(label)
    if not in_order:
        ranks = [item["rank"] for item in raw]
        violations.append(BadRankSequence(
            f"ranks must be exactly 1..{len(ranks)}, got {ranks}", query_id=query_id, field=arm))
        return None, None
    return _checked_page(labels, query_id, arm, "", violations), None


def stratum_key(interest: str, popularity: str, interned: dict) -> StratumKey:
    """The StratumKey of ``interest`` and ``popularity``, one per pair in ``interned``.
    Raises as building one does: ValueError for an unknown popularity and
    RecordError for an empty interest."""
    key = (interest, popularity)
    stratum = interned.get(key)
    if stratum is None:
        stratum = interned[key] = StratumKey(interest=interest,
                                             popularity=PopularitySegment(popularity))
    return stratum


def record_from_raw(raw: Mapping[str, Any], violations: list[RecordError],
                    interned: dict) -> QueryRecord | None:
    """Build a QueryRecord from a parsed JSON object, collecting violations.

    ``query_id``, ``market`` and the stratum ``interest`` are names, as
    ``check_name`` reads them: any other value is a BadLabelValue at that
    field, never coerced. ``interned`` is the caller's table of the strata
    and markets built so far: records with equal strata, or equal markets,
    share one object. A ``raw`` that is not a mapping is a RecordError.
    """
    if type(raw) is not dict and not isinstance(raw, Mapping):
        violations.append(RecordError(f"expected a JSON object, got {type(raw).__name__}"))
        return None
    query_id = raw.get("query_id", "")
    try:
        check_name(query_id, "query_id", BadLabelValue, None, "query_id")
    except BadLabelValue as err:
        violations.append(err)
        return None
    if not query_id:
        violations.append(MissingArm("record is missing query_id", field="query_id"))
        return None
    ok = True

    market = raw.get("market", "")
    try:
        market = interned.setdefault(
            check_name(market, "market", BadLabelValue, query_id, "market"), market)
    except BadLabelValue as err:
        violations.append(err)
        ok = False
    stratum_raw = raw.get("stratum", {})
    interest = stratum_raw.get("interest", "") if type(stratum_raw) is dict else ""
    stratum = None
    try:
        check_name(interest, "stratum interest", BadLabelValue, query_id, "stratum.interest")
    except BadLabelValue as err:
        violations.append(err)
    else:
        try:
            stratum = stratum_key(interest, str(stratum_raw.get("popularity", "")), interned)
        except (AttributeError, ValueError, RecordError):  # AttributeError: not a mapping
            violations.append(BadLabelValue(
                f"invalid stratum {shown(stratum_raw)}", query_id=query_id, field="stratum"))

    if "control" not in raw:
        violations.append(MissingArm("record has no control arm", query_id=query_id, field="control"))
        return None
    control, control_ref = _parse_arm(raw["control"], query_id, "control", violations)
    ok = ok and control is not None

    treatment = treatment_ref = None
    if "treatment" in raw:
        treatment, treatment_ref = _parse_arm(raw["treatment"], query_id, "treatment",
                                              violations)
        ok = ok and treatment is not None

    if not ok or stratum is None or control is None:
        return None
    # positional: the fields in declaration order, a step cheaper than keywords
    return QueryRecord(query_id, market, stratum, control, treatment, control_ref, treatment_ref)


class ParsedLines:
    """``dataset_io.read_jsonl``'s one-pass iterable of a file's lines, each the QueryRecord
    a template read or the line's JSON object, with ``interned``, those records' strata
    and markets. Only from it does ``validate_dataset`` take a record as it is."""

    def __init__(self, lines: Iterator, interned: dict):
        self.lines, self.interned = lines, interned

    def __iter__(self) -> Iterator:
        return self.lines


def validate_dataset(raw_records: Iterable[Mapping[str, Any]], k_depth: int = DEFAULT_K_DEPTH,
                     paired: bool = False) -> EvalDataset:
    """Validate parsed records into an EvalDataset.

    Raises DatasetValidationError carrying *all* violations if any record is
    invalid. ``paired=True`` additionally requires both arms per record and
    rejects empty pages (a page with zero results has no defined score).
    The accept/reject decision and the violation set are independent of
    record order. A ``k_depth`` below 1 raises OutOfDomain before the first
    record is drawn, so a file behind ``raw_records`` is never opened. Each call
    interns its strata and markets in a table of its own, dropped when it returns,
    or in that of the ParsedLines it is given, whose records it takes as read.
    """
    check_metric_depth(k_depth)
    violations: list[RecordError] = []
    records: list[QueryRecord] = []
    read = type(raw_records) is ParsedLines
    interned = raw_records.interned if read else {}  # markets, strata by (interest, popularity)
    for raw in raw_records:
        rec = raw if read and type(raw) is QueryRecord else record_from_raw(raw, violations,
                                                                             interned)
        if rec is not None:
            records.append(rec)

    seen: dict[str, int] = {}
    for rec in records:
        seen[rec.query_id] = seen.get(rec.query_id, 0) + 1
    for qid, count in seen.items():
        if count > 1:
            violations.append(DuplicateQueryId(
                f"query_id {qid!r} appears {count} times", query_id=qid, field="query_id"))

    if paired:
        for rec in records:
            if rec.treatment is None:
                violations.append(MissingArm(
                    "paired mode requires a treatment arm", query_id=rec.query_id, field="treatment"))
            for arm, page in (("control", rec.control), ("treatment", rec.treatment)):
                if page is not None and len(page) == 0:
                    violations.append(EmptyPage(
                        f"{arm} page is empty", query_id=rec.query_id, field=arm))

    if violations:
        violations.sort(key=lambda v: (v.query_id or "", v.field or "", v.code))
        raise DatasetValidationError(violations)
    return EvalDataset(records=tuple(records), k_depth=k_depth)
