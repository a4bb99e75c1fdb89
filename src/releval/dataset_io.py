"""File formats: JSONL datasets, JSON design/spec/report files, CSV tables.

Datasets are JSONL (one query object per line, streamable); reports are
canonical JSON (sorted keys, fixed indentation, trailing newline) so that
re-running with the same inputs and seed yields byte-identical files.
JSON Schema files for every format ship under releval/schemas/.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from pathlib import Path
from typing import Any, Iterable, Mapping

from .core import (
    EvalDataset,
    PopularitySegment,
    QueryRecord,
    StratumKey,
    validate_dataset,
)
from .errors import BadSpec, DatasetValidationError, RecordError
from .sampling import StratumSpec
from .simulator import (
    ConfusionMatrix,
    EffectSpec,
    LabelProfile,
    PopulationSpec,
    StratumProfile,
    calibrate_confusion,
)

KNOWN_RECORD_FIELDS = {"query_id", "market", "stratum", "control", "treatment"}


def read_jsonl(path: str | Path) -> list[dict]:
    """Parse a JSONL file; malformed lines are reported with their line number."""
    records = []
    violations: list[RecordError] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                violations.append(RecordError(
                    f"line {lineno}: malformed JSON ({err.msg})", field=f"line {lineno}"))
                continue
            if not isinstance(obj, dict):
                violations.append(RecordError(
                    f"line {lineno}: expected a JSON object, got {type(obj).__name__}",
                    field=f"line {lineno}"))
                continue
            unknown = set(obj) - KNOWN_RECORD_FIELDS
            if unknown:
                warnings.warn(f"{path}: line {lineno}: ignoring unknown fields {sorted(unknown)}")
            records.append(obj)
    if violations:
        raise DatasetValidationError(violations)
    return records


def read_dataset(path: str | Path, k_depth: int = 25, paired: bool = False) -> EvalDataset:
    return validate_dataset(read_jsonl(path), k_depth=k_depth, paired=paired)


def _arm_to_json(page, reference) -> Any:
    if reference is not None:
        return {"machine_labels": list(page.levels),
                "reference_labels": list(reference.levels)}
    return [{"rank": r, "label": lab} for r, lab in enumerate(page.levels, start=1)]


def record_to_json(rec: QueryRecord) -> dict:
    obj = {
        "query_id": rec.query_id,
        "market": rec.market,
        "stratum": {"interest": rec.stratum.interest,
                    "popularity": rec.stratum.popularity.value},
        "control": _arm_to_json(rec.control, rec.control_reference),
    }
    if rec.treatment is not None:
        obj["treatment"] = _arm_to_json(rec.treatment, rec.treatment_reference)
    return obj


def write_dataset(dataset: EvalDataset, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in dataset.records:
            fh.write(json.dumps(record_to_json(rec), sort_keys=True) + "\n")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON rendering used for all report files."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def to_jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses, enums, and numpy scalars to JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, PopularitySegment):
        return obj.value
    if isinstance(obj, StratumKey):
        return str(obj)
    if isinstance(obj, Mapping):
        return {str(to_jsonable(k)): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        return obj.item()
    return obj


# -- design / spec files ------------------------------------------------------

def _stratum_key(obj: Mapping[str, Any]) -> StratumKey:
    try:
        return StratumKey(interest=str(obj["interest"]),
                          popularity=PopularitySegment(str(obj["popularity"])))
    except (KeyError, ValueError) as err:
        raise BadSpec(f"invalid stratum reference {obj!r}") from err


def load_design(path: str | Path) -> list[StratumSpec]:
    """Strata design file: JSON list of {interest, popularity, weight, sigma?, mu?}."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise BadSpec("design file must be a JSON list of stratum objects")
    try:
        return [StratumSpec(
            key=_stratum_key(obj),
            weight=float(obj["weight"]),
            sigma=None if obj.get("sigma") is None else float(obj["sigma"]),
            mu=None if obj.get("mu") is None else float(obj["mu"]),
        ) for obj in raw]
    except (KeyError, TypeError, ValueError) as err:
        raise BadSpec(f"invalid design entry: {err!r}") from err


def design_weights(specs: Iterable[StratumSpec]) -> dict[StratumKey, float]:
    return {s.key: s.weight for s in specs}


def load_population_spec(path: str | Path) -> tuple[PopulationSpec, int]:
    """Population spec JSON; returns (spec, k_depth). k_depth defaults to 25."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        strata = []
        for obj in raw["strata"]:
            prof = obj["profile"]
            kind = prof.get("kind", "categorical")
            if kind == "categorical":
                profile = LabelProfile(kind="categorical",
                                       probs=_as_prob_tuple(prof["probs"]))
            else:
                profile = LabelProfile(kind="curve",
                                       mean_top=float(prof["mean_top"]),
                                       decay=float(prof.get("decay", 0.0)))
            strata.append(StratumProfile(key=_stratum_key(obj),
                                         weight=float(obj["weight"]),
                                         profile=profile))
        spec = PopulationSpec(strata=tuple(strata),
                              queries_per_stratum=int(raw["queries_per_stratum"]),
                              market=str(raw.get("market", "US")))
        k_depth = int(raw.get("k_depth", 25))
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise BadSpec(f"invalid population spec: {err}") from err
    return spec, k_depth


def _as_prob_tuple(probs) -> tuple:
    if probs and isinstance(probs[0], list):
        return tuple(tuple(float(p) for p in row) for row in probs)
    return tuple(float(p) for p in probs)


def load_confusion(path: str | Path) -> ConfusionMatrix:
    """Confusion file: {"rows": 5x5} or {"calibrate": {"exact":, "within_one":}}."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not ("calibrate" in raw or "rows" in raw):
        raise BadSpec("confusion file must contain either 'rows' or 'calibrate'")
    try:
        if "calibrate" in raw:
            cal = raw["calibrate"]
            return calibrate_confusion(float(cal["exact"]), float(cal["within_one"]))
        return ConfusionMatrix(rows=tuple(tuple(float(p) for p in row) for row in raw["rows"]))
    except (KeyError, TypeError, ValueError) as err:
        raise BadSpec(f"invalid confusion file: {err!r}") from err


def load_effect(path: str | Path) -> EffectSpec:
    """Effect file: {"default": float, "shifts": [{interest, popularity, shift}]}."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise BadSpec("effect file must be a JSON object")
    try:
        shifts = {_stratum_key(obj): float(obj["shift"]) for obj in raw.get("shifts", [])}
        return EffectSpec(shifts=shifts, default=float(raw.get("default", 0.0)))
    except (KeyError, TypeError, ValueError) as err:
        raise BadSpec(f"invalid effect file: {err!r}") from err
