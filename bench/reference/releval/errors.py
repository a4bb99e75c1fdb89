"""Exception hierarchy for the releval toolkit.

Domain/validation errors map to CLI exit code 1; I/O problems (OSError,
malformed JSON) map to exit code 2 and are not wrapped here.
"""

from __future__ import annotations


class RelevalError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"

    def payload(self) -> dict:
        """Machine-readable representation for --error-json output."""
        return {"error": self.code, "message": str(self)}


class RecordError(RelevalError):
    """A violation tied to a single record, carrying query id and field path."""

    def __init__(self, message: str, query_id: str | None = None, field: str | None = None):
        super().__init__(message)
        self.query_id = query_id
        self.field = field

    def payload(self) -> dict:
        out = super().payload()
        if self.query_id is not None:
            out["query_id"] = self.query_id
        if self.field is not None:
            out["field"] = self.field
        return out


class DuplicateQueryId(RecordError):
    code = "DuplicateQueryId"


class BadRankSequence(RecordError):
    code = "BadRankSequence"


class BadLabelValue(RecordError):
    code = "BadLabelValue"


class MissingArm(RecordError):
    code = "MissingArm"


class EmptyPage(RecordError):
    code = "EmptyPage"


class DatasetValidationError(RelevalError):
    """Aggregate of every violation found while validating a dataset."""

    code = "DatasetValidationError"

    def __init__(self, violations: list[RecordError]):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:10])
        extra = "" if len(self.violations) <= 10 else f" (+{len(self.violations) - 10} more)"
        super().__init__(f"{len(self.violations)} violation(s): {lines}{extra}")

    def payload(self) -> dict:
        return {
            "error": self.code,
            "message": str(self),
            "violations": [v.payload() for v in self.violations],
        }


# -- statistics ---------------------------------------------------------------

class EmptyInput(RelevalError):
    code = "EmptyInput"


class LengthMismatch(RelevalError):
    code = "LengthMismatch"


class TooFewSamples(RelevalError):
    code = "TooFewSamples"


class TooFewSamplesInStratum(RelevalError):
    code = "TooFewSamplesInStratum"


class AllTied(RelevalError):
    code = "AllTied"


class BadPValue(RelevalError):
    code = "BadPValue"


class NoSegments(RelevalError):
    code = "NoSegments"


class WeightMismatch(RelevalError):
    code = "WeightMismatch"


# -- sampling design ----------------------------------------------------------

class BudgetTooSmall(RelevalError):
    code = "BudgetTooSmall"


class MissingSigma(RelevalError):
    code = "MissingSigma"


class StratumExhausted(RelevalError):
    code = "StratumExhausted"


# -- power --------------------------------------------------------------------

class OutOfDomain(RelevalError):
    code = "OutOfDomain"


class NonPositiveMean(RelevalError):
    code = "NonPositiveMean"


# -- simulator ----------------------------------------------------------------

class BadSpec(RelevalError):
    code = "BadSpec"


class BadMatrix(RelevalError):
    code = "BadMatrix"


class InfeasibleTargets(RelevalError):
    code = "InfeasibleTargets"


class MissingReferenceLabels(RelevalError):
    code = "MissingReferenceLabels"
