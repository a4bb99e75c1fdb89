"""Exception hierarchy for the releval toolkit.

Domain/validation errors map to CLI exit code 1; I/O problems (OSError,
malformed JSON) map to exit code 2 and are not wrapped here.
"""

from __future__ import annotations


class RelevalError(Exception):
    """Base class for all domain errors raised by this package.

    ``code`` names the error in --error-json payloads: a subclass's own name,
    unless its body sets another.
    """

    code = "Error"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "code" not in vars(cls):
            cls.code = cls.__name__

    def payload(self) -> dict:
        """Machine-readable representation for --error-json output."""
        return {"error": self.code, "message": str(self)}


class RecordError(RelevalError):
    """A violation tied to a single record, carrying query id and field path."""

    code = "Error"  # a malformed line, which no subclass names

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
    """Two records share a query id."""


class BadRankSequence(RecordError):
    """Rank items out of shape or order, or label arrays of different lengths."""


class BadLabelValue(RecordError):
    """A label that is not an integer in 1..5."""


class MissingArm(RecordError):
    """A required arm, or the page beside its reference labels, is absent."""


class EmptyPage(RecordError):
    """A page with no results, which has no score."""


class DatasetValidationError(RelevalError):
    """Aggregate of every violation found while validating a dataset."""

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
    """A statistic asked of no observations."""


class LengthMismatch(RelevalError):
    """Paired sequences of different lengths."""


class TooFewSamples(RelevalError):
    """Fewer observations than a statistic needs."""


class TooFewSamplesInStratum(RelevalError):
    """A stratum with fewer than 2 observations, or no stratum at all."""


class AllTied(RelevalError):
    """A constant variable, for which a rank correlation is undefined."""


class BadPValue(RelevalError):
    """A p-value outside [0, 1], or an FDR level outside (0, 1)."""


class NoSegments(RelevalError):
    """No segment has enough paired queries to test."""


class WeightMismatch(RelevalError):
    """Stratum weights out of range, not summing to 1, or not matching the strata."""


# -- sampling design ----------------------------------------------------------

class BudgetTooSmall(RelevalError):
    """A budget below the minimum per stratum times the strata."""


class MissingSigma(RelevalError):
    """A stratum without the finite sigma optimal allocation needs."""


class StratumExhausted(RelevalError):
    """A draw of more queries than a stratum holds."""


# -- power --------------------------------------------------------------------

class OutOfDomain(RelevalError):
    """A number outside the domain of the computation asked of it."""


class NonPositiveMean(RelevalError):
    """A metric mean that is not positive, so no relative effect is defined."""


# -- simulator ----------------------------------------------------------------

class BadSpec(RelevalError):
    """A spec, design, effect or confusion file that does not hold its format."""


class BadMatrix(RelevalError):
    """A confusion matrix that is not 5x5 stochastic, or a bad rho_shared."""


class InfeasibleTargets(RelevalError):
    """Agreement targets no confusion matrix can reach."""


class MissingReferenceLabels(RelevalError):
    """A record without the reference labels alignment needs."""
