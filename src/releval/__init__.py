"""releval: whole-page search relevance measurement for paired A/B experiments.

Computes query-level sDCG@K page scores from 5-point relevance labels, runs
SRS and stratified paired-difference estimation with optimal allocation,
quantifies metric sensitivity (MDE), controls the false discovery rate
across segments, validates machine labels against reference labels, and
generates seeded synthetic experiments for end-to-end checks.
"""

__version__ = "0.1.0"

from .core import (
    EvalDataset,
    PopularitySegment,
    QueryRecord,
    StratumKey,
    validate_dataset,
)
from .metrics import paired_delta, sdcg_at_k
from .sampling import (
    Allocation,
    StratumSpec,
    VarianceDecomposition,
    allocate,
    decompose_variance,
    draw_sample,
)
from .estimation import (
    EstimateResult,
    SegmentAnalysis,
    SegmentEffect,
    segment_effects,
    srs_estimate,
    stratified_estimate,
)
from .power import PowerConfig, mde, normal_quantile, required_n
from .fdr import BhResult, benjamini_hochberg
from .alignment import (
    AgreementStats,
    AlignmentReport,
    ErrorDistribution,
    alignment_report,
    error_distribution,
    kendall_tau,
    label_agreement,
    spearman_rho,
)
from .simulator import (
    ConfusionMatrix,
    EffectSpec,
    LabelProfile,
    PopulationSpec,
    StratumProfile,
    apply_labeler,
    calibrate_confusion,
    run_synthetic_experiment,
)

__all__ = [
    "__version__",
    "EvalDataset", "PopularitySegment", "QueryRecord", "StratumKey",
    "validate_dataset",
    "paired_delta", "sdcg_at_k",
    "Allocation", "StratumSpec", "VarianceDecomposition", "allocate",
    "decompose_variance", "draw_sample",
    "EstimateResult", "SegmentAnalysis", "SegmentEffect", "segment_effects",
    "srs_estimate", "stratified_estimate",
    "PowerConfig", "mde", "normal_quantile", "required_n",
    "BhResult", "benjamini_hochberg",
    "AgreementStats", "AlignmentReport", "ErrorDistribution",
    "alignment_report", "error_distribution", "kendall_tau",
    "label_agreement", "spearman_rho",
    "ConfusionMatrix", "EffectSpec", "LabelProfile", "PopulationSpec",
    "StratumProfile", "apply_labeler", "calibrate_confusion",
    "run_synthetic_experiment",
]
