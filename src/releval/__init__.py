"""releval: whole-page search relevance measurement for paired A/B experiments.

Computes query-level sDCG@K page scores from 5-point relevance labels, runs
SRS and stratified paired-difference estimation with optimal allocation,
quantifies metric sensitivity (MDE), controls the false discovery rate
across segments, validates machine labels against reference labels, and
generates seeded synthetic experiments for end-to-end checks.

``import releval`` registers every submodule but ``cli`` (see ``_lazy``): each
is in ``sys.modules`` and bound here, and its code runs when one of its
attributes is first read. ``cli`` is left out because ``python -m
releval.cli`` must find it unimported. The public names below are read from
their submodules on access (PEP 562).
"""

__version__ = "0.1.0"

from . import _lazy

# each public name, under the submodule that defines it
_EXPORTS = {
    "core": ("EvalDataset", "PopularitySegment", "QueryRecord", "StratumKey",
             "validate_dataset"),
    "metrics": ("paired_delta", "sdcg_at_k"),
    "sampling": ("Allocation", "StratumSpec", "VarianceDecomposition", "allocate",
                 "decompose_variance"),
    "estimation": ("EstimateResult", "SegmentAnalysis", "SegmentEffect", "segment_effects",
                   "srs_estimate", "stratified_estimate"),
    "power": ("PowerConfig", "mde", "normal_quantile", "required_n"),
    "fdr": ("BhResult", "benjamini_hochberg"),
    "alignment": ("AgreementStats", "AlignmentReport", "ErrorDistribution",
                  "alignment_report", "error_distribution", "kendall_tau",
                  "label_agreement", "spearman_rho"),
    "simulator": ("ConfusionMatrix", "EffectSpec", "LabelProfile", "PopulationSpec",
                  "StratumProfile", "apply_labeler", "calibrate_confusion",
                  "run_synthetic_experiment"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

globals().update({module: _lazy.load(f"{__name__}.{module}") for module in (
    "errors", "_rng", "core", "metrics", "sampling", "estimation", "power", "fdr",
    "alignment", "simulator", "dataset_io")})

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_ORIGIN[name]], name)


def __dir__():
    return sorted({*globals(), *_ORIGIN})
