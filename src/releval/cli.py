"""Command-line interface.

Exit codes: 0 success, 1 validation/domain error, 2 I/O or usage error. Every
randomized subcommand takes an explicit --seed (with a fixed documented
default, never wall-clock entropy), and every report embeds the seed and
tool version so runs are reproducible byte for byte.
"""

from __future__ import annotations

import csv
import json
import sys
import warnings

import click

# bound, not imported: a module's code runs when a command first reads it
# (see releval/__init__.py), so each command runs only the modules it uses
from . import __version__, alignment, dataset_io, estimation, metrics, power, sampling, simulator
from ._lazy import np
from .core import DEFAULT_K_DEPTH, GROUPINGS, check_alpha, check_fdr_level, check_metric_depth
from .errors import OutOfDomain, RelevalError

DEFAULT_SEED = 20240901

EXIT_DOMAIN = 1
EXIT_IO = 2


def _note_error_json(ctx, param, value):
    # the group reads the flag, so a command's callback never sees it
    if value:
        ctx.meta["releval.error_json"] = True


def _error_json_option(**kwargs):
    return click.Option(
        ["--error-json"], is_flag=True, expose_value=False, callback=_note_error_json,
        help="Emit machine-readable error JSON on stdout instead of a message on stderr.",
        **kwargs)


class Group(click.Group):
    """The command group: maps each failure of a command to an exit code, once.

    Every command takes an --error-json flag, and the group takes it before
    the command name too. Domain errors exit 1; I/O and usage errors exit 2.
    The error goes to stderr as a message, or under --error-json to stdout as
    one JSON object. A usage error looks for the flag in the raw args, as
    parsing may fail before it reaches the flag; any other error reads the
    parsed flag. A warning goes to stderr as one line, "warning: <message>".
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params.append(_error_json_option(hidden=True))

    def add_command(self, cmd, name=None):
        cmd.params.append(_error_json_option())
        super().add_command(cmd, name)

    def make_context(self, info_name, args, parent=None, **extra):
        raw_error_json = "--error-json" in args  # read first: parsing consumes args
        try:
            ctx = super().make_context(info_name, args, parent=parent, **extra)
        except click.UsageError as err:
            if not raw_error_json:
                raise
            _exit_with_usage_payload(err)
        ctx.meta["releval.error_json_in_args"] = raw_error_json
        return ctx

    def invoke(self, ctx):
        try:
            with warnings.catch_warnings():
                # every warning is one line, whatever the interpreter's filters
                warnings.simplefilter("always")
                warnings.showwarning = _echo_warning
                return super().invoke(ctx)
        except click.UsageError as err:  # an unknown command, or a command's usage
            if not ctx.meta["releval.error_json_in_args"]:
                raise
            _exit_with_usage_payload(err)
        except RelevalError as err:
            code, payload, message = EXIT_DOMAIN, err.payload(), f"error: {err}"
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as err:
            code, payload, message = (EXIT_IO, {"error": "IOError", "message": str(err)},
                                      f"I/O error: {err}")
        if ctx.meta.get("releval.error_json"):
            click.echo(json.dumps(payload, sort_keys=True))
        else:
            click.echo(message, err=True)
        sys.exit(code)


def _echo_warning(message, category, filename, lineno, file=None, line=None):
    # a warning is news about the input, not about the code that noticed it
    click.echo(f"warning: {message}", err=True)


def _exit_with_usage_payload(err):
    click.echo(json.dumps({"error": "UsageError", "message": err.format_message()},
                          sort_keys=True))
    sys.exit(err.exit_code)


@click.group(cls=Group)
@click.version_option(version=__version__, prog_name="releval")
def main():
    """Whole-page relevance measurement for paired A/B experiments."""


@main.command("metric")
@click.argument("dataset_path", type=click.Path())
@click.option("--k", "k_depth", type=int, default=DEFAULT_K_DEPTH, show_default=True,
              help="Metric depth K.")
@click.option("--out", "out_path", type=click.Path(), default="-",
              help="Output CSV path (default stdout).")
def cli_metric(dataset_path, k_depth, out_path):
    """Per-query page-score CSV for every arm in DATASET_PATH."""
    dataset = dataset_io.read_dataset(dataset_path, k_depth=k_depth)
    rows = [f"# k_depth={k_depth}", "query_id,arm,sdcg,short_page"]
    control = metrics.arm_scores(dataset, "control")
    treatment = metrics.arm_scores(dataset, "treatment")
    for rec, c, t in zip(dataset.records, control, treatment):
        query_id = rec.query_id
        if "," in query_id or '"' in query_id or "\r" in query_id or "\n" in query_id:
            # the one free-text field, quoted as csv.QUOTE_MINIMAL quotes it
            query_id = '"' + query_id.replace('"', '""') + '"'
        for arm, page, value in (("control", rec.control, c), ("treatment", rec.treatment, t)):
            if page is not None:
                short = "true" if len(page) < k_depth else "false"
                rows.append(f"{query_id},{arm},{value:.10f},{short}")
    text = "\n".join(rows) + "\n"
    if out_path == "-":
        click.echo(text, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _topline_mde(dataset, deltas, per_stratum, weights, cfg):
    """Sensitivity block: current-design MDE per estimator at the current n."""
    mu_hat = float(np.mean(metrics.arm_scores(dataset, "control")))
    n = len(deltas)
    out = {"mu_hat": mu_hat, "n": n}
    sigma_srs = float(np.sqrt(estimation.sample_variance(deltas)))
    out["srs"] = {"sigma_hat": sigma_srs,
                  "mde": power.mde(mu_hat, sigma_srs, n, cfg)}
    if per_stratum is not None and all(len(v) >= 2 for v in per_stratum.values()):
        # effective sigma implied by the stratified variance at the same n
        var = estimation.stratified_variance(per_stratum, weights)
        sigma_strat = float(np.sqrt(var * n))
        out["stratified"] = {"sigma_hat": sigma_strat,
                             "mde": power.mde(mu_hat, sigma_strat, n, cfg)}
    out["current"] = out["stratified"]["mde"] if "stratified" in out else out["srs"]["mde"]
    return out


@main.command("evaluate")
@click.argument("dataset_path", type=click.Path())
@click.option("--design", "design_path", type=click.Path(), default=None,
              help="Strata design file with population weights (required for stratified).")
@click.option("--estimator", type=click.Choice(["srs", "stratified"]), default="srs",
              show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--q", type=float, default=0.05, show_default=True,
              help="FDR level for segment analysis.")
@click.option("--by", "grouping", type=click.Choice(list(GROUPINGS)), default="popularity",
              show_default=True)
@click.option("--k", "k_depth", type=int, default=DEFAULT_K_DEPTH, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default="-")
def cli_evaluate(dataset_path, design_path, estimator, alpha, q, grouping, k_depth, out_path):
    """Topline and per-segment paired-delta estimates with BH-corrected flags."""
    # the options are checked before any file is read
    if estimator == "stratified" and design_path is None:
        raise OutOfDomain("stratified estimator requires --design weights")
    check_alpha(alpha)
    check_fdr_level(q)
    check_metric_depth(k_depth)
    # then the design, so a bad one is reported before the dataset is read
    weights = None
    if design_path is not None:
        weights = {s.key: s.weight for s in dataset_io.load_design(design_path)}
    dataset = dataset_io.read_dataset(dataset_path, k_depth=k_depth, paired=True)
    deltas = metrics.paired_deltas(dataset)

    per_stratum = None
    if weights is not None:
        per_stratum = estimation.group_deltas(dataset, "stratum")
        # the MDE block weights every observed stratum, whichever the estimator
        estimation.check_design(per_stratum, weights)

    if estimator == "stratified":
        topline = estimation.stratified_estimate(per_stratum, weights, alpha)
    else:
        topline = estimation.srs_estimate(deltas, alpha)

    analysis = estimation.segment_effects(dataset, grouping=grouping, alpha=alpha, q=q)
    cfg = power.PowerConfig(alpha=alpha)
    report = {
        "version": __version__,
        "seed": None,
        "config": {"estimator": estimator, "alpha": alpha, "q": q,
                   "k_depth": k_depth, "grouping": grouping,
                   "design": design_path},
        "topline": topline,
        "segments": list(analysis.effects),
        "excluded": [{"segment": s, "n": n} for s, n in analysis.excluded],
        "mde": _topline_mde(dataset, deltas, per_stratum, weights, cfg),
    }
    has_refs = dataset.records and all(
        rec.control_reference is not None
        and (rec.treatment is None or rec.treatment_reference is not None)
        for rec in dataset.records)
    if has_refs:
        report["alignment"] = alignment.alignment_report(dataset, by_market=True)
    _emit_json(report, out_path)


@main.command("design")
@click.option("--strata", "strata_path", type=click.Path(), required=True,
              help="Strata design file with weights and sigmas.")
@click.option("--budget", type=int, required=True)
@click.option("--mode", type=click.Choice(["neyman", "proportional"]), default="neyman",
              show_default=True)
@click.option("--min-per-stratum", type=int, default=2, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default="-")
def cli_design(strata_path, budget, mode, min_per_stratum, out_path):
    """Allocate a sample budget to strata (optimal or proportional)."""
    specs = dataset_io.load_design(strata_path)
    alloc = sampling.allocate(specs, budget, mode=mode, min_per_stratum=min_per_stratum)
    report = {
        "version": __version__,
        "mode": mode,
        "budget": budget,
        "fallback_proportional": alloc.fallback_proportional,
        "per_stratum": {str(k): v for k, v in sorted(alloc.per_stratum.items())},
    }
    _emit_json(report, out_path)


@main.command("mde")
@click.option("--mu", type=float, required=True, help="Metric mean estimate.")
@click.option("--sigma", type=float, required=True, help="Metric std dev estimate.")
@click.option("--n", "n_queries", type=int, default=None, help="Sample size.")
@click.option("--target", type=float, default=None,
              help="Target MDE as a fraction; prints the required n instead.")
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--power", type=float, default=0.8, show_default=True)
def cli_mde(mu, sigma, n_queries, target, alpha, power):
    """Minimum detectable effect, or required n for a target MDE."""
    # the option `power` hides the module of that name in this function
    from .power import PowerConfig, mde, required_n

    cfg = PowerConfig(alpha=alpha, power=power)
    if (n_queries is None) == (target is None):
        raise OutOfDomain("provide exactly one of --n or --target")
    if target is not None:
        click.echo(str(required_n(mu, sigma, target, cfg)))
    else:
        value = mde(mu, sigma, n_queries, cfg)
        click.echo(f"{value * 100:.4f}%")


@main.command("align")
@click.argument("dataset_path", type=click.Path())
@click.option("--by", "by", type=click.Choice(["popularity", "market"]), default="popularity",
              show_default=True,
              help="'popularity' pools markets; 'market' reports each market separately.")
@click.option("--k", "k_depth", type=int, default=DEFAULT_K_DEPTH, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default="-")
@click.option("--errors-csv", "errors_csv", type=click.Path(), default=None,
              help="Also write per-query machine/reference scores and errors.")
def cli_align(dataset_path, by, k_depth, out_path, errors_csv):
    """Machine-vs-reference alignment report (correlations, error percentiles)."""
    dataset = dataset_io.read_dataset(dataset_path, k_depth=k_depth)
    report_obj = alignment.alignment_report(dataset, by_market=(by == "market"))

    agreement = _dataset_agreement(dataset)
    report = {
        "version": __version__,
        "seed": None,
        "config": {"k_depth": k_depth, "by": by},
        "agreement": agreement,
        "segments": list(report_obj.segments),
        "excluded": [{"segment": s, "n": n} for s, n in report_obj.excluded],
    }
    _emit_json(report, out_path)

    if errors_csv is not None:
        with open(errors_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["query_id", "market", "segment",
                             "machine_sdcg", "reference_sdcg", "error"])
            for rec, m, r in zip(dataset.records, metrics.arm_scores(dataset, "control"),
                                 metrics.arm_scores(dataset, "control_reference")):
                writer.writerow([rec.query_id, rec.market, rec.stratum.popularity.value,
                                 f"{m:.10f}", f"{r:.10f}", f"{m - r:.10f}"])


def _dataset_agreement(dataset):
    """Pooled label-level agreement over every position with both sources."""
    def labels(i):
        return np.frombuffer(b"".join(
            pair[i] for rec in dataset.records
            for pair in ((rec.control, rec.control_reference),
                         (rec.treatment, rec.treatment_reference))
            if pair[1] is not None), np.uint8)
    # uint8 arrays: range-checked whole, not label by label
    return alignment.label_agreement(labels(0), labels(1))


@main.command("simulate")
@click.option("--spec", "spec_path", type=click.Path(), required=True,
              help="Population spec JSON.")
@click.option("--confusion", "confusion_path", type=click.Path(), default=None,
              help="Confusion matrix JSON (default: identity labeler).")
@click.option("--effect", "effect_path", type=click.Path(), default=None,
              help="Effect spec JSON (default: null effect).")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--rho-shared", type=float, default=0.0, show_default=True,
              help="Probability that both arms share a labeler draw per position.")
@click.option("--out", "out_path", type=click.Path(), required=True)
def cli_simulate(spec_path, confusion_path, effect_path, seed, rho_shared, out_path):
    """Generate a synthetic paired experiment dataset (JSONL)."""
    spec = dataset_io.load_population_spec(spec_path)
    confusion = (dataset_io.load_confusion(confusion_path) if confusion_path
                 else simulator.ConfusionMatrix.identity())
    effect = dataset_io.load_effect(effect_path) if effect_path else simulator.EffectSpec.null()
    dataset = simulator.run_synthetic_experiment(spec, effect, confusion, seed, rho_shared)
    dataset_io.write_dataset(dataset, out_path)


def _emit_json(report, out_path):
    text = dataset_io.canonical_json(report)
    if out_path == "-":
        click.echo(text, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
