"""Command-line interface.

Exit codes: 0 success, 1 validation/domain error, 2 I/O or usage error. Every
randomized subcommand takes an explicit --seed (with a fixed documented
default, never wall-clock entropy), and every report embeds the seed and
tool version so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
import warnings

# bound, not imported: a module's code runs when a command first reads it
# (see releval/__init__.py), so each command runs only the modules it uses
from . import __version__, alignment, dataset_io, estimation, metrics, power, sampling, simulator
from ._lazy import np
from .core import DEFAULT_K_DEPTH, GROUPINGS, check_alpha, check_fdr_level, check_metric_depth
from .errors import EmptyPage, OutOfDomain, RelevalError

# numpy's and scipy's bundled OpenBLAS each start a worker pool when loaded,
# unless told to use one thread. The CLI's only BLAS calls are spearman_rho's
# dot products, exact sums in any order, so one thread reports the same bytes
# and the pools only cost start-up: on a 2-vCPU box `import numpy` took a
# median 134 ms with its pool and 74 ms without. numpy loads lazily, so this
# lands before either library reads it; a caller's own value is kept. Set
# here, not in the package, so `import releval` leaves a library's user alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

DEFAULT_SEED = 20240901

EXIT_DOMAIN = 1
EXIT_IO = 2


class _UsageError(Exception):
    """A command line the parser cannot take; ``parser`` is the one that refused it."""

    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """An argparse parser that raises a usage error where argparse would exit,
    so that the dispatcher decides where the message goes."""

    def error(self, message):
        raise _UsageError(self, message)


class Param:
    """One ``add_argument`` call, kept until a command's parser is built;
    ``name`` is the keyword it passes to the command."""

    def __init__(self, *flags, **kwargs):
        self.flags = flags
        self.kwargs = kwargs
        self.name = kwargs.get("dest") or flags[0].lstrip("-").replace("-", "_")


# every command takes it; parsed, listed in --help and never read: the
# dispatcher reads the raw args
_ERROR_JSON = Param("--error-json", action="store_true",
                    help="Emit machine-readable error JSON on stdout instead of a message on stderr.")


class Command:
    """One command: its parameters and its body.

    The dispatcher reads ``callback`` on every call, so a caller may swap it.
    """

    def __init__(self, callback, params):
        self.callback = callback
        self.params = [*params, _ERROR_JSON]
        # the options that take the next token as their value: all but the flag
        self.value_options = {flag for param in params for flag in param.flags
                              if flag.startswith("-")}


class Cli:
    """The command line: one argparse subparser per command, each failure mapped
    to an exit code once.

    Every command takes an --error-json flag, and the top level takes it
    before the command name too. Domain errors exit 1; I/O and usage errors
    exit 2. The error goes to stderr as a message (a usage error after its
    usage line), or under --error-json to stdout as one JSON object. The flag
    is read once, from the raw args, as parsing may fail before it reaches
    the flag: the token anywhere turns the payload on. A warning goes to
    stderr as one line, "warning: <message>".

    Called with no args it reads ``sys.argv``. It ends in ``SystemExit(0)``
    on success, or returns under ``standalone_mode=False``; every failure
    ends in ``SystemExit`` with its exit code.
    """

    def __init__(self, description):
        self.description = description
        self.commands = {}

    def command(self, name, *params):
        def register(callback):
            self.commands[name] = Command(callback, params)
            return callback
        return register

    def _parsers(self):
        """The top-level parser, and each command's by name."""
        options = {"add_help": False, "allow_abbrev": False}
        top = _Parser(prog="releval", description=self.description, **options)
        top.add_argument("--version", action="version", version=f"releval, version {__version__}",
                         help="Show the version and exit.")
        top.add_argument("--help", action="help", help="Show this message and exit.")
        top.add_argument("--error-json", action="store_true", help=argparse.SUPPRESS)
        subparsers = top.add_subparsers(dest="command", metavar="COMMAND")
        for name, command in self.commands.items():
            doc = command.callback.__doc__
            sub = subparsers.add_parser(name, help=doc, description=doc, **options)
            for param in command.params:
                sub.add_argument(*param.flags, **param.kwargs)
            sub.add_argument("--help", action="help", help="Show this message and exit.")
        return top, subparsers.choices

    def _parse(self, args):
        """The command and its keyword arguments, or a usage error."""
        top, subs = self._parsers()
        parsed, extras = top.parse_known_args(_joined_values(args, self.commands))
        kwargs = vars(parsed)
        name = kwargs.pop("command")
        del kwargs["error_json"]
        # checked here, not by argparse: it would report a missing command
        # first, and so not name the option in "releval --bogus"
        if extras:
            subs.get(name, top).error(f"unrecognized arguments: {' '.join(extras)}")
        if name is None:
            top.error("the following arguments are required: COMMAND")
        return name, kwargs

    def __call__(self, args=None, standalone_mode=True):
        args = sys.argv[1:] if args is None else list(args)
        error_json = "--error-json" in args  # read first: parsing may fail before it
        try:
            name, kwargs = self._parse(args)
            with warnings.catch_warnings():
                # every warning is one line, whatever the interpreter's filters
                warnings.simplefilter("always")
                warnings.showwarning = _echo_warning
                self.commands[name].callback(**kwargs)
        except _UsageError as err:
            code, payload = EXIT_IO, {"error": "UsageError", "message": str(err)}
            message = f"{err.parser.format_usage()}{err.parser.prog}: error: {err}"
        except RelevalError as err:
            code, payload, message = EXIT_DOMAIN, err.payload(), f"error: {err}"
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as err:
            code, payload, message = (EXIT_IO, {"error": "IOError", "message": str(err)},
                                      f"I/O error: {err}")
        except KeyboardInterrupt:
            if not standalone_mode:
                raise
            print("\nAborted!", file=sys.stderr)  # one line, no traceback, as under click
            sys.exit(1)
        else:
            if standalone_mode:
                sys.exit(0)
            return
        if error_json:
            print(json.dumps(payload, sort_keys=True))
        else:
            print(message, file=sys.stderr)
        sys.exit(code)


def _joined_values(args, commands):
    """``args`` with each of the command's options joined to the token after
    it (``--mu=-1e-3``), up to a lone ``--``: an option takes the next token
    as its value, whatever it is, where argparse would read one that starts
    with "-" as an option."""
    joined, value_options = [], set()
    tokens = iter(args)
    for arg in tokens:
        if arg == "--":
            joined.append(arg)
            joined.extend(tokens)
        elif arg in value_options:
            value = next(tokens, None)
            joined.append(arg if value is None else f"{arg}={value}")
        else:
            if not value_options and arg in commands:  # the command name
                value_options = commands[arg].value_options
            joined.append(arg)
    return joined


def _echo_warning(message, category, filename, lineno, file=None, line=None):
    # a warning is news about the input, not about the code that noticed it
    print(f"warning: {message}", file=sys.stderr)


main = Cli("Whole-page relevance measurement for paired A/B experiments.")


@main.command(
    "metric",
    Param("dataset_path", metavar="DATASET_PATH"),
    Param("--k", dest="k_depth", type=int, default=DEFAULT_K_DEPTH,
          help="Metric depth K (default: %(default)s)."),
    Param("--out", dest="out_path", default="-", help="Output CSV path (default stdout)."))
def cli_metric(dataset_path, k_depth, out_path):
    """Per-query page-score CSV for every arm in DATASET_PATH."""
    dataset = dataset_io.read_dataset(dataset_path, k_depth=k_depth)
    rows = [f"# k_depth={k_depth}", "query_id,arm,sdcg,short_page"]
    # page by page, not by metrics.arm_scores: its numpy block would load
    # numpy, which costs more than scoring per page below about 3x10^4 queries
    sdcg_at_k = metrics.sdcg_at_k
    for rec in dataset.records:
        query_id = rec.query_id
        if "," in query_id or '"' in query_id or "\r" in query_id or "\n" in query_id:
            # the one free-text field, quoted as csv.QUOTE_MINIMAL quotes it
            query_id = '"' + query_id.replace('"', '""') + '"'
        for arm, page in (("control", rec.control), ("treatment", rec.treatment)):
            if page is not None:
                try:
                    value = sdcg_at_k(page, k_depth)
                except EmptyPage as err:
                    err.query_id, err.field = rec.query_id, arm
                    raise
                short = "true" if len(page) < k_depth else "false"
                rows.append(f"{query_id},{arm},{value:.10f},{short}")
    _emit("\n".join(rows) + "\n", out_path)


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


@main.command(
    "evaluate",
    Param("dataset_path", metavar="DATASET_PATH"),
    Param("--design", dest="design_path",
          help="Strata design file with population weights (required for stratified)."),
    Param("--estimator", choices=["srs", "stratified"], default="srs",
          help="(default: %(default)s)"),
    Param("--alpha", type=float, default=0.05, help="(default: %(default)s)"),
    Param("--q", type=float, default=0.05,
          help="FDR level for segment analysis (default: %(default)s)."),
    Param("--by", dest="grouping", choices=list(GROUPINGS), default="popularity",
          help="(default: %(default)s)"),
    Param("--k", dest="k_depth", type=int, default=DEFAULT_K_DEPTH,
          help="(default: %(default)s)"),
    Param("--out", dest="out_path", default="-"))
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
    if all(rec.control_reference is not None and rec.treatment_reference is not None
           for rec in dataset.records):
        report["alignment"] = alignment.alignment_report(dataset, by_market=True)
    _emit_json(report, out_path)


@main.command(
    "design",
    Param("--strata", dest="strata_path", required=True,
          help="Strata design file with weights and sigmas."),
    Param("--budget", type=int, required=True),
    Param("--mode", choices=["neyman", "proportional"], default="neyman",
          help="(default: %(default)s)"),
    Param("--min-per-stratum", type=int, default=2, help="(default: %(default)s)"),
    Param("--out", dest="out_path", default="-"))
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


@main.command(
    "mde",
    Param("--mu", type=float, required=True, help="Metric mean estimate."),
    Param("--sigma", type=float, required=True, help="Metric std dev estimate."),
    Param("--n", dest="n_queries", type=int, help="Sample size."),
    Param("--target", type=float,
          help="Target MDE as a fraction; prints the required n instead."),
    Param("--alpha", type=float, default=0.05, help="(default: %(default)s)"),
    Param("--power", dest="power_level", type=float, default=0.8,
          help="(default: %(default)s)"))
def cli_mde(mu, sigma, n_queries, target, alpha, power_level):
    """Minimum detectable effect, or required n for a target MDE."""
    cfg = power.PowerConfig(alpha=alpha, power=power_level)
    if (n_queries is None) == (target is None):
        raise OutOfDomain("provide exactly one of --n or --target")
    if target is not None:
        print(power.required_n(mu, sigma, target, cfg))
    else:
        value = power.mde(mu, sigma, n_queries, cfg)
        print(f"{value * 100:.4f}%")


@main.command(
    "align",
    Param("dataset_path", metavar="DATASET_PATH"),
    Param("--by", choices=["popularity", "market"], default="popularity",
          help="'popularity' pools markets; 'market' reports each market separately "
               "(default: %(default)s)."),
    Param("--k", dest="k_depth", type=int, default=DEFAULT_K_DEPTH,
          help="(default: %(default)s)"),
    Param("--out", dest="out_path", default="-"),
    Param("--errors-csv", help="Also write per-query machine/reference scores and errors."))
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
    return alignment.pooled_agreement(
        pair for rec in dataset.records
        for pair in ((rec.control, rec.control_reference),
                     (rec.treatment, rec.treatment_reference))
        if pair[1] is not None)


@main.command(
    "simulate",
    Param("--spec", dest="spec_path", required=True, help="Population spec JSON."),
    Param("--confusion", dest="confusion_path",
          help="Confusion matrix JSON (default: identity labeler)."),
    Param("--effect", dest="effect_path", help="Effect spec JSON (default: null effect)."),
    Param("--seed", type=int, default=DEFAULT_SEED, help="(default: %(default)s)"),
    Param("--rho-shared", type=float, default=0.0,
          help="Probability that both arms share a labeler draw per position "
               "(default: %(default)s)."),
    Param("--out", dest="out_path", required=True))
def cli_simulate(spec_path, confusion_path, effect_path, seed, rho_shared, out_path):
    """Generate a synthetic paired experiment dataset (JSONL)."""
    spec = dataset_io.load_population_spec(spec_path)
    confusion = (dataset_io.load_confusion(confusion_path) if confusion_path
                 else simulator.ConfusionMatrix.identity())
    effect = dataset_io.load_effect(effect_path) if effect_path else simulator.EffectSpec.null()
    dataset = simulator.run_synthetic_experiment(spec, effect, confusion, seed, rho_shared)
    dataset_io.write_dataset(dataset, out_path)


def _emit(text, out_path):
    """Write a report as built, to ``out_path`` or, for "-", to stdout."""
    if out_path == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(report, out_path):
    _emit(dataset_io.canonical_json(report), out_path)


def run():
    """The process entry point: ``main`` without the cyclic garbage collector.

    A command builds no reference cycles worth collecting (JSON objects,
    slotted records, ``bytes`` pages and numpy arrays), so the collector's
    passes while it works find nothing, and at exit ``gc.freeze()`` moves the
    whole heap out of reach of the interpreter's shut-down collections. Every
    output file is closed by its ``with`` block and stdio is flushed at
    shut-down either way. ``main`` itself keeps the collector, for
    in-process callers such as the test suite's runner.
    """
    gc.disable()
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
