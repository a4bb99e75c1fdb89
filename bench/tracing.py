"""Traced in-process run: per-module time and counts, measured from outside.

The library is not modified. ``Tracer.install`` replaces each public
function listed below with a timing wrapper, in every ``releval`` module that
holds a reference to it (so ``from .metrics import sdcg_at_k`` in ``cli`` and
the call inside ``metrics.paired_delta`` are both seen), and puts the
originals back on exit. Stage-level functions record a span each; per-page
functions, called 10^4 to 10^5 times a run, only add to a counter and to the
enclosing span's child time. Spans are kept in memory and written out when
the run ends.

The CLI runs single-threaded here (``simulate`` keeps its default of one
job), so one stack of open frames describes the nesting.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# (module, attribute) of each stage-level function; one span per call
SPANNED = [
    ("dataset_io", "read_dataset"), ("dataset_io", "read_jsonl"),
    ("dataset_io", "write_dataset"), ("dataset_io", "load_design"),
    ("core", "validate_dataset"),
    ("estimation", "srs_estimate"), ("estimation", "stratified_estimate"),
    ("estimation", "segment_effects"),
    ("fdr", "benjamini_hochberg"),
    ("power", "mde"), ("power", "required_n"),
    ("alignment", "alignment_report"), ("alignment", "kendall_tau"),
    ("alignment", "spearman_rho"), ("alignment", "error_distribution"),
    ("alignment", "label_agreement"),
    ("simulator", "run_synthetic_experiment"), ("simulator", "apply_labeler"),
    ("sampling", "allocate"),
    ("cli", "_topline_mde"), ("cli", "_dataset_agreement"),
]
# per-page and per-query functions; counted, no span per call
COUNTED = [("metrics", "sdcg_at_k"), ("metrics", "paired_delta"), ("_rng", "substream")]
# renamed spans: the CLI's report writer is a thin shell around dataset_io's
# canonical JSON, so its time is booked as dataset_io's report emission
RENAMED = {("cli", "_emit_json"): "dataset_io.report_emit"}


@dataclass
class Frame:
    name: str
    module: str
    span_id: int | None
    child_s: float = 0.0


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    spans: list[dict] = field(default_factory=list)
    stats: dict[str, Stat] = field(default_factory=lambda: defaultdict(Stat))
    # per module: time inside its outermost frames, and its summed self time
    module_span_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    module_self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _stack: list[Frame] = field(default_factory=list)

    def _wrap(self, name: str, fn, spanned: bool):
        module = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span_id = None
            if spanned:
                span_id = len(self.spans)
                self.spans.append({"id": span_id, "name": name,
                                   "parent": _nearest_span(self._stack)})
            frame = Frame(name, module, span_id)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self.counts[name + ".violations"] += len(getattr(err, "violations", ()))
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._close(frame, parent, start, end)
            self._count(name, result)
            return result

        return wrapper

    def _close(self, frame: Frame, parent: Frame | None, start: float, end: float) -> None:
        duration = end - start
        # children run one after another, so their durations sum to the
        # part of this interval they cover
        self_s = duration - frame.child_s
        stat = self.stats[frame.name]
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += self_s
        self.module_self_s[frame.module] += self_s
        if parent is None or parent.module != frame.module:
            self.module_span_s[frame.module] += duration
        if parent is not None:
            parent.child_s += duration
        if frame.span_id is not None:
            self.spans[frame.span_id].update(start=start, end=end, self_s=self_s)

    def _count(self, name: str, result) -> None:
        if name == "estimation.segment_effects":
            self.counts["estimation.segments"] += len(result.effects)
        elif name == "alignment.alignment_report":
            self.counts["alignment.groups"] += len(result.segments)

    @contextlib.contextmanager
    def install(self):
        """Patch every reference to the traced functions; restore them on exit."""
        from releval import cli

        modules = [m for n, m in sys.modules.items() if n == "releval" or n.startswith("releval.")]
        undo = []
        targets = ([(t, True) for t in SPANNED] + [(t, False) for t in COUNTED]
                   + [(t, True) for t in RENAMED])
        for (mod, attr), spanned in targets:
            original = getattr(sys.modules[f"releval.{mod}"], attr)
            wrapper = self._wrap(RENAMED.get((mod, attr), f"{mod}.{attr}"), original, spanned)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, key, value))
                        setattr(m, key, wrapper)
        for name, command in cli.main.commands.items():
            undo.append((command, "callback", command.callback))
            command.callback = self._wrap(f"cli.{name}", command.callback, True)
        try:
            yield self
        finally:
            for obj, key, value in reversed(undo):
                setattr(obj, key, value)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _nearest_span(stack: list[Frame]) -> int | None:
    for frame in reversed(stack):
        if frame.span_id is not None:
            return frame.span_id
    return None


def run_cli(args: list[str]) -> tuple[int, str]:
    """Run one CLI command in this process; returns (exit code, stdout)."""
    from releval.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            main(args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def dataset_bytes_per_query(path: Path, limit: int) -> float:
    """Live bytes per query of a validated dataset built from the first ``limit`` records."""
    from releval.dataset_io import read_dataset

    prefix = path.with_name("prefix-" + path.name)
    with open(path, encoding="utf-8") as src, open(prefix, "w", encoding="utf-8") as dst:
        for _, line in zip(range(limit), src):
            dst.write(line)
    gc.collect()
    tracemalloc.start()
    try:
        dataset = read_dataset(prefix)
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    prefix.unlink()
    return live / len(dataset)


def layer_metrics(tracer: Tracer, n_queries: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    stats = tracer.stats

    def per_query_us(name: str) -> float:
        s = stats.get(name, Stat())
        return 1e6 * s.self_s / (n_queries * s.calls) if s.calls else 0.0

    def per_call_us(name: str) -> float:
        s = stats.get(name, Stat())
        return 1e6 * s.self_s / s.calls if s.calls else 0.0

    def ms(name: str) -> float:
        return 1e3 * stats.get(name, Stat()).self_s

    def calls(name: str) -> int:
        return stats.get(name, Stat()).calls

    return {
        "dataset_io.read_jsonl.us_per_query": (per_query_us("dataset_io.read_jsonl"), "us/query"),
        "dataset_io.write_dataset.us_per_query": (per_query_us("dataset_io.write_dataset"), "us/query"),
        "dataset_io.report_emit.ms": (ms("dataset_io.report_emit"), "ms"),
        "core.validate_dataset.us_per_query": (per_query_us("core.validate_dataset"), "us/query"),
        "core.violations_reported": (tracer.counts["core.validate_dataset.violations"], "count"),
        "metrics.pages_scored_per_query": (calls("metrics.sdcg_at_k") / n_queries, "pages/query"),
        "metrics.sdcg_at_k.us_per_call": (per_call_us("metrics.sdcg_at_k"), "us/call"),
        "metrics.paired_delta.calls": (calls("metrics.paired_delta"), "count"),
        "estimation.segment_effects.ms": (ms("estimation.segment_effects"), "ms"),
        "estimation.segments": (tracer.counts["estimation.segments"], "count"),
        "fdr.benjamini_hochberg.ms": (ms("fdr.benjamini_hochberg"), "ms"),
        "power.mde.ms": (ms("power.mde"), "ms"),
        "alignment.alignment_report.us_per_query": (per_query_us("alignment.alignment_report"), "us/query"),
        "alignment.kendall_tau.ms": (ms("alignment.kendall_tau"), "ms"),
        "alignment.spearman_rho.ms": (ms("alignment.spearman_rho"), "ms"),
        "alignment.label_agreement.ms": (ms("alignment.label_agreement"), "ms"),
        "alignment.groups": (tracer.counts["alignment.groups"], "count"),
        "simulator.run_synthetic_experiment.us_per_query":
            (per_query_us("simulator.run_synthetic_experiment"), "us/query"),
        "rng.substreams_per_query": (calls("_rng.substream") / n_queries, "count/query"),
        "rng.substream.us_per_call": (per_call_us("_rng.substream"), "us/call"),
    }
