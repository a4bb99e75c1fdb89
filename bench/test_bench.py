"""Tests of the benchmark's own parts: oracle scorer, generators and output checks."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TestOracleScorer:
    def test_anchors(self):
        scores = oracle.score_pages([np.ones(25), np.full(25, 5), np.ones(3), np.full(7, 5)], 25)
        np.testing.assert_allclose(scores, [0.2, 1.0, 0.2, 1.0], rtol=0, atol=1e-15)

    def test_hand_computed_page(self):
        # (3 / 1 + 1 / log2(3)) / (5 * (1 + 1 / log2(3)))
        d2 = 1.0 / np.log2(3.0)
        want = (3.0 + d2) / (5.0 * (1.0 + d2))
        assert oracle.score_pages([np.array([3, 1, 5])], 2)[0] == pytest.approx(want, abs=1e-15)

    def test_bh_step_up(self):
        # thresholds 0.0125, 0.025, 0.0375, 0.05: rank 2 misses its threshold
        # but rank 3 meets its own, so the step-up rejects ranks 1 to 3
        assert oracle.bh_rejections([0.03, 0.001, 0.036, 0.2], 0.05) == [True, True, True, False]


class TestGenerators:
    @pytest.mark.parametrize("name", ["paired-eval", "segments-short"])
    def test_same_seed_same_bytes(self, name, tmp_path):
        gen = workloads.GENERATORS[name]
        files = []
        for sub, seed in (("a", 3), ("b", 3), ("c", 4)):
            (tmp_path / sub).mkdir()
            w = gen(seed, tmp_path / sub, n_queries=400)
            files.append({k: p.read_bytes() for k, p in w.files.items()})
        assert files[0] == files[1]
        assert files[0] != files[2]

    def test_short_pages_are_ragged(self, tmp_path):
        w = workloads.segments_short(5, tmp_path, n_queries=2000)
        lengths = np.array([len(q.control.machine) for q in w.queries])
        assert lengths.min() >= 1 and lengths.max() == workloads.K_DEPTH
        assert 6 <= np.median(lengths) <= 10
        assert len({(q.interest, q.popularity) for q in w.queries}) == 200

    def test_planted_violations_are_all_kinds(self, tmp_path):
        w = workloads.segments_short(5, tmp_path, n_queries=500)
        codes = {code for code, _, _ in w.planted}
        assert codes == {"DuplicateQueryId", "BadLabelValue", "BadRankSequence", "MissingArm"}
        assert len(w.planted) == workloads.PLANTS_PER_KIND * len(workloads.PLANT_KINDS)


def _run_plan(gen, n_queries, workdir, monkeypatch):
    """Generate a small workload and run its commands in-process.

    Returns {name: (command, exit code, stdout, outputs)}.
    """
    workdir.mkdir()
    w = gen(7, workdir, n_queries=n_queries)
    monkeypatch.chdir(workdir)
    out = {}
    for cmd in run.plan(w):
        code, stdout = tracing.run_cli(cmd.args)
        files = {name: (workdir / name).read_text(encoding="utf-8") for name in cmd.outputs}
        out[cmd.name] = (cmd, code, stdout, files)
    return out


class TestChecks:
    @pytest.fixture
    def paired(self, tmp_path, monkeypatch):
        return _run_plan(workloads.paired_eval, 400, tmp_path / "paired", monkeypatch)

    @pytest.fixture
    def short(self, tmp_path, monkeypatch):
        return _run_plan(workloads.segments_short, 600, tmp_path / "short", monkeypatch)

    def test_library_output_passes(self, paired, short):
        for results in (paired, short):
            for name, (cmd, code, stdout, files) in results.items():
                assert cmd.check(code, stdout, files) == [], name

    def test_corrupted_metric_csv_is_flagged(self, paired):
        cmd, code, stdout, files = paired["metric"]
        lines = files["metric.csv"].splitlines()
        qid, arm, value, short = lines[5].split(",")
        lines[5] = ",".join([qid, arm, f"{float(value) + 1e-8:.10f}", short])
        files["metric.csv"] = "\n".join(lines) + "\n"
        assert cmd.check(code, stdout, files)

    def test_corrupted_evaluate_report_is_flagged(self, short):
        cmd, code, stdout, files = short["evaluate"]
        report = json.loads(files["evaluate.json"])
        report["segments"][3]["estimate"]["mean"] += 1e-6
        files["evaluate.json"] = json.dumps(report)
        assert cmd.check(code, stdout, files)

    def test_corrupted_align_report_is_flagged(self, paired):
        cmd, code, stdout, files = paired["align"]
        report = json.loads(files["align.json"])
        report["segments"][0]["kendall"] += 1e-9
        files["align.json"] = json.dumps(report)
        assert cmd.check(code, stdout, files)

    def test_missing_violation_is_flagged(self, short):
        cmd, code, stdout, _ = short["reject"]
        payload = json.loads(stdout)
        payload["violations"].pop()
        assert cmd.check(code, json.dumps(payload), {})
        assert cmd.check(0, stdout, {})


def test_trace_self_time_within_span_time(tmp_path, monkeypatch):
    w = workloads.paired_eval(2, tmp_path, n_queries=400)
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer()
    cmds = run.plan(w)
    with tracer.install():
        for cmd in cmds:
            tracing.run_cli(cmd.args)
    import releval.metrics

    assert not hasattr(releval.metrics.sdcg_at_k, "__wrapped__")  # restored
    assert tracer.stats["metrics.sdcg_at_k"].calls > 0
    for module, span_s in tracer.module_span_s.items():
        assert 0.0 <= tracer.module_self_s[module] <= span_s + 1e-9, module
    assert all(s["self_s"] <= s["end"] - s["start"] + 1e-12 for s in tracer.spans)
