"""Independent reference computations and the output checks built on them.

The page scorer here is a direct numpy transcription of the score formula;
it shares no code with ``releval.metrics``. Rank correlations come from
``scipy.stats``. Each ``check_*`` function returns a list of problems, empty
when the command's output is correct.
"""

from __future__ import annotations

import json
from collections import defaultdict

import numpy as np
from scipy import stats

from workloads import SIM_EXACT, SIM_QUERIES_PER_STRATUM, Query

VALUE_TOL = 1e-9
CORRELATION_TOL = 1e-12
AGREEMENT_TOL = 0.01
MAX_PROBLEMS = 5


def discounts(k: int) -> np.ndarray:
    """1 / log2(1 + rank) for ranks 1..k."""
    return 1.0 / np.log2(np.arange(2, k + 2, dtype=float))


def score_pages(pages: list[np.ndarray], k: int) -> np.ndarray:
    """Page scores at depth ``k``: 0.2 when every label is 1, 1.0 when every label is 5."""
    lengths = np.minimum([len(p) for p in pages], k)
    padded = np.zeros((len(pages), k))
    for i, (page, n) in enumerate(zip(pages, lengths)):
        padded[i, :n] = page[:n]
    d = discounts(k)
    return (padded @ d) / (5.0 * np.cumsum(d)[lengths - 1])


def bh_rejections(p_values: list[float], q: float) -> list[bool]:
    """Benjamini-Hochberg step-up decisions by direct threshold enumeration."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: (p_values[i], i))
    passing = [pos for pos, i in enumerate(order, start=1) if p_values[i] <= pos * q / m]
    k_star = max(passing, default=0)
    rejected = [False] * m
    for i in order[:k_star]:
        rejected[i] = True
    return rejected


class Expected:
    """Oracle values for one generated workload, computed once per run."""

    def __init__(self, queries: list[Query], weights=None, planted=None):
        self.queries = queries
        self.weights = weights or {}
        self.planted = planted or set()
        self._scores: dict[tuple[str, str, int], np.ndarray] = {}

    def scores(self, arm: str, source: str, k: int) -> np.ndarray:
        key = (arm, source, k)
        if key not in self._scores:
            self._scores[key] = score_pages(
                [getattr(getattr(q, arm), source) for q in self.queries], k)
        return self._scores[key]

    def deltas(self, k: int) -> np.ndarray:
        return self.scores("treatment", "machine", k) - self.scores("control", "machine", k)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_metric(exp: Expected, k: int, text: str) -> list[str]:
    lines = text.splitlines()
    if lines[:2] != [f"# k_depth={k}", "query_id,arm,sdcg,short_page"]:
        return [f"metric: bad header {lines[:2]!r}"]
    rows = [line.split(",") for line in lines[2:]]
    if len(rows) != 2 * len(exp.queries):
        return [f"metric: {len(rows)} rows, expected {2 * len(exp.queries)}"]
    expected = np.column_stack([exp.scores("control", "machine", k),
                                exp.scores("treatment", "machine", k)]).ravel()
    problems = []
    for i, (row, want) in enumerate(zip(rows, expected)):
        q = exp.queries[i // 2]
        arm = ("control", "treatment")[i % 2]
        short = len(getattr(q, arm).machine) < k
        if (row[0] != q.query_id or row[1] != arm or row[3] != str(short).lower()
                or not _close(float(row[2]), want, VALUE_TOL)):
            problems.append(f"metric: row {i + 3} {row!r}, expected {q.query_id},{arm},{want:.10f}")
            if len(problems) >= MAX_PROBLEMS:
                break
    return problems


def _segment_name(q: Query, grouping: str) -> str:
    return q.popularity if grouping == "popularity" else f"{q.interest}/{q.popularity}"


def _reported_name(segment) -> str:
    """A report names a stratum segment as an {interest, popularity} object."""
    if isinstance(segment, dict):
        return f"{segment['interest']}/{segment['popularity']}"
    return segment


def check_evaluate(exp: Expected, report: dict, grouping: str, k: int = 25,
                   q_level: float = 0.05) -> list[str]:
    deltas = exp.deltas(k)
    groups = defaultdict(list)
    for query, d in zip(exp.queries, deltas):
        groups[_segment_name(query, grouping)].append(d)
    if exp.weights:
        strata = defaultdict(list)
        for query, d in zip(exp.queries, deltas):
            strata[(query.interest, query.popularity)].append(d)
        topline = sum(w * float(np.mean(strata[key])) for key, w in exp.weights.items())
    else:
        topline = float(np.mean(deltas))

    problems = []
    top = report["topline"]
    if top["n"] != len(deltas) or not _close(top["mean"], topline, VALUE_TOL):
        problems.append(f"evaluate: topline n={top['n']} mean={top['mean']!r}, "
                        f"expected n={len(deltas)} mean={topline!r}")
    segments = report["segments"]
    names = [_reported_name(s["segment"]) for s in segments]
    want_names = sorted(name for name, ds in groups.items() if len(ds) >= 2)
    if sorted(names) != want_names:
        problems.append(f"evaluate: {len(names)} segments, expected {len(want_names)}")
        return problems
    for name, seg in zip(names, segments):
        est, ds = seg["estimate"], groups[name]
        if est["n"] != len(ds) or not _close(est["mean"], float(np.mean(ds)), VALUE_TOL):
            problems.append(f"evaluate: segment {name} mean {est['mean']!r}, "
                            f"expected {float(np.mean(ds))!r}")
    want_rejected = bh_rejections([s["estimate"]["p_value"] for s in segments], q_level)
    if [s["bh_rejected"] for s in segments] != want_rejected:
        problems.append("evaluate: BH flags disagree with step-up on the reported p-values")
    if exp.weights and "alignment" not in report:
        problems.append("evaluate: reference labels present but no alignment block")
    return problems[:MAX_PROBLEMS]


def check_align(exp: Expected, report: dict, errors_csv: str, k: int = 25) -> list[str]:
    machine = exp.scores("control", "machine", k)
    reference = exp.scores("control", "reference", k)
    markets = np.array([q.market for q in exp.queries])
    problems = []
    for market in sorted(set(markets)):
        rows = [s for s in report["segments"]
                if s["market"] == market and s["segment"] == "overall"]
        mask = markets == market
        tau = stats.kendalltau(machine[mask], reference[mask]).statistic
        rho = stats.spearmanr(machine[mask], reference[mask]).statistic
        if (len(rows) != 1 or not _close(rows[0]["kendall"], tau, CORRELATION_TOL)
                or not _close(rows[0]["spearman"], rho, CORRELATION_TOL)):
            problems.append(f"align: {market}/overall {rows!r:.200}, expected tau={tau!r} rho={rho!r}")

    lines = errors_csv.splitlines()
    if lines[:1] != ["query_id,market,segment,machine_sdcg,reference_sdcg,error"]:
        return problems + [f"align: bad errors-csv header {lines[:1]!r}"]
    if len(lines) - 1 != len(exp.queries):
        return problems + [f"align: {len(lines) - 1} error rows, expected {len(exp.queries)}"]
    for i, (line, q, m, r) in enumerate(zip(lines[1:], exp.queries, machine, reference)):
        row = line.split(",")
        if (row[:3] != [q.query_id, q.market, q.popularity]
                or not all(_close(float(got), want, VALUE_TOL)
                           for got, want in zip(row[3:], (m, r, m - r)))):
            problems.append(f"align: errors-csv row {i + 2} {row!r}")
            if len(problems) >= MAX_PROBLEMS:
                break
    return problems


def check_reject(exp: Expected, exit_code: int, stdout: str) -> list[str]:
    if exit_code != 1:
        return [f"reject: exit code {exit_code}, expected 1"]
    payload = json.loads(stdout)
    violations = payload.get("violations", [])
    got = [(v["error"], v.get("query_id"), v.get("field")) for v in violations]
    problems = []
    if payload.get("error") != "DatasetValidationError":
        problems.append(f"reject: error {payload.get('error')!r}")
    if len(got) != len(set(got)) or set(got) != exp.planted:
        missing = sorted(exp.planted - set(got))[:3]
        extra = sorted(set(got) - exp.planted)[:3]
        problems.append(f"reject: {len(got)} violations for {len(exp.planted)} planted; "
                        f"missing {missing}, unexpected {extra}")
    return problems


def check_simulate(spec: dict, text: str) -> list[str]:
    k = spec["k_depth"]
    strata = {(s["interest"], s["popularity"]) for s in spec["strata"]}
    lines = text.splitlines()
    want = len(strata) * SIM_QUERIES_PER_STRATUM
    if len(lines) != want:
        return [f"simulate: {len(lines)} records, expected {want}"]
    ids = set()
    machine, reference = [], []
    for i, line in enumerate(lines):
        rec = json.loads(line)
        arms = [rec.get("control"), rec.get("treatment")]
        stratum = rec.get("stratum") or {}
        ok = ((stratum.get("interest"), stratum.get("popularity")) in strata
              and all(isinstance(a, dict) and len(a.get("machine_labels", ())) == k
                      and len(a.get("reference_labels", ())) == k for a in arms))
        if not ok:
            return [f"simulate: malformed record on line {i + 1}"]
        ids.add(rec["query_id"])
        for a in arms:
            machine.append(a["machine_labels"])
            reference.append(a["reference_labels"])
    machine, reference = np.array(machine), np.array(reference)
    problems = []
    if len(ids) != want:
        problems.append(f"simulate: {len(ids)} distinct query ids, expected {want}")
    if machine.min() < 1 or machine.max() > 5 or reference.min() < 1 or reference.max() > 5:
        problems.append("simulate: label outside 1..5")
    exact = float((machine == reference).mean())
    if not _close(exact, SIM_EXACT, AGREEMENT_TOL):
        problems.append(f"simulate: exact agreement {exact:.4f}, expected {SIM_EXACT} +- {AGREEMENT_TOL}")
    return problems
