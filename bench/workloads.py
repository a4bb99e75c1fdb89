"""Seeded input generators for the benchmark workloads.

Every input is drawn with numpy from the benchmark seed alone. Nothing here
imports ``releval``: in particular the ``simulate`` workload writes only a
spec file, so a change to the library's simulator cannot change the inputs
of the other workloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

POPULARITIES = ("head", "torso", "tail", "single")
K_DEPTH = 25

PAIRED_QUERIES = 1_500
PAIRED_MARKETS = ("DE", "US")
PAIRED_INTERESTS = ("books", "cars", "food", "travel")

SHORT_QUERIES = 4_000
SHORT_INTERESTS = 50
SHORT_K = 10
# a geometric length with this success probability has median 8
SHORT_GEOMETRIC_P = 0.085
PLANTS_PER_KIND = 20
PLANT_KINDS = ("duplicate_id", "label_7", "rank_gap", "missing_control", "unknown_popularity")

SIM_STRATA = 8
SIM_QUERIES_PER_STRATUM = 125
SIM_EXACT = 0.737
SIM_WITHIN_ONE = 0.917
SIM_EFFECT = 0.05
SIM_RHO_SHARED = 0.5


@dataclass
class Page:
    """Labels for one arm; ``reference`` is set for dual-label pages."""

    machine: np.ndarray
    reference: np.ndarray | None = None


@dataclass
class Query:
    query_id: str
    market: str
    interest: str
    popularity: str
    control: Page
    treatment: Page


@dataclass
class Workload:
    """Generated files plus the queries they encode (the oracle's view)."""

    name: str
    queries: list[Query]
    files: dict[str, Path] = field(default_factory=dict)
    weights: dict[tuple[str, str], float] = field(default_factory=dict)
    planted: set[tuple[str, str, str]] = field(default_factory=set)
    seed: int = 0


def _rng(seed: int, purpose: str) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, sum(map(ord, purpose)), len(purpose)])


def _stratum_pmfs(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 5) label distributions, each spread over all five levels."""
    return rng.dirichlet(np.full(5, 2.0), size=n)


def _draw_labels(rng: np.random.Generator, pmf: np.ndarray, size) -> np.ndarray:
    return rng.choice(5, size=size, p=pmf).astype(np.int64) + 1


def _corrupt(rng: np.random.Generator, labels: np.ndarray, keep: float) -> np.ndarray:
    """Machine labels: each label kept w.p. ``keep``, else moved by +-1 or +-2."""
    noise = rng.choice(np.array([-2, -1, 1, 2]), size=labels.shape, p=[0.1, 0.4, 0.4, 0.1])
    moved = np.clip(labels + noise, 1, 5)
    return np.where(rng.random(labels.shape) < keep, labels, moved)


def _shift(rng: np.random.Generator, labels: np.ndarray, up: float) -> np.ndarray:
    """Treatment labels: each label raised by one w.p. ``up`` (clamped at 5)."""
    return np.minimum(labels + (rng.random(labels.shape) < up), 5)


def _split(rng: np.random.Generator, total: int, shares: np.ndarray, minimum: int) -> np.ndarray:
    """Integer counts summing to ``total``, each at least ``minimum``."""
    counts = np.full(len(shares), minimum)
    counts += rng.multinomial(total - counts.sum(), shares / shares.sum())
    return counts


def _write_jsonl(path: Path, objs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def _list_arm(labels: np.ndarray) -> list[dict]:
    return [{"rank": i + 1, "label": int(v)} for i, v in enumerate(labels)]


def _dual_arm(page: Page) -> dict:
    return {"machine_labels": page.machine.tolist(), "reference_labels": page.reference.tolist()}


def _record(q: Query, arm) -> dict:
    return {"query_id": q.query_id, "market": q.market,
            "stratum": {"interest": q.interest, "popularity": q.popularity},
            "control": arm(q.control), "treatment": arm(q.treatment)}


def paired_eval(seed: int, workdir: Path, n_queries: int = PAIRED_QUERIES) -> Workload:
    """Dual-label K=25 pages in 16 strata of unequal weight, two markets, a design file."""
    rng = _rng(seed, "paired-eval")
    strata = [(i, p) for i in PAIRED_INTERESTS for p in POPULARITIES]
    weights = rng.dirichlet(np.full(len(strata), 1.5))
    counts = _split(rng, n_queries, rng.dirichlet(np.full(len(strata), 3.0)), 20)
    pmfs = _stratum_pmfs(rng, len(strata))
    queries = []
    for s, ((interest, pop), count) in enumerate(zip(strata, counts)):
        ref_c = _draw_labels(rng, pmfs[s], (count, K_DEPTH))
        ref_t = _shift(rng, ref_c, 0.05 + 0.1 * rng.random())
        mach_c = _corrupt(rng, ref_c, 0.74)
        mach_t = _corrupt(rng, ref_t, 0.74)
        markets = rng.choice(len(PAIRED_MARKETS), size=count)
        for q in range(count):
            queries.append(Query(
                query_id=f"{interest}-{pop}-{q:05d}", market=PAIRED_MARKETS[markets[q]],
                interest=interest, popularity=pop,
                control=Page(mach_c[q], ref_c[q]), treatment=Page(mach_t[q], ref_t[q])))
    order = rng.permutation(len(queries))
    queries = [queries[i] for i in order]

    w = Workload("paired-eval", queries, seed=seed)
    w.weights = {key: float(x) for key, x in zip(strata, weights)}
    w.files["dataset"] = workdir / "paired.jsonl"
    w.files["design"] = workdir / "design.json"
    _write_jsonl(w.files["dataset"], (_record(q, _dual_arm) for q in queries))
    design = [{"interest": i, "popularity": p, "weight": w.weights[(i, p)], "sigma": 0.05}
              for i, p in strata]
    w.files["design"].write_text(json.dumps(design), encoding="utf-8")
    return w


def segments_short(seed: int, workdir: Path, n_queries: int = SHORT_QUERIES) -> Workload:
    """List-form ragged pages in about 200 small strata, plus a copy with planted violations."""
    rng = _rng(seed, "segments-short")
    strata = [(f"i{j:02d}", p) for j in range(SHORT_INTERESTS) for p in POPULARITIES]
    counts = _split(rng, n_queries, rng.dirichlet(np.full(len(strata), 2.0)), 2)
    pmfs = _stratum_pmfs(rng, len(strata))
    queries = []
    for s, ((interest, pop), count) in enumerate(zip(strata, counts)):
        lengths = np.minimum(rng.geometric(SHORT_GEOMETRIC_P, size=(count, 2)), K_DEPTH)
        control = _draw_labels(rng, pmfs[s], (count, K_DEPTH))
        treatment = _shift(rng, _draw_labels(rng, pmfs[s], (count, K_DEPTH)), 0.1)
        for q in range(count):
            queries.append(Query(
                query_id=f"{interest}-{pop}-{q:04d}", market="US",
                interest=interest, popularity=pop,
                control=Page(control[q, :lengths[q, 0]]),
                treatment=Page(treatment[q, :lengths[q, 1]])))
    order = rng.permutation(len(queries))
    queries = [queries[i] for i in order]

    w = Workload("segments-short", queries, seed=seed)
    w.files["dataset"] = workdir / "short.jsonl"
    w.files["invalid"] = workdir / "short_invalid.jsonl"
    records = [_record(q, lambda p: _list_arm(p.machine)) for q in queries]
    _write_jsonl(w.files["dataset"], records)
    bad, w.planted = plant_violations(records, rng)
    _write_jsonl(w.files["invalid"], bad)
    return w


def plant_violations(records: list[dict], rng: np.random.Generator):
    """Copy ``records`` with PLANTS_PER_KIND violations of each kind on distinct records.

    Returns the corrupted copy and the expected set of (error, query_id, field)
    that ``--error-json`` must report.
    """
    bad = json.loads(json.dumps(records))
    # a duplicate pair uses two records, every other kind one
    picks = iter(rng.choice(len(bad), size=PLANTS_PER_KIND * (len(PLANT_KINDS) + 1),
                            replace=False).tolist())
    planted = set()
    for _ in range(PLANTS_PER_KIND):
        src, dst = bad[next(picks)], bad[next(picks)]
        dst["query_id"] = src["query_id"]
        planted.add(("DuplicateQueryId", src["query_id"], "query_id"))

        rec = bad[next(picks)]
        rec["control"][int(rng.integers(len(rec["control"])))]["label"] = 7
        planted.add(("BadLabelValue", rec["query_id"], "control"))

        rec = bad[next(picks)]
        rec["treatment"].append({"rank": len(rec["treatment"]) + 2, "label": 3})
        planted.add(("BadRankSequence", rec["query_id"], "treatment"))

        rec = bad[next(picks)]
        del rec["control"]
        planted.add(("MissingArm", rec["query_id"], "control"))

        rec = bad[next(picks)]
        rec["stratum"]["popularity"] = "viral"
        planted.add(("BadLabelValue", rec["query_id"], "stratum"))
    return bad, planted


def simulate(seed: int, workdir: Path) -> Workload:
    """Spec, calibrated-confusion and effect files for ``releval simulate``."""
    rng = _rng(seed, "simulate")
    weights = rng.dirichlet(np.full(SIM_STRATA, 2.0))
    strata = []
    for j in range(SIM_STRATA):
        key = {"interest": f"s{j}", "popularity": POPULARITIES[j % len(POPULARITIES)],
               "weight": float(weights[j])}
        if j % 2:
            key["profile"] = {"kind": "categorical",
                              "probs": rng.dirichlet(np.full(5, 2.0)).tolist()}
        else:
            key["profile"] = {"kind": "curve", "mean_top": float(rng.uniform(3.5, 5.0)),
                              "decay": float(rng.uniform(0.02, 0.1))}
        strata.append(key)
    w = Workload("simulate", [], seed=seed)
    w.files["spec"] = workdir / "spec.json"
    w.files["confusion"] = workdir / "confusion.json"
    w.files["effect"] = workdir / "effect.json"
    w.files["spec"].write_text(json.dumps(
        {"k_depth": K_DEPTH, "queries_per_stratum": SIM_QUERIES_PER_STRATUM,
         "strata": strata}), encoding="utf-8")
    w.files["confusion"].write_text(json.dumps(
        {"calibrate": {"exact": SIM_EXACT, "within_one": SIM_WITHIN_ONE}}), encoding="utf-8")
    w.files["effect"].write_text(json.dumps({"default": SIM_EFFECT}), encoding="utf-8")
    return w


GENERATORS = {"paired-eval": paired_eval, "segments-short": segments_short,
              "simulate": simulate}
