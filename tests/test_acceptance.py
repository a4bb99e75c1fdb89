"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every expected value is produced by an independent oracle (closed forms,
brute-force scans, scipy reference implementations) or is an analytic
anchor; nothing is read back from the code under test.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from releval.cli import main as cli_main
from releval.fdr import benjamini_hochberg
from releval.metrics import sdcg_at_k
from releval.power import mde, required_n
from releval.sampling import decompose_variance
from releval.simulator import (
    EffectSpec,
    LabelProfile,
    PopulationSpec,
    StratumProfile,
    calibrate_confusion,
    run_synthetic_experiment,
)

from conftest import (
    CliRunner,
    brute_bh_rejections,
    brute_kendall_tau,
    brute_spearman_rho,
    pooled_population_variance,
    sample_stratum_scores,
    sk,
    stratum_score_moments,
)

from releval.alignment import kendall_tau, spearman_rho


def check(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_page_score_anchors_and_properties():
    start = time.perf_counter()
    anchors_ok = (
        abs(sdcg_at_k((5,) * 25, 25) - 1.0) < 1e-6
        and abs(sdcg_at_k((1,) * 25, 25) - 0.2) < 1e-6
        and abs(sdcg_at_k((5, 1), 2) - 0.690518) < 1e-6
    )

    rng = np.random.default_rng(1001)
    mono_checked = swap_checked = 0
    props_ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 26))
        levels = rng.integers(1, 6, size=n)
        base = sdcg_at_k(tuple(levels.tolist()), 25)

        low = np.flatnonzero(levels < 5)
        if len(low):
            i = int(low[rng.integers(len(low))])
            bumped = levels.copy()
            bumped[i] += 1
            if not sdcg_at_k(tuple(bumped.tolist()), 25) > base:
                props_ok = False
            mono_checked += 1

        if n >= 2:
            i, j = sorted(rng.choice(n, size=2, replace=False))
            if levels[i] < levels[j]:
                swapped = levels.copy()
                swapped[i], swapped[j] = swapped[j], swapped[i]
                # moving the better result earlier must strictly help
                if not sdcg_at_k(tuple(swapped.tolist()), 25) > base:
                    props_ok = False
                swap_checked += 1

    elapsed = time.perf_counter() - start
    ok = anchors_ok and props_ok and mono_checked > 5000 and swap_checked > 2000 and elapsed < 1.0
    check(1, ok, f"anchors to 1e-6, {mono_checked} monotonicity and "
                 f"{swap_checked} swap checks on 10^4 pages in {elapsed:.2f}s")


def test_criterion_2_variance_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        n_strata = int(rng.integers(2, 51))
        values = []
        pooled = []
        for s in range(n_strata):
            size = 2 + int(498 * rng.random() ** 3)
            loc = rng.normal(scale=3.0)
            scale = rng.uniform(0.01, 2.0)
            draws = rng.normal(loc, scale, size=size)
            key = sk(f"s{s}")
            values.extend((key, float(v)) for v in draws)
            pooled.append(draws)
        vd = decompose_variance(values)
        total_oracle = pooled_population_variance(np.concatenate(pooled))
        scale_ref = max(abs(total_oracle), 1e-300)
        worst = max(worst,
                    abs(vd.total - (vd.within + vd.between)) / scale_ref,
                    abs(vd.total - total_oracle) / scale_ref)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    check(2, ok, f"total = within + between, worst relative error {worst:.2e} "
                 f"over 1000 populations in {elapsed:.1f}s")


def _two_point_profiles(p, levels_a=(1, 2), levels_b=(4, 5)):
    """Label probabilities of two strata whose page score at depth 1 is a
    two-point distribution."""
    def prof(levels):
        probs = [0.0] * 5
        probs[levels[0] - 1] = 1.0 - p
        probs[levels[1] - 1] = p
        return probs
    return prof(levels_a), prof(levels_b)


def _between_fraction(prof_a, prof_b):
    ma, va = stratum_score_moments(prof_a, 1)
    mb, vb = stratum_score_moments(prof_b, 1)
    between = ((ma - mb) / 2.0) ** 2
    within = (va + vb) / 2.0
    return between / (between + within)


def _solve_for_fraction(target):
    """Bisect the two-point mass so the between-strata share hits ``target``."""
    lo, hi = 1e-9, 0.5
    for _ in range(200):
        mid = (lo + hi) / 2.0
        f = _between_fraction(*_two_point_profiles(mid))
        if f > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_criterion_3_stratification_variance_reduction():
    start = time.perf_counter()
    cases = [
        (0.5, _two_point_profiles(0.5, (2, 3), (3, 4))),
        (0.9, _two_point_profiles(0.5, (1, 2), (4, 5))),
        (0.94, _two_point_profiles(_solve_for_fraction(0.94), (1, 2), (4, 5))),
    ]
    details = []
    ok = True
    n = 200
    reps = 1000
    for f_target, (prof_a, prof_b) in cases:
        assert _between_fraction(prof_a, prof_b) == pytest.approx(f_target, abs=1e-9)
        strat_means = np.empty(reps)
        srs_means = np.empty(reps)
        for rep in range(reps):
            rng = np.random.default_rng([1003, rep])
            pool_a = sample_stratum_scores(prof_a, n, 1, rng)
            pool_b = sample_stratum_scores(prof_b, n, 1, rng)
            # common random numbers: both designs read from the same pools
            strat_means[rep] = (pool_a[:n // 2].mean() + pool_b[:n // 2].mean()) / 2.0
            m = rng.binomial(n, 0.5)
            srs_means[rep] = (pool_a[:m].sum() + pool_b[:n - m].sum()) / n
        reduction = 1.0 - strat_means.var(ddof=1) / srs_means.var(ddof=1)
        details.append(f"f={f_target}: {reduction:.3f}")
        ok = ok and abs(reduction - f_target) <= 0.03

    # published sensitivity table arithmetic at fixed n and at n=5000
    ok = ok and (1.0 - 0.011 / 0.184) >= 0.94
    ok = ok and round(1.0 - 0.001 / 0.184, 3) >= 0.995

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    check(3, ok, f"variance reduction over {reps} replications ({', '.join(details)}) "
                 f"within 0.03; table arithmetic confirmed; {elapsed:.1f}s")


def test_criterion_4_mde_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    z = norm.ppf(0.975) + norm.ppf(0.8)
    worst = 0.0
    for _ in range(10_000):
        mu = float(rng.uniform(0.2, 1.0))
        sigma = float(rng.uniform(1e-4, 0.5))
        n = int(rng.integers(1, 1_000_000))
        oracle = z * math.sqrt(2.0 * sigma * sigma / n) / mu
        worst = max(worst, abs(mde(mu, sigma, n) - oracle) / oracle)
    halving_ok = all(
        mde(mu, sigma, 4 * n) == mde(mu, sigma, n) / 2.0
        for mu, sigma, n in [(0.8, 0.184, 2000), (0.3, 0.05, 17), (0.99, 0.4, 123)])
    roundtrip_ok = True
    for _ in range(200):
        mu = float(rng.uniform(0.2, 1.0))
        sigma = float(rng.uniform(0.01, 0.5))
        n = int(rng.integers(2, 100_000))
        roundtrip_ok = roundtrip_ok and abs(required_n(mu, sigma, mde(mu, sigma, n)) - n) <= 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and halving_ok and roundtrip_ok and elapsed < 5.0
    check(4, ok, f"closed-form agreement to {worst:.2e} over 10^4 draws, exact "
                 f"halving, required-n round-trip within 1; {elapsed:.1f}s")


def test_criterion_5_calibrated_agreement_targets():
    start = time.perf_counter()
    cm = calibrate_confusion(0.737, 0.917).as_array()
    cdf = np.cumsum(cm, axis=1)
    cdf[:, -1] = 1.0
    rng = np.random.default_rng(1005)
    n = 100_000
    truth = rng.integers(1, 6, size=n)
    u = rng.random(n)
    machine = (u[:, None] > cdf[truth - 1]).sum(axis=1) + 1
    exact = float((machine == truth).mean())
    within = float((np.abs(machine - truth) <= 1).mean())
    elapsed = time.perf_counter() - start
    ok = abs(exact - 0.737) <= 0.005 and abs(within - 0.917) <= 0.005 and elapsed < 10.0
    check(5, ok, f"empirical exact {exact:.4f} (target 0.737 +/- 0.005), "
                 f"within-one {within:.4f} (target 0.917 +/- 0.005) at 10^5 draws; "
                 f"{elapsed:.1f}s")


def test_criterion_6_rank_correlation_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(1006)
    worst_tau = worst_rho = 0.0
    for trial in range(500):
        n = int(rng.integers(2000, 10_001)) if trial < 12 else int(rng.integers(2, 301))
        x = np.round(rng.normal(size=n), 1)
        y = np.round(0.4 * x + rng.normal(size=n), 1)
        if len(np.unique(x)) < 2 or len(np.unique(y)) < 2:
            continue
        worst_tau = max(worst_tau, abs(kendall_tau(x, y) - brute_kendall_tau(x, y)))
        worst_rho = max(worst_rho, abs(spearman_rho(x, y) - brute_spearman_rho(x, y)))
    elapsed = time.perf_counter() - start
    ok = worst_tau < 1e-12 and worst_rho < 1e-12 and elapsed < 30.0
    check(6, ok, f"fast-path vs brute force: tau worst {worst_tau:.2e}, rho worst "
                 f"{worst_rho:.2e} over 500 tied vectors up to n=10^4; {elapsed:.1f}s")


def test_criterion_7_bh_dual_definition():
    start = time.perf_counter()
    worked = benjamini_hochberg([0.005, 0.01, 0.03, 0.04], q=0.05)
    ok = worked.rejected == (True, True, True, True)
    rng = np.random.default_rng(1007)
    for _ in range(10_000):
        m = int(rng.integers(1, 101))
        decimals = int(rng.integers(1, 6))
        p = list(np.round(rng.uniform(size=m), decimals))
        q = float(rng.uniform(0.01, 0.3))
        result = benjamini_hochberg(p, q)
        ok = ok and list(result.rejected) == brute_bh_rejections(p, q)
        ok = ok and list(result.rejected) == [adj <= q for adj in result.adjusted_p]
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    check(7, ok, "step-up set equals {adjusted_p <= q} on 10^4 random p-vectors; "
                 f"worked example rejects all four; {elapsed:.1f}s")


def test_criterion_8_paired_error_tightening():
    start = time.perf_counter()
    prof = LabelProfile(kind="curve", mean_top=4.2, decay=0.1)
    spec = PopulationSpec(
        strata=(StratumProfile(sk("a"), 0.5, prof), StratumProfile(sk("b"), 0.5, prof)),
        queries_per_stratum=150, k_depth=8)
    cm = calibrate_confusion(0.737, 0.917)
    tightened = 0
    for seed in range(100):
        ds = run_synthetic_experiment(spec, EffectSpec.null(), cm, seed=seed, rho_shared=0.7)
        single, paired = [], []
        for rec in ds.records:
            m_c = sdcg_at_k(rec.control, 8)
            r_c = sdcg_at_k(rec.control_reference, 8)
            m_t = sdcg_at_k(rec.treatment, 8)
            r_t = sdcg_at_k(rec.treatment_reference, 8)
            single.append(m_c - r_c)
            paired.append((m_t - m_c) - (r_t - r_c))
        if float(np.std(paired)) < float(np.std(single)):
            tightened += 1
    elapsed = time.perf_counter() - start
    ok = tightened == 100 and elapsed < 60.0
    check(8, ok, f"paired-difference error SD below single-group SD in "
                 f"{tightened}/100 seeds with shared-draw probability 0.7; {elapsed:.1f}s")


def test_criterion_9_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    runner = CliRunner()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "k_depth": 4,
        "queries_per_stratum": 40,
        "strata": [
            {"interest": "a", "popularity": "head", "weight": 0.5,
             "profile": {"kind": "curve", "mean_top": 4.2, "decay": 0.3}},
            {"interest": "b", "popularity": "tail", "weight": 0.5,
             "profile": {"kind": "categorical", "probs": [0.1, 0.2, 0.4, 0.2, 0.1]}},
        ]}))
    confusion = tmp_path / "cm.json"
    confusion.write_text(json.dumps({"calibrate": {"exact": 0.737, "within_one": 0.917}}))
    effect = tmp_path / "effect.json"
    effect.write_text(json.dumps({"default": 0.5}))

    def pipeline(tag):
        data = tmp_path / f"data-{tag}.jsonl"
        eval_out = tmp_path / f"eval-{tag}.json"
        align_out = tmp_path / f"align-{tag}.json"
        for args in (
            ["simulate", "--spec", str(spec), "--confusion", str(confusion),
             "--effect", str(effect), "--seed", "11", "--rho-shared", "0.5",
             "--out", str(data)],
            ["evaluate", str(data), "--k", "4", "--out", str(eval_out)],
            ["align", str(data), "--k", "4", "--out", str(align_out)],
        ):
            result = runner.invoke(cli_main, args)
            assert result.exit_code == 0, result.output
        return data.read_bytes(), eval_out.read_bytes(), align_out.read_bytes()

    first = pipeline("run1")
    second = pipeline("run2")
    third = pipeline("run3")
    elapsed = time.perf_counter() - start
    ok = first == second == third and elapsed < 60.0
    check(9, ok, "simulate -> evaluate -> align byte-identical across three repeat runs; "
                 f"{elapsed:.1f}s")
