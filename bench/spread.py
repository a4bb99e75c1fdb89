"""Summarize benchmark records: per workload and metric, the median and quartile spread.

    python3 bench/spread.py                      # every record under .bench_work/results
    python3 bench/spread.py --trace 0 --seeds 1-10 --json bench/BASELINE.json

The spread is (Q3 - Q1) / median over the records' values, with quartiles as
``statistics.quantiles(values, n=4)`` gives them. With ``--json`` the table
is also written as a baseline file, together with each record's environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".bench_work" / "results"


def _seeds(text: str | None):
    if text is None:
        return None
    lo, _, hi = text.partition("-")
    return set(range(int(lo), int(hi or lo) + 1))


def summarize(records: list[dict]) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    units = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            values[rec["workload"]][name].append(m["value"])
            units[name] = m["unit"]
    table = {}
    for workload, metrics in sorted(values.items()):
        table[workload] = {}
        for name, vals in sorted(metrics.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            table[workload][name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                                     "spread": (q3 - q1) / med if med else 0.0,
                                     "unit": units[name]}
    return table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--seeds", default=None, help="seed range, as 1-10")
    parser.add_argument("--json", type=Path, default=None, help="also write the table here")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    records = []
    for path in sorted(RESULTS.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        if args.trace is not None and rec["trace"] != args.trace:
            continue
        if seeds is not None and rec["seed"] not in seeds:
            continue
        records.append(rec)
    table = summarize(records)
    for workload, metrics in table.items():
        for name, s in metrics.items():
            print(f"{workload:<16} {name:<48} median {s['median']:14.6f} {s['unit']:<12} "
                  f"spread {s['spread']:.4f} (n={s['n']})")
    if args.json is not None:
        baseline = {"records": len(records), "seeds": sorted({r["seed"] for r in records}),
                    "environment": sorted({json.dumps(r["environment"], sort_keys=True)
                                           for r in records}),
                    "failed": sum(r["failed"] for r in records),
                    "attempted": sum(r["attempted"] for r in records),
                    "metrics": table}
        args.json.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")


if __name__ == "__main__":
    main()
