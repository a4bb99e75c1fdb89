"""Benchmark of the releval CLI on seeded workloads.

    python3 bench/run.py --workload paired-eval --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; it uses the checkout that holds this file. Each command
runs as its own ``python -m releval.cli`` process, one at a time, started and
timed by ``launch.py``. Inputs are generated into ``.bench_work/`` from
``--seed`` (see ``workloads.py``) and every output of the checkout's code is
checked against ``oracle.py``.

Every command is run twice in a row: once with ``PYTHONPATH`` set to the
checkout's ``src`` and once with it set to ``reference/``, a frozen copy of
the library at the commit that defined this benchmark, in alternating order.
The 2-core machine this was built on changes speed by up to 1.7x from one
minute to the next, far more than the changes the benchmark must detect, and
both copies of a pair see the same speed. So times are reported relative to
the reference: ``speedup`` is the reference's wall time for one pass of the
workload's commands over the checkout's (each command's mean over the run),
and ``setup_s`` is the median ``--version`` ratio times REFERENCE_SETUP_S. Raw times are printed and kept in the record. A run
cycles through the workload's commands, a pair at a time, and stops at the
pair boundary nearest to ``--seconds`` once every command has run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
checkout's commands in-process, once untraced and once with
``tracing.Tracer`` installed, and prints the per-layer metrics. Either way
the last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A command run fails on a wrong exit code, a
failed output check, or output bytes that differ from its first run. A full
record (environment, input sizes and hashes, every timing, output hashes) is
written to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".bench_work"
RESULTS = WORK / "results"

WORKLOADS = ("paired-eval", "segments-short", "simulate")
SETUP_PAIRS = 3
IMPORT_REPEATS = 3
# fixed scale that turns the checkout/reference ``--version`` ratio into
# seconds: about the reference copy's ``--version`` wall time on the machine
# the benchmark was built on (2 vCPU, Python 3.11.7, numpy 2.4.6, scipy
# 1.17.1), where it ranged from 0.5 to 1.5 s with the machine's speed
REFERENCE_SETUP_S = 0.65
COMMAND_TIMEOUT_S = 150
BYTES_PREFIX_QUERIES = 2000
VERSION_CODE = "import time; t = time.perf_counter(); import releval.cli; print(time.perf_counter() - t)"


@dataclass
class Command:
    name: str
    args: list[str]
    outputs: list[str]  # files written in the run directory; stdout is hashed when empty
    check: Callable[[int, str, dict[str, str]], list[str]]  # (exit code, stdout, outputs)
    exit_code: int = 0  # expected of the reference copy too


def _exit0(check: Callable[[str, dict[str, str]], list[str]]):
    def run(code: int, stdout: str, files: dict[str, str]) -> list[str]:
        if code != 0:
            return [f"exit code {code}, expected 0"]
        return check(stdout, files)
    return run


def plan(w: workloads.Workload) -> list[Command]:
    """The commands a workload runs, in order, with their output checks."""
    exp = oracle.Expected(w.queries, w.weights, w.planted)
    f = {key: path.name for key, path in w.files.items()}
    if w.name == "paired-eval":
        return [
            Command("metric", ["metric", f["dataset"], "--out", "metric.csv"], ["metric.csv"],
                    _exit0(lambda out, files: oracle.check_metric(
                        exp, workloads.K_DEPTH, files["metric.csv"]))),
            Command("evaluate", ["evaluate", f["dataset"], "--estimator", "stratified",
                                 "--design", f["design"], "--out", "evaluate.json"],
                    ["evaluate.json"],
                    _exit0(lambda out, files: oracle.check_evaluate(
                        exp, json.loads(files["evaluate.json"]), "popularity"))),
            Command("align", ["align", f["dataset"], "--by", "market",
                              "--errors-csv", "errors.csv", "--out", "align.json"],
                    ["align.json", "errors.csv"],
                    _exit0(lambda out, files: oracle.check_align(
                        exp, json.loads(files["align.json"]), files["errors.csv"]))),
        ]
    if w.name == "segments-short":
        return [
            Command("metric", ["metric", f["dataset"], "--k", str(workloads.SHORT_K),
                               "--out", "metric.csv"], ["metric.csv"],
                    _exit0(lambda out, files: oracle.check_metric(
                        exp, workloads.SHORT_K, files["metric.csv"]))),
            Command("evaluate", ["evaluate", f["dataset"], "--by", "stratum",
                                 "--out", "evaluate.json"], ["evaluate.json"],
                    _exit0(lambda out, files: oracle.check_evaluate(
                        exp, json.loads(files["evaluate.json"]), "stratum"))),
            Command("reject", ["evaluate", f["invalid"], "--error-json"], [],
                    lambda code, out, files: oracle.check_reject(exp, code, out), exit_code=1),
        ]
    spec = json.loads(w.files["spec"].read_text(encoding="utf-8"))
    return [
        Command("simulate", ["simulate", "--spec", f["spec"], "--confusion", f["confusion"],
                             "--effect", f["effect"], "--seed", str(w.seed),
                             "--rho-shared", str(workloads.SIM_RHO_SHARED),
                             "--out", "simulated.jsonl"], ["simulated.jsonl"],
                _exit0(lambda out, files: oracle.check_simulate(spec, files["simulated.jsonl"]))),
    ]


# -- running commands ---------------------------------------------------------

class Launcher:
    """Client of ``launch.py``, the small process that starts and times each command."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path, pythonpath: Path = SRC) -> tuple[float, int, str, int]:
        """Run one command; returns (wall seconds, exit code, stdout, peak RSS in KiB)."""
        env = dict(os.environ, PYTHONPATH=str(pythonpath))
        req = {"argv": [sys.executable, *argv], "cwd": str(cwd), "env": env,
               "timeout_s": COMMAND_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        stdout = (cwd / "stdout.txt").read_text(encoding="utf-8")
        return reply["wall_s"], reply["code"], stdout, reply["maxrss_kib"]

    def pair(self, argv: list[str], cwd: Path, reference_first: bool):
        """Run ``argv`` on the checkout in ``cwd`` and on the reference copy in
        ``cwd / "reference"``, back to back.

        Returns the checkout's (wall, exit code, stdout, peak RSS) and the
        reference's (wall, exit code).
        """
        if reference_first:
            ref = self.run(argv, cwd / "reference", REFERENCE)
            cur = self.run(argv, cwd)
        else:
            cur = self.run(argv, cwd)
            ref = self.run(argv, cwd / "reference", REFERENCE)
        return cur, ref[:2]

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=COMMAND_TIMEOUT_S)
        self._proc.stdout.close()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Outcomes:
    """Failure accounting, and output hashes compared with each command's first run."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.hashes: dict[str, dict[str, str]] = {}

    def record(self, cmd: Command, code: int, stdout: str, cwd: Path, label: str) -> None:
        self.attempted += 1
        problems = []
        files, digests = {}, {}
        for name in cmd.outputs:
            path = cwd / name
            if not path.is_file():
                problems.append(f"no output file {name}")
                continue
            data = path.read_bytes()
            files[name] = data.decode("utf-8")
            digests[name] = _sha256(data)
        if not cmd.outputs:
            digests["stdout"] = _sha256(stdout.encode("utf-8"))
        if not problems:
            try:
                problems = cmd.check(code, stdout, files)
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as err:
                problems = [f"unreadable output: {type(err).__name__}: {err}"]
        first = self.hashes.setdefault(cmd.name, digests)
        if first != digests:
            problems.append("output bytes differ from the first run")
        if problems:
            self.failed += 1
            self.problems.extend(f"{label} {cmd.name}: {p}" for p in problems)


def _clear_outputs(cmd: Command, cwd: Path) -> None:
    for name in cmd.outputs:
        (cwd / name).unlink(missing_ok=True)


def measure(w: workloads.Workload, cmds: list[Command], seconds: float, cwd: Path,
            launcher: Launcher) -> dict:
    """Untraced checkout/reference pairs: set-up time, then the commands in turn."""
    outcomes = Outcomes()
    (cwd / "reference").mkdir()
    for path in w.files.values():
        shutil.copyfile(path, cwd / "reference" / path.name)
    version = ["-m", "releval.cli", "--version"]
    setup, ref_setup = [], []
    for i in range(SETUP_PAIRS):
        (wall, code, stdout, _), (ref_wall, ref_code) = launcher.pair(version, cwd, bool(i % 2))
        outcomes.attempted += 1
        if code != 0 or ref_code != 0 or not stdout.startswith("releval, version"):
            outcomes.failed += 1
            outcomes.problems.append(f"--version: exit code {code}, reference {ref_code}")
        setup.append(wall)
        ref_setup.append(ref_wall)
    setup_ratio = statistics.median(a / b for a, b in zip(setup, ref_setup))

    walls: dict[str, list[float]] = defaultdict(list)
    ref_walls: dict[str, list[float]] = defaultdict(list)
    peak_kib = 0
    start = time.perf_counter()
    for n, cmd in enumerate(itertools.cycle(cmds)):
        pair_start = time.perf_counter()
        _clear_outputs(cmd, cwd)
        argv = ["-m", "releval.cli", *cmd.args]
        (wall, code, stdout, rss), (ref_wall, ref_code) = launcher.pair(argv, cwd, bool(n % 2))
        walls[cmd.name].append(wall)
        ref_walls[cmd.name].append(ref_wall)
        peak_kib = max(peak_kib, rss)
        label = f"run {len(walls[cmd.name])}"
        outcomes.record(cmd, code, stdout, cwd, label)
        if ref_code != cmd.exit_code:
            outcomes.failed += 1
            outcomes.problems.append(f"{label} {cmd.name}: reference exit code {ref_code}")
        now = time.perf_counter()
        # every command at least once, then stop at the pair boundary nearest
        # to the requested length
        if n + 1 >= len(cmds) and now - start + (now - pair_start) / 2 >= seconds:
            break

    # one pass of the workload, from each command's mean, so that the
    # commands' weights do not depend on where the run stopped
    pass_s = sum(statistics.fmean(v) for v in walls.values())
    ref_pass_s = sum(statistics.fmean(v) for v in ref_walls.values())
    metrics = {
        "speedup": (ref_pass_s / pass_s, "x"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
        "setup_s": (REFERENCE_SETUP_S * setup_ratio, "s"),
    }
    for name, values in walls.items():
        print(f"{name + '_s':<20} {statistics.median(values):10.4f} s  (median of {len(values)}, "
              f"min {min(values):.4f}, max {max(values):.4f}; reference median "
              f"{statistics.median(ref_walls[name]):.4f} s)")
    print(f"{'queries_per_s':<20} {query_count(w) * len(cmds) / pass_s:10.1f} query/s "
          f"(reference {query_count(w) * len(cmds) / ref_pass_s:.1f})")
    print(f"{'setup_s raw':<20} {statistics.median(setup):10.4f} s "
          f"(reference {statistics.median(ref_setup):.4f})")
    print(f"{'failed_frac':<20} {outcomes.failed / outcomes.attempted:10.4f}    "
          f"({outcomes.failed} of {outcomes.attempted} command runs)")
    return {"metrics": metrics, "outcomes": outcomes,
            "walls": dict(walls), "reference_walls": dict(ref_walls),
            "setup_walls": setup, "reference_setup_walls": ref_setup}


def query_count(w: workloads.Workload) -> int:
    """Queries each command processes: the generated ones, or the simulated ones."""
    if w.name == "simulate":
        return workloads.SIM_STRATA * workloads.SIM_QUERIES_PER_STRATUM
    return len(w.queries)


def trace(w: workloads.Workload, cmds: list[Command], cwd: Path, spans_path: Path,
          launcher: Launcher) -> dict:
    """In-process runs, untraced then traced, and the per-layer metrics of the traced one."""
    outcomes = Outcomes()
    imports = []
    for _ in range(IMPORT_REPEATS):
        wall, code, stdout, _ = launcher.run(["-c", VERSION_CODE], cwd)
        outcomes.attempted += 1
        if code != 0:
            outcomes.failed += 1
            outcomes.problems.append(f"import releval.cli: exit code {code}")
            continue
        imports.append(float(stdout))

    sys.path.insert(0, str(SRC))
    tracer = tracing.Tracer()
    pass_s = {}
    here = os.getcwd()
    os.chdir(cwd)
    try:
        for label in ("untraced", "traced"):
            start = time.perf_counter()
            for cmd in cmds:
                _clear_outputs(cmd, cwd)
                if label == "traced":
                    with tracer.install():
                        code, stdout = tracing.run_cli(cmd.args)
                else:
                    code, stdout = tracing.run_cli(cmd.args)
                outcomes.record(cmd, code, stdout, cwd, label)
            pass_s[label] = time.perf_counter() - start
    finally:
        os.chdir(here)
    tracer.write_spans(spans_path)

    dataset = w.files.get("dataset", cwd / "simulated.jsonl")
    n = query_count(w)
    metrics = {"cli.import_s": (statistics.median(imports) if imports else 0.0, "s")}
    metrics.update(tracing.layer_metrics(tracer, n))
    metrics["core.dataset_bytes_per_query"] = (
        tracing.dataset_bytes_per_query(dataset, BYTES_PREFIX_QUERIES), "B/query")
    metrics["trace.overhead_s"] = (pass_s["traced"] - pass_s["untraced"], "s")

    print(f"{'module':<12} {'span_s':>10} {'self_s':>10}")
    for module in sorted(tracer.module_span_s):
        span_s, self_s = tracer.module_span_s[module], tracer.module_self_s[module]
        print(f"{module:<12} {span_s:10.4f} {self_s:10.4f}")
        if self_s > span_s + 1e-9:
            outcomes.failed += 1
            outcomes.problems.append(f"module {module}: self time {self_s} > span time {span_s}")
    print(f"untraced pass {pass_s['untraced']:.3f} s, traced pass {pass_s['traced']:.3f} s")
    return {"metrics": metrics, "outcomes": outcomes, "pass_s": pass_s,
            "modules": {m: {"span_s": tracer.module_span_s[m], "self_s": tracer.module_self_s[m]}
                        for m in tracer.module_span_s}}


# -- records ------------------------------------------------------------------

def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly (the checkout may not be a repository)."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def _inputs(w: workloads.Workload) -> dict:
    return {path.name: {"bytes": path.stat().st_size, "sha256": _sha256(path.read_bytes())}
            for path in w.files.values()}


def run_workload(name: str, seed: int, seconds: float, traced: bool, launcher: Launcher) -> dict:
    cwd = WORK / f"{name}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(traced)}"
    try:
        w = workloads.GENERATORS[name](seed, cwd)
        cmds = plan(w)
        inputs = _inputs(w)
        print(f"# workload {name}, seed {seed}, {query_count(w)} queries, "
              f"commands {[c.name for c in cmds]}")
        for fname, info in inputs.items():
            print(f"# input {fname}: {info['bytes']} bytes, sha256 {info['sha256']}")
        if traced:
            out = trace(w, cmds, cwd, stem.with_suffix(".spans.jsonl"), launcher)
        else:
            out = measure(w, cmds, seconds, cwd, launcher)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)

    outcomes = out.pop("outcomes")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out.pop("metrics").items()}
    for problem in outcomes.problems[:20]:
        print(f"FAILED {problem}")
    for cmd, digests in outcomes.hashes.items():
        for fname, digest in digests.items():
            print(f"# sha256 {cmd} {fname} {digest}")
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "environment": environment(), "inputs": inputs, "metrics": metrics,
              "attempted": outcomes.attempted, "failed": outcomes.failed,
              "problems": outcomes.problems, "output_sha256": outcomes.hashes, **out}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True),
                                         encoding="utf-8")
    for key, m in metrics.items():
        print(f"{key:<48} {m['value']:14.6f} {m['unit']}")
    return {"correct": outcomes.failed == 0, "attempted": outcomes.attempted,
            "failed": outcomes.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "releval" / "cli.py").is_file():
        print(f"bench: no releval source at {SRC / 'releval'}", file=sys.stderr)
        return 2
    print(f"# environment {json.dumps(environment(), sort_keys=True)}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    launcher = Launcher()
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), launcher)
                   for name in names}
    finally:
        launcher.close()
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{key}": m for name, r in results.items()
                             for key, m in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
