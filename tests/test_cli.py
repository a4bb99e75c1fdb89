import csv
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import releval
from releval import metrics
from releval.alignment import label_agreement
from releval.cli import _dataset_agreement, main
from releval.core import EvalDataset
from releval.dataset_io import canonical_json, read_dataset

import test_golden
from conftest import dual_raw, page, raw_record, record


@pytest.fixture
def runner():
    return CliRunner()


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in records:
            fh.write(json.dumps(obj) + "\n")
    return str(path)


def paired_records(n=6, c=(3, 4), t=(4, 4)):
    return [raw_record(f"q{i}", list(c), list(t)) for i in range(n)]


def sim_spec(k_depth=4, decay=0.3, weights=(0.5, 0.5)):
    return {
        "k_depth": k_depth,
        "queries_per_stratum": 20,
        "strata": [
            {"interest": "a", "popularity": "head", "weight": weights[0],
             "profile": {"kind": "curve", "mean_top": 4.2, "decay": decay}},
            {"interest": "b", "popularity": "tail", "weight": weights[1],
             "profile": {"kind": "categorical",
                         "probs": [0.1, 0.2, 0.4, 0.2, 0.1]}},
        ]}


def _python_env():
    src = str(Path(releval.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def test_cli_import_leaves_scipy_unloaded():
    # scipy.special is only needed by the t test, so it is imported on first use
    code = "import sys, releval.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", code], env=_python_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


# runs evaluate in a fresh interpreter, then reports what it loaded of scipy
# and whether the t ufuncs it used are those of a later `import scipy.special`
_EVALUATE_AND_REPORT_SCIPY = """
import json, sys
from releval._lazy import t_ufuncs
from releval.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    assert exc.code == 0, exc.code
report = {"loaded": sorted(m for m in sys.modules if m.startswith(("scipy", "numpy.")))}
report["resolved"] = t_ufuncs.cache_info().currsize == 1
used = t_ufuncs()
import scipy.special, scipy.stats
report["same"] = [used[0] is scipy.special.stdtr, used[1] is scipy.special.stdtrit]
report["stats_t"] = float(scipy.stats.t.cdf(-1.5, 5)) == float(used[0](5, -1.5))
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def evaluate_scipy_report(tmp_path_factory):
    # one non-constant delta, so the t test runs
    data = write_jsonl(tmp_path_factory.mktemp("evaluate") / "data.jsonl",
                       [*paired_records(), raw_record("q9", [3, 4], [4, 5])])
    result = subprocess.run([sys.executable, "-c", _EVALUATE_AND_REPORT_SCIPY, "evaluate", data],
                            env=_python_env(), capture_output=True, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def test_evaluate_loads_only_the_compiled_t_ufuncs(evaluate_scipy_report):
    loaded = evaluate_scipy_report["loaded"]
    assert "scipy.special._ufuncs" in loaded
    for heavy in ("scipy.special", "scipy.special._support_alternative_backends",
                  "scipy._lib._array_api", "numpy.f2py"):
        assert heavy not in loaded


def test_t_ufuncs_are_those_of_scipy_special(evaluate_scipy_report):
    # a real `import scipy.special` after evaluate reuses the loaded extension
    assert evaluate_scipy_report["resolved"]
    assert evaluate_scipy_report["same"] == [True, True]
    assert evaluate_scipy_report["stats_t"]


_FALLBACK = """
import sys
from releval import _lazy
from releval.estimation import srs_estimate

def unloadable():
    raise ImportError("scipy.special._ufuncs moved")

deltas = [0.1, -0.2, 0.35, 0.05, 0.2, -0.05]
fast = srs_estimate(deltas)
_lazy._ufuncs_without_package_init = unloadable
_lazy.t_ufuncs.cache_clear()
print(srs_estimate(deltas) == fast, "scipy.special" in sys.modules)
"""


def test_t_ufuncs_fall_back_to_scipy_special():
    result = subprocess.run([sys.executable, "-c", _FALLBACK], env=_python_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["True", "True"]


# runs one command in a fresh interpreter, then prints its exit code and
# whether numpy's code ran
_RUN_AND_REPORT_NUMPY = """
import sys
from releval.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    print("exit", exc.code, "numpy._core" in sys.modules)
"""


@pytest.mark.parametrize("command, code, loaded", [
    ("version", 0, False),
    ("metric-list-form", 0, False),
    ("metric-dual-label", 0, False),
    ("evaluate-rejected", 1, False),
    ("design", 0, False),
    ("simulate", 0, True),
])
def test_numpy_loads_only_for_commands_that_use_it(tmp_path, command, code, loaded):
    result = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT_NUMPY,
                             *_command_args(tmp_path, command)],
                            env=_python_env(), capture_output=True, text=True, check=True)
    *output, marker = result.stdout.splitlines()
    assert result.stderr == ""
    assert marker == f"exit {code} {loaded}"
    if command == "evaluate-rejected":
        assert json.loads(output[0])["violations"][0]["error"] == "BadLabelValue"


# runs one command in a fresh interpreter, then prints its exit code and
# whether it loaded numpy's code and numpy.ma
_RUN_AND_REPORT_NUMPY_MA = """
import sys
from releval.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    print("exit", exc.code, "numpy._core" in sys.modules, "numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("command, loaded", [
    ("metric-dual-label", False),
    ("evaluate-dual-label", True),
    ("evaluate-stratified", True),
    ("align", True),
])
def test_no_command_loads_numpy_ma(tmp_path, command, loaded):
    # np.percentile's plain np.unique imports numpy.ma; the error percentiles
    # are taken without it, and metric scores page by page without numpy
    result = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT_NUMPY_MA,
                             *_command_args(tmp_path, command)],
                            env=_python_env(), capture_output=True, text=True, check=True)
    assert result.stderr == ""
    assert result.stdout.splitlines()[-1] == f"exit 0 {loaded} False"


# runs one command in a fresh interpreter, then prints its exit code, whether
# it loaded numpy and the t ufuncs, and the process's thread count
_RUN_AND_REPORT_THREADS = """
import os, sys
from releval.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    with open("/proc/self/status") as status:
        threads = next(line.split()[1] for line in status if line.startswith("Threads:"))
    print("exit", exc.code, "numpy._core" in sys.modules, "scipy.special._ufuncs" in sys.modules,
          "threads", threads, "OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def _env_without_blas_setting():
    env = _python_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("command, ufuncs", [("evaluate-stratified", True), ("simulate", False)])
def test_commands_run_on_one_thread(tmp_path, command, ufuncs):
    # numpy's and scipy's OpenBLAS would each start a worker pool, so that
    # evaluate ended on 3 threads and simulate on 2; on a 1-CPU machine
    # OpenBLAS starts none, so there this test passes whatever the CLI sets
    result = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT_THREADS,
                             *_command_args(tmp_path, command)],
                            env=_env_without_blas_setting(), capture_output=True, text=True,
                            check=True)
    assert result.stderr == ""
    assert result.stdout.splitlines()[-1] == (
        f"exit 0 True {ufuncs} threads 1 OPENBLAS_NUM_THREADS 1")


def test_a_callers_blas_thread_count_is_kept(tmp_path):
    env = dict(_python_env(), OPENBLAS_NUM_THREADS="2")
    result = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT_THREADS,
                             *_command_args(tmp_path, "simulate")],
                            env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split()[-2:] == ["OPENBLAS_NUM_THREADS", "2"]


def test_import_releval_leaves_the_blas_setting_alone():
    # the one-thread rule is the CLI's; a library user keeps their own
    code = ("import os, sys, releval; releval.kendall_tau([1, 2, 3], [1, 3, 2]); "
            "print('numpy._core' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)")
    result = subprocess.run([sys.executable, "-c", code], env=_env_without_blas_setting(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["True", "False"]


_SPEARMAN_WITH_TIES = """
from releval._lazy import np
from releval.alignment import spearman_rho
rng = np.random.default_rng(29)
x = rng.integers(1, 6, 20_000)
print(repr(spearman_rho(x, x + rng.integers(0, 3, 20_000))))
"""


def test_spearman_rho_is_the_same_on_one_blas_thread_or_two():
    # the premise of running on one thread: the midranks, centred on
    # (n + 1) / 2, are quarter-integers, so their dot products are exact sums
    # whatever order OpenBLAS splits them in (ddot splits above 10^4 terms)
    rhos = [float(subprocess.run([sys.executable, "-c", _SPEARMAN_WITH_TIES],
                                 env=dict(_python_env(), OPENBLAS_NUM_THREADS=threads),
                                 capture_output=True, text=True, check=True).stdout)
            for threads in ("1", "2")]
    assert rhos[0] == rhos[1]


def _command_args(tmp_path, command):
    """The arguments of ``command`` on small input files written to ``tmp_path``."""
    listed = write_jsonl(tmp_path / "list.jsonl", paired_records())
    dual = write_jsonl(tmp_path / "dual.jsonl",
                       [dual_raw(f"q{i}", [3, 4], [3, 3], [4, 4], [4, 3]) for i in range(4)])
    # one non-constant delta, so the t test runs
    varied = write_jsonl(tmp_path / "varied.jsonl",
                         [*paired_records(), raw_record("q9", [3, 4], [4, 5])])
    invalid = write_jsonl(tmp_path / "invalid.jsonl",
                          [*paired_records(), raw_record("q9", [3, 7], [4, 4])])
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(sim_spec()))
    design = tmp_path / "design.json"
    design.write_text(json.dumps([
        {"interest": "a", "popularity": "head", "weight": 0.3, "sigma": 0.2},
        {"interest": "b", "popularity": "head", "weight": 0.7, "sigma": 0.1}]))
    # the one stratum of paired_records
    listed_design = tmp_path / "listed_design.json"
    listed_design.write_text(json.dumps([
        {"interest": "art", "popularity": "head", "weight": 1.0}]))
    return {
        "version": ["--version"],
        "metric-list-form": ["metric", listed],
        "metric-dual-label": ["metric", dual],
        "evaluate": ["evaluate", listed],
        "evaluate-dual-label": ["evaluate", dual],
        "evaluate-stratified": ["evaluate", varied, "--estimator", "stratified",
                                "--design", str(listed_design)],
        "evaluate-rejected": ["evaluate", invalid, "--error-json"],
        "align": ["align", dual, "--by", "market"],
        "design": ["design", "--strata", str(design), "--budget", "11"],
        "mde": ["mde", "--mu", "0.5", "--sigma", "0.2", "--n", "1000"],
        "simulate": ["simulate", "--spec", str(spec), "--out", str(tmp_path / "sim.jsonl")],
    }[command]


# runs one command in a fresh interpreter, then prints its exit code and the
# releval modules whose code ran: type() reads no attribute, so it does not
# run a registered module that nothing has read
_RUN_AND_REPORT_MODULES = """
import sys, types
from releval.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    print("exit", exc.code, *sorted(name[len("releval."):] for name, m in sys.modules.items()
                                    if name.startswith("releval.") and type(m) is types.ModuleType))
"""

# the modules behind estimates, designs, alignment and simulation
_ANALYSIS = {"estimation", "fdr", "power", "sampling", "_rng", "alignment", "simulator"}


@pytest.mark.parametrize("command, code, run, not_run", [
    ("version", 0, set(), _ANALYSIS | {"dataset_io", "metrics"}),
    ("metric-list-form", 0, {"dataset_io", "metrics"}, _ANALYSIS),
    ("evaluate-rejected", 1, {"dataset_io"}, _ANALYSIS | {"metrics"}),
    ("evaluate", 0, {"estimation", "fdr", "power", "sampling"}, {"_rng", "alignment", "simulator"}),
    ("evaluate-stratified", 0, {"estimation", "fdr", "power", "sampling"},
     {"_rng", "alignment", "simulator"}),
    ("align", 0, {"alignment", "metrics"}, {"estimation", "sampling", "simulator"}),
    ("design", 0, {"sampling"}, {"_rng", "metrics", "estimation", "alignment", "simulator"}),
    ("mde", 0, {"power"}, (_ANALYSIS - {"power"}) | {"dataset_io", "metrics"}),
    ("simulate", 0, {"simulator", "sampling", "_rng"}, {"estimation", "alignment"}),
], ids=["version", "metric", "evaluate-rejected", "evaluate", "evaluate-stratified", "align",
        "design", "mde", "simulate"])
def test_each_command_runs_only_the_modules_it_uses(tmp_path, command, code, run, not_run):
    result = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT_MODULES,
                             *_command_args(tmp_path, command)],
                            env=_python_env(), capture_output=True, text=True, check=True)
    exit_word, exit_code, *ran = result.stdout.splitlines()[-1].split()
    assert result.stderr == ""
    assert (exit_word, int(exit_code)) == ("exit", code)
    assert {"cli", "core", "errors"} | run <= set(ran)
    assert not_run.isdisjoint(ran)


_IMPORT_AND_REPORT_MODULES = """
import sys, types
import releval
for name, m in sorted(sys.modules.items()):
    if name.startswith("releval."):
        print(name[len("releval."):], type(m) is types.ModuleType)
"""


def test_import_registers_every_submodule_and_runs_none():
    result = subprocess.run([sys.executable, "-c", _IMPORT_AND_REPORT_MODULES],
                            env=_python_env(), capture_output=True, text=True, check=True)
    ran = dict(line.split() for line in result.stdout.splitlines())
    package = Path(releval.__file__).parent
    # cli is left out, so that `python -m releval.cli` finds it unimported
    assert sorted(ran) == sorted(p.stem for p in package.glob("*.py")
                                 if p.stem not in ("__init__", "cli"))
    assert [name for name, value in ran.items() if value == "True"] == ["_lazy"]


def test_public_names_resolve_and_are_listed():
    listed = dir(releval)
    for name in releval.__all__:
        assert getattr(releval, name) is not None
        assert name in listed
    assert releval.sdcg_at_k is sys.modules["releval.metrics"].sdcg_at_k


def test_unknown_public_name_is_attribute_error():
    with pytest.raises(AttributeError, match="'releval' has no attribute 'nope'"):
        releval.nope


def _without_profile_kind():
    spec = sim_spec()
    del spec["strata"][1]["profile"]["kind"]  # a categorical profile
    return spec


def _spec_with(**fields):
    spec = sim_spec()
    for key, value in fields.items():
        if key in ("interest", "weight"):
            spec["strata"][0][key] = value
        elif key in ("kind", "mean_top", "decay"):
            spec["strata"][0]["profile"][key] = value
        elif key == "probs":
            spec["strata"][1]["profile"]["probs"] = value
        else:
            spec[key] = value
    return spec


_DESIGN_ENTRY = {"interest": "a", "popularity": "head", "weight": 1.0, "sigma": 0.2}


@pytest.mark.parametrize("command, text", [
    ("simulate", json.dumps(_spec_with(k_depth=2.7))),
    ("simulate", json.dumps(_spec_with(k_depth=True))),
    ("simulate", json.dumps(_spec_with(k_depth=4.0))),
    ("simulate", json.dumps(_spec_with(queries_per_stratum=2.5))),
    ("simulate", json.dumps(_spec_with(queries_per_stratum="3"))),
    ("simulate", json.dumps(_spec_with(market=7))),
    ("simulate", json.dumps(_spec_with(interest=5))),
    ("simulate", json.dumps(_spec_with(weight="0.5"))),
    ("simulate", json.dumps(_spec_with(mean_top="4"))),
    ("simulate", json.dumps(_spec_with(decay=False))),
    ("simulate", json.dumps(_spec_with(kind="curvy"))),
    ("simulate", json.dumps(_spec_with(probs=[0.1, 0.2, "0.4", 0.2, 0.1]))),
    ("design", json.dumps([dict(_DESIGN_ENTRY, weight="1")])),
    ("design", json.dumps([dict(_DESIGN_ENTRY, weight=True)])),
    ("design", json.dumps([dict(_DESIGN_ENTRY, sigma="0.2")])),
    ("design", json.dumps([dict(_DESIGN_ENTRY, mu=[0.5])])),
    ("design", json.dumps([dict(_DESIGN_ENTRY, interest=5)])),
    ("design", json.dumps([dict(_DESIGN_ENTRY, weight=int("1" + "0" * 400))])),
    ("effect", '{"default": "1"}'),
    ("effect", '{"default": true}'),
    ("effect", '{"shifts": [{"interest": "a", "popularity": "head", "shift": "0.5"}]}'),
    ("effect", '{"shifts": [{"interest": 5, "popularity": "head", "shift": 0.5}]}'),
    ("confusion", '{"calibrate": {"exact": "0.7", "within_one": 0.9}}'),
], ids=["k-depth-float", "k-depth-bool", "k-depth-integral-float", "queries-float",
        "queries-string", "market-int", "interest-int", "weight-string", "mean-top-string",
        "decay-bool", "kind-unknown", "probs-string", "design-weight-string", "design-weight-bool",
        "design-sigma-string", "design-mu-list", "design-interest-int", "design-weight-huge",
        "effect-default-string", "effect-default-bool", "effect-shift-string",
        "effect-interest-int", "confusion-exact-string"])
def test_spec_fields_take_only_their_json_types(runner, tmp_path, command, text):
    # numbers are JSON numbers (never bools), integers are JSON integers and
    # names are JSON strings: nothing is coerced into a different value
    path = tmp_path / "input.json"
    path.write_text(text)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(sim_spec()))
    out = ["--out", str(tmp_path / "x.jsonl"), "--error-json"]
    args = {
        "simulate": ["simulate", "--spec", str(path), *out],
        "design": ["design", "--strata", str(path), "--budget", "8", "--error-json"],
        "effect": ["simulate", "--spec", str(spec), "--effect", str(path), *out],
        "confusion": ["simulate", "--spec", str(spec), "--confusion", str(path), *out],
    }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert json.loads(result.stdout)["error"] == "BadSpec"


@pytest.mark.parametrize("command, field", [
    ("simulate", "interest"), ("simulate", "market"), ("design", "interest"),
], ids=["simulate-interest", "simulate-market", "design-interest"])
def test_spec_strings_must_be_utf8_text(runner, tmp_path, command, field):
    # a JSON "\ud800" escape decodes to a str that no output file can hold
    path = tmp_path / "input.json"
    out = tmp_path / "x.jsonl"
    if command == "simulate":
        spec = sim_spec()
        if field == "market":
            spec["market"] = "U\ud800"
        else:
            spec["strata"][0]["interest"] = "a\ud800"
        path.write_text(json.dumps(spec))
        args = ["simulate", "--spec", str(path), "--out", str(out)]
    else:
        path.write_text(json.dumps([{"interest": "a\ud800", "popularity": "head",
                                     "weight": 1.0, "sigma": 1.0}]))
        args = ["design", "--strata", str(path), "--budget", "8", "--out", str(out)]
    result = runner.invoke(main, [*args, "--error-json"])
    assert result.exit_code == 1, result.output
    payload = json.loads(result.stdout)
    assert payload["error"] == "BadSpec"
    assert payload["message"].startswith(f"{field} must be UTF-8 text")
    assert not out.exists()


_DUPLICATE = [{"interest": "a", "popularity": "head", "weight": 0.5, "sigma": 1.0},
              {"interest": "a", "popularity": "head", "weight": 0.5, "sigma": 1.0}]


@pytest.mark.parametrize("command", ["design", "evaluate", "effect", "spec"])
def test_duplicate_strata_are_rejected(runner, tmp_path, command):
    # a repeated stratum would collapse into one key and lose its share
    path = tmp_path / "input.json"
    if command == "effect":
        path.write_text(json.dumps({"shifts": [
            {"interest": "a", "popularity": "head", "shift": 0.5},
            {"interest": "a", "popularity": "head", "shift": -0.5}]}))
    elif command == "spec":
        doc = sim_spec()
        doc["strata"][1].update(interest="a", popularity="head")
        path.write_text(json.dumps(doc))
    else:
        path.write_text(json.dumps(_DUPLICATE))
    data = write_jsonl(tmp_path / "d.jsonl",
                       [raw_record(f"q{i}", [3, 4], [4, 4], interest="a") for i in range(4)])
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(sim_spec()))
    out = ["--out", str(tmp_path / "x.jsonl")]
    args, where = {
        "design": (["design", "--strata", str(path), "--budget", "10"], "design file"),
        "evaluate": (["evaluate", data, "--design", str(path)], "design file"),
        "effect": (["simulate", "--spec", str(spec), "--effect", str(path), *out], "effect file"),
        "spec": (["simulate", "--spec", str(path), *out], "population spec"),
    }[command]
    result = runner.invoke(main, [*args, "--error-json"])
    assert result.exit_code == 1, result.output
    assert json.loads(result.stdout) == {
        "error": "BadSpec", "message": f"duplicate stratum keys in {where}: ['a/head']"}


class TestMetric:
    def test_perfect_pages_score_one(self, runner, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl",
                           [raw_record("q0", [5, 5, 5]), raw_record("q1", [5, 5])])
        result = runner.invoke(main, ["metric", path, "--k", "3"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "# k_depth=3"
        assert lines[1] == "query_id,arm,sdcg,short_page"
        assert lines[2] == "q0,control,1.0000000000,false"
        assert lines[3] == "q1,control,1.0000000000,true"

    def test_default_depth_in_header(self, runner, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [raw_record("q0", [3])])
        result = runner.invoke(main, ["metric", path])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "# k_depth=25"

    def test_both_arms_emitted(self, runner, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [raw_record("q0", [5], [1])])
        result = runner.invoke(main, ["metric", path, "--k", "1"])
        lines = result.output.splitlines()
        assert "q0,control,1.0000000000,false" in lines
        assert "q0,treatment,0.2000000000,false" in lines

    def test_escape_bytes_in_a_query_id_reach_stdout(self, runner, tmp_path):
        # click.echo strips ANSI escapes from a stdout that is not a terminal
        path = write_jsonl(tmp_path / "d.jsonl", [raw_record("q\x1b[31mred", [3, 4])])
        out = tmp_path / "out.csv"
        assert runner.invoke(main, ["metric", path, "--out", str(out)]).exit_code == 0
        assert b"q\x1b[31mred,control," in out.read_bytes()
        assert runner.invoke(main, ["metric", path]).stdout_bytes == out.read_bytes()
        piped = subprocess.run([sys.executable, "-m", "releval.cli", "metric", path],
                               env=_python_env(), capture_output=True)
        assert piped.returncode == 0, piped.stderr
        assert piped.stdout == out.read_bytes()

    def test_malformed_line_reported_with_number(self, runner, tmp_path):
        path = tmp_path / "bad.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(raw_record("q0", [3])) + "\n")
            fh.write("{not json\n")
        result = runner.invoke(main, ["metric", str(path), "--error-json"])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert "line 2" in json.dumps(payload)

    def test_unknown_field_warning_is_one_stderr_line(self, tmp_path):
        # the message alone: no source path, line number or echoed source line
        path = write_jsonl(tmp_path / "d.jsonl",
                           [dict(raw_record(f"q{i}", [3]), extra=i) for i in range(3)])
        result = subprocess.run([sys.executable, "-m", "releval.cli", "metric", path],
                                env=_python_env(), capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stderr == (
            f"warning: {path}: line 1: ignoring unknown fields ['extra'] (on 3 lines)\n")
        assert result.stdout.count("\n") == 5

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_warning_line_ignores_the_interpreters_warning_filters(self, tmp_path, action):
        # -W error would end the command in a traceback, -W ignore would drop the line
        records = [dict(raw_record("q0", [3], [4]), extra=0), raw_record("q1", [3])]
        path = write_jsonl(tmp_path / "d.jsonl", records)
        line = f"warning: {path}: line 1: ignoring unknown fields ['extra'] (on 1 line)\n"
        run = [sys.executable, "-W", action, "-m", "releval.cli"]
        result = subprocess.run([*run, "metric", path], env=_python_env(),
                                capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, line)
        # a rejected evaluate still prints its payload, after the warning line
        result = subprocess.run([*run, "evaluate", path, "--error-json"], env=_python_env(),
                                capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (1, line)
        assert json.loads(result.stdout)["violations"][0]["field"] == "treatment"

    def test_missing_file_is_io_error(self, runner, tmp_path):
        result = runner.invoke(main, ["metric", str(tmp_path / "nope.jsonl")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_query_ids_are_quoted_as_csv_needs(self, runner, tmp_path, to_file):
        ids = ["plain", "a,b\nc", 'say "hi"', "cr\rhere", "trail\n", '"', "sp ace;x"]
        path = write_jsonl(tmp_path / "d.jsonl", [raw_record(q, [3, 4], [4]) for q in ids])
        out = tmp_path / "m.csv"
        result = runner.invoke(main, ["metric", path, "--k", "2",
                                      *(["--out", str(out)] if to_file else [])])
        assert result.exit_code == 0, result.output
        text = out.read_bytes().decode("utf-8") if to_file else result.output
        comment, table = text.split("\n", 1)
        assert comment == "# k_depth=2"
        rows = list(csv.reader(io.StringIO(table, newline="")))
        assert rows[0] == ["query_id", "arm", "sdcg", "short_page"]
        assert all(len(row) == 4 for row in rows)
        assert [row[0] for row in rows[1:]] == [q for q in ids for _ in range(2)]
        # each id is written as csv.writer writes it: quoted only when it must be
        for q in ids:
            field = io.StringIO()
            csv.writer(field).writerow([q])
            assert f"\n{field.getvalue()[:-2]},control," in text

    @pytest.mark.parametrize("line, code, field", [
        ("[1, 2]", "Error", "line 2"),
        ("5", "Error", "line 2"),
        ('"q1"', "Error", "line 2"),
        ('{"query_id": "q1", "stratum": "x", "control": []}', "BadLabelValue", "stratum"),
        ('{"query_id": "q1", "stratum": {"interest": "art", "popularity": "head"}, '
         '"control": null}', "MissingArm", "control"),
        ('{"query_id": "q1", "stratum": {"interest": "art", "popularity": "head"}, '
         '"control": 5}', "MissingArm", "control"),
        ('{"query_id": "q1", "stratum": {"interest": "art", "popularity": "head"}, '
         '"control": {"machine_labels": 5, "reference_labels": [3]}}', "MissingArm", "control"),
        ('{"query_id": "q1", "stratum": {"interest": "art", "popularity": "head"}, '
         '"control": [5]}', "BadRankSequence", "control[0]"),
        ('{"query_id": "q1", "stratum": {"interest": "art", "popularity": "head"}, '
         '"control": [{"rank": 1}]}', "BadRankSequence", "control[0]"),
    ])
    def test_malformed_record_shape_is_typed_error(self, runner, tmp_path, line, code, field):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(raw_record("q0", [3])) + "\n" + line + "\n", encoding="utf-8")
        result = runner.invoke(main, ["metric", str(path), "--error-json"])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["error"] == "DatasetValidationError"
        assert [(v["error"], v["field"]) for v in payload["violations"]] == [(code, field)]


def _agreement_peak_above_result(n_pages: int) -> int:
    machine, reference = page(*[3] * 25), page(*[4] * 25)
    ds = EvalDataset(records=tuple(record(f"q{i}", machine, machine, control_reference=reference,
                                          treatment_reference=reference)
                                   for i in range(n_pages // 2)))
    tracemalloc.start()
    try:
        stats = _dataset_agreement(ds)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.n == 25 * n_pages
    return peak - current


class TestScoreOnce:
    """Each command scores every page it needs exactly once: ``metric`` page by
    page with sdcg_at_k, the others each arm's pages in arm_scores' batch kernel."""

    @pytest.fixture
    def scored(self, monkeypatch):
        # count sdcg_at_k's calls through every module that holds it, and the
        # pages of each slice that reaches the batch kernel
        from releval import metrics

        original, kernel = metrics.sdcg_at_k, metrics._slice_scores
        counts = {"per_page": 0, "batched": 0}

        def counting(page, k_depth):
            counts["per_page"] += 1
            return original(page, k_depth)

        def counting_kernel(labels, lengths, k_depth):
            counts["batched"] += len(lengths)
            return kernel(labels, lengths, k_depth)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "releval":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        monkeypatch.setattr(metrics, "_slice_scores", counting_kernel)
        return counts

    def dual_file(self, tmp_path, n=6):
        records = [dual_raw(f"q{i}", [3, 4, 5], [3, 3, 5], [4, 4, 5], [4, 3, i % 5 + 1],
                            popularity=("head", "tail")[i % 2], market=("US", "FR")[i % 3 == 0])
                   for i in range(n)]
        return write_jsonl(tmp_path / "dual.jsonl", records)

    @pytest.mark.parametrize("args, per_page, batched", [
        (["metric"], 2, 0),
        (["evaluate"], 0, 4),
        (["align", "--by", "market", "--errors-csv", "errors.csv"], 0, 4),
    ], ids=["metric", "evaluate", "align-errors-csv"])
    def test_pages_scored_per_query(self, runner, tmp_path, monkeypatch, scored, args,
                                    per_page, batched):
        monkeypatch.chdir(tmp_path)
        path = self.dual_file(tmp_path)
        result = runner.invoke(main, [args[0], path, *args[1:]])
        assert result.exit_code == 0, result.output
        assert scored == {"per_page": 6 * per_page, "batched": 6 * batched}


def test_each_command_has_its_option_set():
    # adding or removing a setting is a one-line edit here
    assert {name: sorted(p.name for p in cmd.params) for name, cmd in main.commands.items()} == {
        "align": ["by", "dataset_path", "error_json", "errors_csv", "k_depth", "out_path"],
        "design": ["budget", "error_json", "min_per_stratum", "mode", "out_path", "strata_path"],
        "evaluate": ["alpha", "dataset_path", "design_path", "error_json", "estimator",
                     "grouping", "k_depth", "out_path", "q"],
        "mde": ["alpha", "error_json", "mu", "n_queries", "power_level", "sigma", "target"],
        "metric": ["dataset_path", "error_json", "k_depth", "out_path"],
        "simulate": ["confusion_path", "effect_path", "error_json", "out_path", "rho_shared",
                     "seed", "spec_path"],
    }


# every file a command reads; BAD is the file under test
each_input_file = pytest.mark.parametrize("args", [
    ["metric", "BAD"],
    ["evaluate", "BAD"],
    ["align", "BAD"],
    ["evaluate", "DATA", "--design", "BAD"],
    ["design", "--strata", "BAD", "--budget", "10"],
    ["simulate", "--spec", "BAD", "--out", "OUT"],
    ["simulate", "--spec", "SPEC", "--confusion", "BAD", "--out", "OUT"],
    ["simulate", "--spec", "SPEC", "--effect", "BAD", "--out", "OUT"],
], ids=["metric", "evaluate", "align", "evaluate-design", "design-strata", "simulate-spec",
        "simulate-confusion", "simulate-effect"])


def _invoke_on_bad_file(runner, tmp_path, args, content: bytes):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(sim_spec()))
    files = {"BAD": str(bad), "SPEC": str(spec), "OUT": str(tmp_path / "x.jsonl"),
             "DATA": write_jsonl(tmp_path / "d.jsonl", paired_records())}
    return runner.invoke(main, [files.get(a, a) for a in args] + ["--error-json"])


@each_input_file
def test_file_not_utf8_is_io_error(runner, tmp_path, args):
    result = _invoke_on_bad_file(runner, tmp_path, args, json.dumps(
        raw_record("q0", [3], [4])).encode() + b'\n{"x": "\xff"}\n')
    assert result.exit_code == 2, result.output
    payload = json.loads(result.stdout)
    assert payload["error"] == "IOError"
    assert "can't decode byte 0xff" in payload["message"]


@each_input_file
@pytest.mark.parametrize("value, message", [
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    ("1" * 5000, "Exceeds the limit"),
], ids=["deeply-nested", "long-integer"])
def test_json_too_large_to_decode_is_typed_error(runner, tmp_path, args, value, message):
    # json raises a RecursionError and a bare ValueError for these, not a
    # JSONDecodeError: a dataset line is a violation, a spec file an I/O error
    content = '{"query_id": "q0", "control": %s}\n' % value
    result = _invoke_on_bad_file(runner, tmp_path, args, content.encode())
    payload = json.loads(result.stdout)
    if args[1] == "BAD":
        assert result.exit_code == 1, result.output
        assert payload["error"] == "DatasetValidationError"
        [violation] = payload["violations"]
        assert violation["field"] == "line 1"
        assert violation["message"].startswith("line 1: malformed JSON (" + message)
    else:
        assert result.exit_code == 2, result.output
        assert payload["error"] == "IOError"
        assert f"malformed JSON ({message}" in payload["message"]


@pytest.mark.parametrize("command, field, record", [
    ("metric", "query_id", raw_record("q\ud800", [3])),
    ("metric", "market", raw_record("q0", [3], market="D\ud800")),
    ("metric", "stratum.interest", raw_record("q0", [3], interest="art\ud800")),
    ("align", "market", dual_raw("q0", [3], [4], market="D\ud800")),
], ids=["metric-query-id", "metric-market", "metric-interest", "align-market"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_lone_surrogate_is_bad_label_value(runner, tmp_path, command, field, record, to_file):
    # a JSON "\ud800" escape decodes to a str no CSV or report file can hold
    path = write_jsonl(tmp_path / "d.jsonl", [record])
    out = tmp_path / "out.csv"
    args = [command, path, "--error-json"]
    if to_file:
        args += ["--out", str(out)] if command == "metric" else ["--errors-csv", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    payload = json.loads(result.stdout)
    assert payload["error"] == "DatasetValidationError"
    assert [(v["error"], v["field"]) for v in payload["violations"]] == [("BadLabelValue", field)]
    assert not out.exists()


@pytest.mark.parametrize("command, records, field", [
    ("metric", [raw_record("q0", [3], [4]), raw_record("q1", [5], [])], "treatment"),
    ("metric", [raw_record("q0", [3], [4]), raw_record("q1", [], [4]), raw_record("q2", [4], [])],
     "control"),
    ("align", [dual_raw("q0", [3, 4], [3, 4]), dual_raw("q1", [], [])], "control"),
])
def test_empty_page_error_names_its_record(runner, tmp_path, command, records, field):
    path = write_jsonl(tmp_path / "d.jsonl", records)
    result = runner.invoke(main, [command, path, "--error-json"])
    assert result.exit_code == 1
    assert json.loads(result.output) == {
        "error": "EmptyPage", "message": "cannot score an empty page",
        "query_id": "q1", "field": field}


@pytest.mark.parametrize("command", ["metric", "evaluate", "align"])
@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize("exists", [True, False], ids=["file", "missing-file"])
def test_depth_below_one_fails_before_the_dataset_is_read(runner, tmp_path, command, k, exists):
    path = tmp_path / "d.jsonl"
    if exists:
        write_jsonl(path, [dual_raw(f"q{i}", [3, 4], [4, 4], [4, 4], [4, 5]) for i in range(4)])
    result = runner.invoke(main, [command, str(path), "--k", k, "--error-json"])
    assert result.exit_code == 1
    assert json.loads(result.output) == {
        "error": "OutOfDomain", "message": f"k_depth must be >= 1, got {k}"}


@pytest.mark.parametrize("args, message", [
    (["evaluate", "d.jsonl", "--k", "abc"],
     "Invalid value for '--k': 'abc' is not a valid integer."),
    (["evaluate", "d.jsonl", "--by", "market"],
     "Invalid value for '--by': 'market' is not one of 'popularity', 'interest', 'stratum'."),
    (["metric", "d.jsonl", "--bogus"], "No such option '--bogus'. Did you mean '--out'?"),
    (["align"], "Missing argument 'DATASET_PATH'."),
    (["design", "--budget", "3"], "Missing option '--strata'."),
], ids=["bad-type", "bad-choice", "unknown-option", "missing-argument", "missing-option"])
def test_usage_error_is_exit_2_with_a_payload_under_error_json(runner, args, message):
    for flagged in ([*args, "--error-json"], [args[0], "--error-json", *args[1:]]):
        result = runner.invoke(main, flagged)
        assert result.exit_code == 2
        assert json.loads(result.stdout) == {"error": "UsageError", "message": message}
        assert result.stderr == ""
    # without the flag, click's usage text on stderr as before
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"Usage: main {args[0]} [OPTIONS]")
    assert result.stderr.endswith(f"\n\nError: {message}\n")


@pytest.mark.parametrize("args, message", [
    (["bogus"], "No such command 'bogus'."),
    (["--bogus"], "No such option '--bogus'."),
    (["metric", "d.jsonl", "--k", "abc"], "Invalid value for '--k': 'abc' is not a valid integer."),
], ids=["unknown-command", "unknown-group-option", "command-usage"])
def test_group_level_usage_error_is_a_payload_under_error_json(runner, args, message):
    # the flag may stand before the command name, or after an unknown one
    for flagged in ([*args, "--error-json"], ["--error-json", *args]):
        result = runner.invoke(main, flagged)
        assert result.exit_code == 2
        assert json.loads(result.stdout) == {"error": "UsageError", "message": message}
        assert result.stderr == ""
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(f"\n\nError: {message}\n")


def test_error_json_before_the_command_name_applies_to_it(runner, tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [raw_record("q0", [3, 9])])
    after = runner.invoke(main, ["metric", path, "--error-json"])
    before = runner.invoke(main, ["--error-json", "metric", path])
    assert before.exit_code == after.exit_code == 1
    assert before.stdout == after.stdout
    assert json.loads(before.stdout)["error"] == "DatasetValidationError"
    assert before.stderr == ""
    missing = runner.invoke(main, ["--error-json", "metric", str(tmp_path / "none.jsonl")])
    assert missing.exit_code == 2
    assert json.loads(missing.stdout)["error"] == "IOError"


def test_error_json_token_anywhere_in_the_args_turns_the_payload_on(runner, tmp_path,
                                                                    monkeypatch):
    # read from the raw args, so the token turns the payload on as another
    # option's value, or as the dataset path after "--", too
    monkeypatch.chdir(tmp_path)
    for args in (["metric", "none.jsonl", "--out", "--error-json"],
                 ["metric", "--", "--error-json"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert json.loads(result.stdout)["error"] == "IOError"
        assert result.stderr == ""


def _run_module(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "releval.cli", *args], env=_python_env(),
                          capture_output=True, **kwargs)


@pytest.mark.parametrize("name", ["metric", "simulate"])
def test_the_entry_point_writes_the_golden_bytes(tmp_path, name):
    test_golden._write_inputs(tmp_path)
    args, files, expected = test_golden.GOLDEN[name]
    result = _run_module(args, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    digests = {"stdout": hashlib.sha256(result.stdout).hexdigest()}
    for file in files:
        digests[file] = hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
    assert digests == expected


@pytest.mark.parametrize("args, code", [
    (["evaluate", "{path}", "--error-json"], 1),
    (["evaluate", "{path}", "--by", "market", "--error-json"], 2),
], ids=["rejected", "usage"])
def test_the_entry_point_exits_as_main_does(runner, tmp_path, args, code):
    path = write_jsonl(tmp_path / "d.jsonl", [raw_record("q0", [3, 9], [4])])
    args = [arg.format(path=path) for arg in args]
    expected = runner.invoke(main, args)
    result = _run_module(args)
    assert result.returncode == expected.exit_code == code
    assert result.stdout == expected.stdout_bytes
    assert result.stderr == b""


def test_only_the_entry_point_turns_the_collector_off(runner, tmp_path):
    # run() leaves the collector off and the heap frozen; main, under
    # CliRunner or a library caller, leaves the collector as it found it
    path = write_jsonl(tmp_path / "d.jsonl", paired_records())
    frozen = gc.get_freeze_count()
    assert runner.invoke(main, ["evaluate", path]).exit_code == 0
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen
    code = ("import gc, sys\nfrom releval.cli import run\ntry:\n    run()\nfinally:\n"
            "    print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)")
    result = subprocess.run([sys.executable, "-c", code, "metric", path], env=_python_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == runner.invoke(main, ["metric", path]).stdout
    assert result.stderr == "False True\n"


class TestEvaluate:
    def design_file(self, tmp_path, weight=1.0):
        path = tmp_path / "design.json"
        path.write_text(json.dumps(
            [{"interest": "art", "popularity": "head", "weight": weight}]))
        return str(path)

    def test_help_lists_the_groupings(self, runner):
        result = runner.invoke(main, ["evaluate", "--help"])
        assert result.exit_code == 0
        assert "--by [popularity|interest|stratum]" in result.output

    def test_report_structure(self, runner, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", paired_records())
        result = runner.invoke(main, ["evaluate", path, "--k", "2"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["config"]["estimator"] == "srs"
        assert report["topline"]["n"] == 6
        assert report["topline"]["mean"] > 0
        assert report["mde"]["srs"]["mde"] >= 0
        assert "alignment" not in report

    def test_single_stratum_stratified_matches_srs_mean(self, runner, tmp_path):
        data = write_jsonl(tmp_path / "d.jsonl", paired_records(c=(3, 4), t=(4, 5)))
        design = self.design_file(tmp_path)
        srs = json.loads(runner.invoke(
            main, ["evaluate", data, "--k", "2"]).output)
        strat = json.loads(runner.invoke(
            main, ["evaluate", data, "--k", "2", "--design", design,
                   "--estimator", "stratified"]).output)
        assert strat["topline"]["estimator"] == "stratified"
        assert strat["topline"]["mean"] == pytest.approx(srs["topline"]["mean"])
        assert "stratified" in strat["mde"]

    @pytest.mark.parametrize("estimator", ["srs", "stratified"])
    def test_constant_deltas_give_an_exactly_zero_mde(self, runner, tmp_path, estimator):
        # seven equal deltas, whose np.std is 7.49e-18, not 0
        data = write_jsonl(tmp_path / "d.jsonl", paired_records(7, c=(1, 1, 1), t=(1, 1, 2)))
        report = json.loads(runner.invoke(main, [
            "evaluate", data, "--k", "3", "--design", self.design_file(tmp_path),
            "--estimator", estimator]).output)
        assert report["topline"]["degenerate"] and report["topline"]["std_error"] == 0.0
        for block in ("srs", "stratified"):
            assert report["mde"][block]["sigma_hat"] == report["mde"][block]["mde"] == 0.0
        assert report["mde"]["current"] == 0.0

    @pytest.mark.parametrize("estimator", ["srs", "stratified"])
    @pytest.mark.parametrize("design", [
        [{"interest": "art", "popularity": "head", "weight": 1.0}],
        [{"interest": "art", "popularity": "head", "weight": 0.5},
         {"interest": "food", "popularity": "head", "weight": 0.3},
         {"interest": "cars", "popularity": "head", "weight": 0.2}],
    ], ids=["lacks-a-stratum", "adds-a-stratum"])
    def test_design_must_name_the_observed_strata(self, runner, tmp_path, estimator, design):
        # the MDE block weights every observed stratum, so srs checks the design too
        records = [raw_record(f"q{i}", [3, 4], [4, 4 - i % 2], interest=("art", "food")[i % 2])
                   for i in range(8)]
        data = write_jsonl(tmp_path / "d.jsonl", records)
        path = tmp_path / "design.json"
        path.write_text(json.dumps(design))
        result = runner.invoke(main, ["evaluate", data, "--k", "2", "--design", str(path),
                                      "--estimator", estimator, "--error-json"])
        assert result.exit_code == 1, result.output
        assert json.loads(result.stdout)["error"] == "WeightMismatch"

    @pytest.mark.parametrize("estimator", ["srs", "stratified"])
    @pytest.mark.parametrize("alpha", ["0", "1", "1.5", "-0.1", "nan"])
    def test_alpha_outside_unit_interval_is_typed_error(self, runner, tmp_path, estimator, alpha):
        data = write_jsonl(tmp_path / "d.jsonl",
                           [raw_record(f"q{i}", [3, 4], [4, 4 - i % 2]) for i in range(6)])
        result = runner.invoke(main, ["evaluate", data, "--k", "2", "--alpha", alpha,
                                      "--design", self.design_file(tmp_path),
                                      "--estimator", estimator, "--error-json"])
        assert result.exit_code == 1, result.output
        assert json.loads(result.output) == {
            "error": "OutOfDomain", "message": f"alpha must be in (0, 1), got {float(alpha)}"}

    def test_missing_treatment_rejected(self, runner, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [raw_record("q0", [3]),
                                                  raw_record("q1", [4])])
        result = runner.invoke(main, ["evaluate", path])
        assert result.exit_code == 1

    def test_stratified_without_design_rejected(self, runner, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", paired_records())
        result = runner.invoke(main, ["evaluate", path, "--estimator", "stratified",
                                      "--error-json"])
        assert result.exit_code == 1
        assert json.loads(result.output) == {
            "error": "OutOfDomain", "message": "stratified estimator requires --design weights"}

    @pytest.mark.parametrize("options, error, message", [
        (["--alpha", "0"], "OutOfDomain", "alpha must be in (0, 1), got 0.0"),
        (["--alpha", "nan"], "OutOfDomain", "alpha must be in (0, 1), got nan"),
        (["--q", "1"], "BadPValue", "q must be in (0, 1), got 1.0"),
        (["--q", "-0.5"], "BadPValue", "q must be in (0, 1), got -0.5"),
        (["--estimator", "stratified"], "OutOfDomain",
         "stratified estimator requires --design weights"),
        (["--k", "0"], "OutOfDomain", "k_depth must be >= 1, got 0"),
    ], ids=["alpha-zero", "alpha-nan", "q-one", "q-negative", "stratified-without-design",
            "depth-zero"])
    def test_options_fail_before_the_dataset_is_read(self, runner, tmp_path, options, error,
                                                     message):
        # a missing dataset or design file is an I/O error only once the options hold
        for design in ([], ["--design", str(tmp_path / "nope.json")]):
            if design and "stratified" in options:
                continue
            result = runner.invoke(main, ["evaluate", str(tmp_path / "nope.jsonl"), *options,
                                          *design, "--error-json"])
            assert result.exit_code == 1, result.output
            assert json.loads(result.output) == {"error": error, "message": message}

    @pytest.mark.parametrize("design, status, error", [
        (None, 2, "IOError"),
        ("[{", 2, "IOError"),
        ([{"interest": "art", "popularity": "head", "sigma": 1.0}], 1, "BadSpec"),
    ], ids=["missing", "not-json", "no-weight"])
    @pytest.mark.parametrize("dataset", ["invalid", "large"])
    def test_design_fails_before_the_dataset_is_read(self, runner, tmp_path, monkeypatch,
                                                     design, status, error, dataset):
        from releval import dataset_io

        if dataset == "invalid":
            records = [raw_record("q0", [3]), raw_record("q0", [0], [9])]
        else:
            records = paired_records(n=5000, c=[3] * 25, t=[4] * 25)
        data = write_jsonl(tmp_path / "d.jsonl", records)
        path = tmp_path / "design.json"
        if design is not None:
            path.write_text(design if isinstance(design, str) else json.dumps(design))
        opened = []
        monkeypatch.setattr(dataset_io, "read_jsonl", opened.append)
        result = runner.invoke(main, ["evaluate", data, "--design", str(path), "--error-json"])
        assert result.exit_code == status, result.output
        assert json.loads(result.output)["error"] == error
        assert opened == []

    @pytest.mark.parametrize("alpha", [None, "0.01", "0.2"])
    def test_mde_block_uses_the_run_alpha(self, runner, tmp_path, alpha):
        from releval.power import PowerConfig, mde

        records = [raw_record(f"q{i}", [3, 4], [4, 4 - i % 3]) for i in range(9)]
        data = write_jsonl(tmp_path / "d.jsonl", records)
        options = [] if alpha is None else ["--alpha", alpha]
        report = json.loads(runner.invoke(main, ["evaluate", data, "--k", "2", *options]).output)
        block = report["mde"]
        cfg = PowerConfig(alpha=report["config"]["alpha"])
        assert block["srs"]["mde"] == mde(block["mu_hat"], block["srs"]["sigma_hat"],
                                          block["n"], cfg)
        assert block["current"] == block["srs"]["mde"]
        if alpha is not None:
            assert block["srs"]["mde"] != mde(block["mu_hat"], block["srs"]["sigma_hat"],
                                              block["n"], PowerConfig())

    def test_alignment_block_when_references_present(self, runner, tmp_path):
        records = [dual_raw(f"q{i}", [3 + i % 2, 2], [3 + i % 2, 2],
                            [4, 2 + i % 2], [4, 2 + i % 2]) for i in range(5)]
        path = write_jsonl(tmp_path / "d.jsonl", records)
        report = json.loads(runner.invoke(main, ["evaluate", path, "--k", "2"]).output)
        assert "alignment" in report
        assert report["alignment"]["segments"][0]["segment"] == "overall"

    def test_writes_file(self, runner, tmp_path):
        data = write_jsonl(tmp_path / "d.jsonl", paired_records())
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["evaluate", data, "--k", "2", "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["topline"]["n"] == 6


class TestDesign:
    def strata_file(self, tmp_path, sigmas=(1.0, 3.0), weights=(0.5, 0.5)):
        path = tmp_path / "strata.json"
        path.write_text(json.dumps([
            {"interest": "a", "popularity": "head", "weight": weights[0], "sigma": sigmas[0]},
            {"interest": "b", "popularity": "head", "weight": weights[1], "sigma": sigmas[1]},
        ]))
        return str(path)

    def test_optimal_allocation(self, runner, tmp_path):
        result = runner.invoke(main, ["design", "--strata", self.strata_file(tmp_path),
                                      "--budget", "8"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["per_stratum"] == {"a/head": 2, "b/head": 6}
        assert report["fallback_proportional"] is False

    def test_equal_sigmas_match_proportional(self, runner, tmp_path):
        path = self.strata_file(tmp_path, sigmas=(2.0, 2.0))
        neyman = json.loads(runner.invoke(
            main, ["design", "--strata", path, "--budget", "10"]).output)
        prop = json.loads(runner.invoke(
            main, ["design", "--strata", path, "--budget", "10",
                   "--mode", "proportional"]).output)
        assert neyman["per_stratum"] == prop["per_stratum"] == {"a/head": 5, "b/head": 5}

    def test_budget_too_small(self, runner, tmp_path):
        result = runner.invoke(main, ["design", "--strata", self.strata_file(tmp_path),
                                      "--budget", "3"])
        assert result.exit_code == 1

    def test_error_json_payload(self, runner, tmp_path):
        result = runner.invoke(main, ["design", "--strata", self.strata_file(tmp_path),
                                      "--budget", "3", "--error-json"])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["error"]


    @pytest.mark.parametrize("entries, code", [
        ([{"interest": "a", "popularity": "head", "sigma": 1.0}], "BadSpec"),
        ([5], "BadSpec"),
        ([{"interest": "a", "popularity": "head", "weight": 1.0, "sigma": float("nan")}],
         "MissingSigma"),
        ([{"interest": "a", "popularity": "head", "weight": 0.5, "sigma": 1e308},
          {"interest": "b", "popularity": "head", "weight": 0.5, "sigma": 1e308}],
         "OutOfDomain"),
        ([{"interest": "a", "popularity": "head", "weight": 1.0, "sigma": 1.0,
           "mu": float("nan")}], "OutOfDomain"),
        ([], "BadSpec"),
        ([{"interest": "a", "popularity": "head", "weight": 1.0, "sigma": None}], "BadSpec"),
        ([{"interest": "", "popularity": "head", "weight": 1.0, "sigma": 0.1}], "BadSpec"),
    ])
    def test_bad_design_file_is_typed_error(self, runner, tmp_path, entries, code):
        path = tmp_path / "strata.json"
        path.write_text(json.dumps(entries))
        result = runner.invoke(main, ["design", "--strata", str(path), "--budget", "8",
                                      "--error-json"])
        assert result.exit_code == 1
        assert json.loads(result.output)["error"] == code

    def test_negative_min_per_stratum_is_typed_error(self, runner, tmp_path):
        result = runner.invoke(main, ["design", "--strata", self.strata_file(tmp_path),
                                      "--budget", "8", "--min-per-stratum", "-5",
                                      "--error-json"])
        assert result.exit_code == 1
        assert json.loads(result.output)["error"] == "OutOfDomain"


class TestMde:
    @pytest.mark.parametrize("args", [
        ["--mu", "nan", "--sigma", "0.1", "--n", "100"],
        ["--mu", "0.8", "--sigma", "nan", "--n", "100"],
        ["--mu", "0.8", "--sigma", "0.1", "--target", "nan"],
    ])
    def test_non_finite_input_is_typed_error(self, runner, args):
        result = runner.invoke(main, ["mde", *args, "--error-json"])
        assert result.exit_code == 1
        assert json.loads(result.output)["error"] == "OutOfDomain"

    @pytest.mark.parametrize("args", [
        ["--mu", "0.5", "--sigma", "0.2", "--n", "1" + "0" * 400],
        ["--mu", "1e-300", "--sigma", "1e300", "--n", "5"],
        ["--mu", "0.5", "--sigma", "0.2", "--target", "1e-300"],
        ["--mu", "1e-300", "--sigma", "1e300", "--target", "0.01"],
    ], ids=["n-beyond-float", "mde-overflows", "n-overflows", "n-infinite"])
    def test_result_beyond_float_range_is_typed_error(self, runner, args):
        result = runner.invoke(main, ["mde", *args, "--error-json"])
        assert result.exit_code == 1, result.output
        assert json.loads(result.output)["error"] == "OutOfDomain"

    def test_required_n_beyond_exact_integers_terminates(self):
        # above 2**53 n - 1 and n are one float, so stepping n one by one never ends
        result = subprocess.run(
            [sys.executable, "-m", "releval.cli", "mde", "--mu", "0.5", "--sigma", "0.2",
             "--target", "1e-100"],
            env=_python_env(), capture_output=True, text=True, timeout=60)
        assert result.returncode == 0
        assert int(result.stdout) > 2 ** 53

    def test_zero_sigma(self, runner):
        result = runner.invoke(main, ["mde", "--mu", "0.8", "--sigma", "0", "--n", "100"])
        assert result.exit_code == 0
        assert result.output.strip() == "0.0000%"

    def test_table_style_inputs(self, runner):
        result = runner.invoke(main, ["mde", "--mu", "0.8", "--sigma", "0.184",
                                      "--n", "2000"])
        assert result.output.strip() == "2.0377%"

    def test_target_gives_required_n(self, runner):
        result = runner.invoke(main, ["mde", "--mu", "0.8", "--sigma", "0.184",
                                      "--target", "0.0025"])
        assert result.exit_code == 0
        assert abs(int(result.output.strip()) - 132866) <= 1

    @pytest.mark.parametrize("size", [["--n", "10", "--target", "0.01"], []],
                             ids=["both", "neither"])
    def test_exactly_one_of_n_or_target(self, runner, size):
        result = runner.invoke(main, ["mde", "--mu", "0.8", "--sigma", "0.1", *size,
                                      "--error-json"])
        assert result.exit_code == 1
        assert json.loads(result.output) == {
            "error": "OutOfDomain", "message": "provide exactly one of --n or --target"}


class TestAlign:
    def dual_dataset(self, tmp_path, identical=True):
        records = []
        for i in range(6):
            machine = [1 + (i + j) % 5 for j in range(4)]
            reference = machine if identical else [min(5, m + 1) for m in machine]
            records.append(dual_raw(f"q{i}", machine, reference))
        return write_jsonl(tmp_path / "d.jsonl", records)

    def test_identical_sources(self, runner, tmp_path):
        result = runner.invoke(main, ["align", self.dual_dataset(tmp_path), "--k", "4"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["agreement"]["exact_rate"] == 1.0
        overall = report["segments"][0]
        assert overall["segment"] == "overall"
        assert overall["kendall"] == pytest.approx(1.0)
        assert overall["errors"]["mean"] == 0.0

    def test_systematic_offset_detected(self, runner, tmp_path):
        path = self.dual_dataset(tmp_path, identical=False)
        report = json.loads(runner.invoke(main, ["align", path, "--k", "4"]).output)
        assert report["agreement"]["exact_rate"] < 1.0
        assert report["agreement"]["within_one_rate"] == 1.0
        assert report["segments"][0]["errors"]["mean"] < 0.0

    def test_errors_csv_written(self, runner, tmp_path):
        out_csv = tmp_path / "errors.csv"
        result = runner.invoke(main, ["align", self.dual_dataset(tmp_path),
                                      "--k", "4", "--errors-csv", str(out_csv)])
        assert result.exit_code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "query_id,market,segment,machine_sdcg,reference_sdcg,error"
        assert len(lines) == 7

    def test_agreement_is_label_agreement_of_the_parsed_pages(self, runner, tmp_path):
        # a parsed page is bytes, the one page type label_agreement takes
        path = self.dual_dataset(tmp_path, identical=False)
        records = read_dataset(path, k_depth=4).records
        stats = label_agreement(b"".join(rec.control for rec in records),
                                b"".join(rec.control_reference for rec in records))
        report = json.loads(runner.invoke(main, ["align", path, "--k", "4"]).output)
        assert report["agreement"] == json.loads(canonical_json(stats))

    @pytest.mark.parametrize("size", [1, 7, metrics.SCORE_SLICE])
    def test_agreement_is_the_same_for_any_slice_size(self, monkeypatch, size):
        # integer counts add exactly, so the pooled rates keep their bits
        gen = np.random.default_rng(41)
        records = tuple(
            record(f"q{i}", *(gen.integers(1, 6, 1 + i % 9).tolist() for _ in range(2)),
                   control_reference=gen.integers(1, 6, 1 + i % 9).tolist(),
                   treatment_reference=None if i % 3 else gen.integers(1, 6, 1 + i % 9).tolist())
            for i in range(60))
        pairs = [(m, r) for rec in records for m, r in ((rec.control, rec.control_reference),
                                                        (rec.treatment, rec.treatment_reference))
                 if r is not None]
        expected = label_agreement(b"".join(m for m, _ in pairs), b"".join(r for _, r in pairs))
        monkeypatch.setattr(metrics, "SCORE_SLICE", size)
        assert _dataset_agreement(EvalDataset(records=records)) == expected

    def test_agreement_memory_above_the_result_does_not_grow_with_the_pages(self):
        # the pairs are checked and counted one slice at a time: joining every
        # page of each source held 26 MiB above the start at 4x10^5 pages
        small, large = map(_agreement_peak_above_result, (20_000, 80_000))
        assert large < small + 64 * 1024

    def test_missing_references_rejected(self, runner, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [raw_record("q0", [3, 3]),
                                                  raw_record("q1", [4, 3])])
        result = runner.invoke(main, ["align", path])
        assert result.exit_code == 1


class TestSimulate:
    def spec_file(self, tmp_path, weights=(0.5, 0.5)):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(sim_spec(weights=weights)))
        return str(path)

    def test_same_seed_byte_identical(self, runner, tmp_path):
        spec = self.spec_file(tmp_path)
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (out1, out2):
            result = runner.invoke(main, ["simulate", "--spec", spec, "--seed", "7",
                                          "--out", str(out)])
            assert result.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_identity_labeler_matches_reference(self, runner, tmp_path):
        spec = self.spec_file(tmp_path)
        out = tmp_path / "sim.jsonl"
        runner.invoke(main, ["simulate", "--spec", spec, "--out", str(out)])
        for line in out.read_text().splitlines():
            obj = json.loads(line)
            assert obj["control"]["machine_labels"] == obj["control"]["reference_labels"]
            assert obj["treatment"]["machine_labels"] == obj["treatment"]["reference_labels"]

    def test_calibrated_confusion_changes_labels(self, runner, tmp_path):
        spec = self.spec_file(tmp_path)
        confusion = tmp_path / "cm.json"
        confusion.write_text(json.dumps(
            {"calibrate": {"exact": 0.737, "within_one": 0.917}}))
        out = tmp_path / "sim.jsonl"
        result = runner.invoke(main, ["simulate", "--spec", spec, "--confusion",
                                      str(confusion), "--out", str(out)])
        assert result.exit_code == 0
        mismatched = 0
        for line in out.read_text().splitlines():
            obj = json.loads(line)
            if obj["control"]["machine_labels"] != obj["control"]["reference_labels"]:
                mismatched += 1
        assert mismatched > 0

    def test_effect_file_applied(self, runner, tmp_path):
        spec = self.spec_file(tmp_path)
        effect = tmp_path / "effect.json"
        effect.write_text(json.dumps({"default": 1.0}))
        out = tmp_path / "sim.jsonl"
        runner.invoke(main, ["simulate", "--spec", spec, "--effect", str(effect),
                             "--out", str(out)])
        improved = same = worse = 0
        for line in out.read_text().splitlines():
            obj = json.loads(line)
            c = sum(obj["control"]["reference_labels"])
            t = sum(obj["treatment"]["reference_labels"])
            improved += t > c
            same += t == c
            worse += t < c
        assert worse == 0
        assert improved > same

    @pytest.mark.parametrize("option, text", [
        ("--effect", "[1]"),
        ("--effect", '{"shifts": [{"interest": "a", "popularity": "head"}]}'),
        ("--effect", '{"default": NaN}'),
        ("--effect", '{"default": 1e309}'),
        ("--confusion", '{"calibrate": {"exact": 0.7}}'),
        ("--spec", json.dumps(sim_spec(k_depth=0))),
        ("--spec", json.dumps(sim_spec(decay=float("nan")))),
        ("--spec", json.dumps(sim_spec(weights=(float("nan"), 0.5)))),
        ("--effect", '{"shifts": [{"interest": "zz", "popularity": "head", "shift": 0.5}]}'),
        ("--spec", json.dumps(_without_profile_kind())),
        ("--confusion", json.dumps({"rows": [[1.0 if i == j else 0.0 for j in range(5)]
                                             for i in range(5)],
                                    "calibrate": {"exact": 0.5, "within_one": 0.9}})),
        ("--effect", '{"shifts": {}}'),
    ], ids=["effect-list", "shift-missing", "default-nan", "default-inf",
            "calibrate-no-within-one", "spec-k-depth-0", "spec-decay-nan", "spec-weight-nan",
            "shift-unknown-stratum", "spec-kind-missing", "confusion-rows-and-calibrate",
            "effect-shifts-object"])
    def test_bad_input_file_is_typed_error(self, runner, tmp_path, option, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        spec = str(path) if option == "--spec" else self.spec_file(tmp_path)
        args = ["simulate", "--spec", spec, "--out", str(tmp_path / "x.jsonl"), "--error-json"]
        if option != "--spec":
            args += [option, str(path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert json.loads(result.output)["error"] == "BadSpec"

    @pytest.mark.parametrize("fields", [
        {"k_depth": 10 ** 400},
        {"k_depth": 1001},
        {"queries_per_stratum": 10 ** 30},
        {"queries_per_stratum": 10 ** 6 + 1},
    ], ids=["k-depth-huge", "k-depth-over", "queries-huge", "queries-over"])
    def test_size_beyond_its_maximum_is_typed_error(self, tmp_path, fields):
        # checked before anything is drawn; past the maximum a run would loop or
        # allocate without bound, so it runs in its own process, under a
        # timeout and a 1 GiB address-space limit
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(sim_spec(), **fields)))
        result = subprocess.run(
            [sys.executable, "-m", "releval.cli", "simulate", "--spec", str(path),
             "--out", str(tmp_path / "x.jsonl"), "--error-json"],
            env=_python_env(), capture_output=True, text=True, timeout=60,
            preexec_fn=_limit_address_space)
        assert result.returncode == 1, result.stderr
        payload = json.loads(result.stdout)
        assert payload["error"] == "BadSpec"
        assert next(iter(fields)) in payload["message"]

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 32), str(-2 ** 32)])
    def test_seed_outside_32_bits_is_out_of_domain(self, runner, tmp_path, seed):
        # never reduced modulo 2**32, which would give another seed's bytes
        out = tmp_path / "x.jsonl"
        result = runner.invoke(main, ["simulate", "--spec", self.spec_file(tmp_path),
                                      "--seed", seed, "--out", str(out), "--error-json"])
        assert result.exit_code == 1
        assert json.loads(result.output) == {
            "error": "OutOfDomain", "message": f"seed must be in [0, 2**32), got {seed}"}
        assert not out.exists()

    def test_largest_seed_runs(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--spec", self.spec_file(tmp_path),
                                      "--seed", str(2 ** 32 - 1), "--out", str(tmp_path / "x")])
        assert result.exit_code == 0, result.output

    def test_spec_k_depth_out_of_range_stays_bad_spec(self, runner, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(sim_spec(), k_depth=0)))
        result = runner.invoke(main, ["simulate", "--spec", str(path),
                                      "--out", str(tmp_path / "x.jsonl"), "--error-json"])
        assert result.exit_code == 1
        assert json.loads(result.output)["error"] == "BadSpec"

    @pytest.mark.parametrize("rho", ["1.5", "nan", "-0.1"])
    def test_rho_shared_outside_unit_interval_is_typed_error(self, runner, tmp_path, rho):
        result = runner.invoke(main, ["simulate", "--spec", self.spec_file(tmp_path),
                                      "--rho-shared", rho, "--out", str(tmp_path / "x.jsonl"),
                                      "--error-json"])
        assert result.exit_code == 1
        assert json.loads(result.output)["error"] == "BadMatrix"

    def test_per_rank_probs_rows(self, runner, tmp_path):
        # one row per rank; ranks past the last row repeat it
        spec = sim_spec()
        spec["strata"][1]["profile"]["probs"] = [[0, 0, 0, 0, 1], [1, 0, 0, 0, 0]]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "sim.jsonl"
        result = runner.invoke(main, ["simulate", "--spec", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        pages = [obj[arm]["reference_labels"]
                 for obj in map(json.loads, out.read_text().splitlines())
                 if obj["stratum"]["interest"] == "b" for arm in ("control", "treatment")]
        assert len(pages) == 40
        assert all(p == [5, 1, 1, 1] for p in pages)

    @pytest.mark.parametrize("weights, stratum", [((1.5, -0.5), "a/head"), ((1.0, 0.0), "b/tail")])
    def test_weight_outside_0_1_is_rejected_naming_its_stratum(self, runner, tmp_path, weights,
                                                                stratum):
        # the weights sum to 1, but a share lies in (0, 1], as the schema and --design say
        spec = self.spec_file(tmp_path, weights=weights)
        out = tmp_path / "x.jsonl"
        result = runner.invoke(main, ["simulate", "--spec", spec, "--out", str(out),
                                      "--error-json"])
        assert result.exit_code == 1, result.output
        bad = weights[0] if stratum == "a/head" else weights[1]
        assert json.loads(result.stdout) == {
            "error": "BadSpec", "message": f"stratum {stratum} weight must be in (0, 1], got {bad}"}
        assert not out.exists()

    def test_bad_weights_rejected(self, runner, tmp_path):
        spec = self.spec_file(tmp_path, weights=(0.7, 0.7))
        result = runner.invoke(main, ["simulate", "--spec", spec,
                                      "--out", str(tmp_path / "x.jsonl")])
        assert result.exit_code == 1
