"""Self-tests of the benchmark harness on tiny inputs.

Run from the checkout root:

    python3 -m pytest rrbench/tests -q

Each test starts ``rrbench/run.py`` (or ``worker.py``) as a separate process,
with ``--tiny`` inputs and one-second runs.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
CHECKOUT = BENCH.parent
CONFIG = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]

# Per-layer metrics that must repeat exactly between traced runs with one seed.
EXACT = [m["name"] for m in CONFIG["per_layer"] if m["name"].endswith(("_calls", "_mb"))] + [
    "nuisance.newton_iters", "riesz.mlp_epochs", "mlp.rows"]

# The layer map of NOTES.md on the tiny inputs: counts each workload must
# record (an int is exact, ">0" is any positive count). A wrapper that misses
# its target records nothing, so these fail where repeat-only checks pass.
LAYER_MAP = {
    "cli_nde_200k": {"basis.design_calls": ">0", "nuisance.fit_logistic_calls": ">0",
                     "data.csv_mb": ">0", "cli.report_mb": ">0", "linalg.solve_calls": ">0",
                     "basis.make_basis_calls": ">0", "data.subset_calls": ">0",
                     "riesz.fit_sieve_calls": ">0", "riesz.fit_mlp_calls": 0, "mlp.rows": 0},
    # nde: 2 arms x 5 folds x 2 fitted stages
    "mlp_nde_1k": {"riesz.fit_mlp_calls": 20, "mlp.rows": ">0", "riesz.mlp_epochs": ">0"},
}

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402


def run_bench(workload, *extra, trace=0, seed=3, cwd=CHECKOUT, env=None):
    cmd = [sys.executable, str(Path(cwd) / "rrbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, env=env)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = CONFIG["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        for name, expected in LAYER_MAP[workload].items():
            value = result["metrics"][name]["value"]
            assert value > 0 if expected == ">0" else value == expected, (name, value)
        again = result_of(run_bench(workload, trace=trace))["metrics"]
        for name in EXACT:
            assert again[name]["value"] == result["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_headline_fails_every_operation(workload):
    result = result_of(run_bench(workload, "--corrupt-headline"))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_worker_refuses_rieszreg_outside_the_checkout(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(CHECKOUT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "mlp_nde_1k",
         "--seed", "1", "--seconds", "1", "--checkout", str(tmp_path),
         "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode != 0
    assert "READY" not in proc.stdout
    assert "refusing to run" in proc.stderr


def test_bare_benchmark_directory_exits_without_a_result(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "rrbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    # even with a rieszreg importable from elsewhere
    env = dict(os.environ, PYTHONPATH=str(CHECKOUT / "src"))
    proc = run_bench("mlp_nde_1k", cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    spans = [[0, "a", -1, 0.0, 10.0], [0, "b", 0, 2.0, 5.0], [0, "c", 1, 3.0, 4.0],
             [1, "a", -1, 0.0, 99.0]]
    self_s, calls, _ = tracer.aggregate(spans, [], [0])
    assert self_s == {"a": 7.0, "b": 2.0, "c": 1.0}
    assert calls == {"a": 1, "b": 1, "c": 1}
