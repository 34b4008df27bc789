"""Monte Carlo benchmark harness: bias, spread, coverage, interval width.

Each task draws fresh datasets from a DGP, estimates one estimand per
replicate, and compares against the quadrature/enumeration truth. Replicate
seeds are pre-assigned from the task seed, so results are identical whether
replicates run serially or on forked processes (``data.forked_map``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import forked_map
from .errors import is_integer, require
from .estimands import EstimandSpec, validate_binding
from .estimator import EstimatorSettings, one_step_estimate
from .simulate import oracle_value, simulate, spawn_seed, truth_report


@dataclass(frozen=True)
class BenchTask:
    dgp: object
    spec: EstimandSpec
    n: int
    replicates: int
    folds: int
    seed: int
    settings: EstimatorSettings = field(default_factory=EstimatorSettings)

    def __post_init__(self):
        for name, low in (("n", 1), ("replicates", 1), ("folds", 1), ("seed", 0)):
            got = getattr(self, name)
            require(is_integer(got) and got >= low, f"{name} must be an integer >= {low}", got)
        validate_binding(self.spec, simulate(self.dgp, 1, 0))  # one row carries the schema


replicate_seed = spawn_seed  # a replicate's seed, independent of execution order


def run_replicate(task: BenchTask, rep: int) -> dict:
    seed = replicate_seed(task.seed, rep)
    data = simulate(task.dgp, task.n, seed)
    start = time.perf_counter()
    report = one_step_estimate(task.spec, data, task.settings,
                               folds=task.folds, seed=seed)
    elapsed = time.perf_counter() - start
    ci = report.headline_ci
    return {
        "replicate": rep,
        "estimate": report.headline,
        "plug_in": report.plug_in,
        "std_error": (report.contrast.std_error if report.contrast is not None
                      else report.std_error),
        "ci_lo": ci.lo,
        "ci_hi": ci.hi,
        "seconds": elapsed,
    }


def run_task(task: BenchTask, threads: int = 1) -> list[dict]:
    """All replicate rows for one task, in replicate order, on <= ``threads`` processes."""
    require(is_integer(threads) and threads >= 1, "threads must be an integer >= 1", threads)
    return list(forked_map(lambda rep: run_replicate(task, rep), range(task.replicates), threads))


def summarize(task: BenchTask, rows: list[dict], truth: float) -> dict:
    estimates = np.array([r["estimate"] for r in rows])
    covered = np.array([r["ci_lo"] <= truth <= r["ci_hi"] for r in rows])
    widths = np.array([r["ci_hi"] - r["ci_lo"] for r in rows])
    mc_se = (float(np.std(estimates, ddof=1) / np.sqrt(len(rows)))
             if len(rows) > 1 else 0.0)
    return {
        "dgp": task.dgp.label,
        "spec": task.spec.name,
        "method": task.settings.riesz_method,
        "n": task.n,
        "replicates": task.replicates,
        "folds": task.folds,
        "truth": truth,
        "mean_estimate": float(np.mean(estimates)),
        "bias": float(np.mean(estimates) - truth),
        "mc_se": mc_se,
        "coverage": float(np.mean(covered)),
        "mean_ci_width": float(np.mean(widths)),
        "runtime_s": float(np.sum([r["seconds"] for r in rows])),
    }


def run_benchmark(tasks: list[BenchTask], threads: int = 1) -> list[dict]:
    """One summary row per task; truth comes from the independent oracle,
    whose ``truth_report`` the row keeps under "truth_report"."""
    table = []
    for task in tasks:
        report = truth_report(task.spec, task.dgp)
        truth = oracle_value(report)
        table.append({**summarize(task, run_task(task, threads), truth), "truth_report": report})
    return table


BENCHMARK_COLUMNS = ("dgp", "spec", "method", "n", "replicates", "folds", "truth",
                     "mean_estimate", "bias", "mc_se", "coverage", "mean_ci_width",
                     "runtime_s")


def benchmark_csv(table: list[dict]) -> str:
    """The table as CSV; a float cell is its shortest round-tripping text."""
    lines = [BENCHMARK_COLUMNS, *([row[col] for col in BENCHMARK_COLUMNS] for row in table)]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)
