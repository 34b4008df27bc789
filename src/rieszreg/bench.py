"""Monte Carlo benchmark harness: bias, spread, coverage, interval width.

Each task draws fresh datasets from a DGP, estimates one estimand per
replicate, and compares against the quadrature/enumeration truth. Replicate
seeds are pre-assigned from the task seed, so results are identical whether
replicates run serially or on a process pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import is_integer, require
from .estimands import EstimandSpec
from .estimator import EstimatorSettings, one_step_estimate
from .simulate import oracle_value, simulate, truth_report


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


def replicate_seed(task_seed: int, rep: int) -> int:
    """Deterministic per-replicate seed, independent of execution order."""
    return int(np.random.SeedSequence(task_seed, spawn_key=(rep,)).generate_state(1)[0])


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
    """All replicate rows for one task, in replicate order."""
    require(is_integer(threads) and threads >= 1, "threads must be an integer >= 1", threads)
    if threads <= 1 or task.replicates == 1:
        return [run_replicate(task, rep) for rep in range(task.replicates)]
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor  # pooling only
    try:
        with ProcessPoolExecutor(max_workers=threads) as pool:  # map yields in input order
            return list(pool.map(run_replicate, [task] * task.replicates, range(task.replicates),
                                 chunksize=max(1, task.replicates // (4 * threads))))
    except BrokenProcessPool as exc:  # a worker died: an I/O error, as in forked_map
        raise ChildProcessError(f"a benchmark worker process ended early ({exc})") from None


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
        rows = run_task(task, threads=threads)
        table.append({**summarize(task, rows, truth), "truth_report": report})
    return table


BENCHMARK_COLUMNS = ("dgp", "spec", "method", "n", "replicates", "folds", "truth",
                     "mean_estimate", "bias", "mc_se", "coverage", "mean_ci_width",
                     "runtime_s")


def benchmark_csv(table: list[dict]) -> str:
    lines = [",".join(BENCHMARK_COLUMNS)]
    for row in table:
        cells = []
        for col in BENCHMARK_COLUMNS:
            value = row[col]
            cells.append(repr(value) if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
