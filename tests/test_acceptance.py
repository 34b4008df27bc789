"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
on success). Statistical criteria use fixed seeds, so outcomes are
deterministic; the frozen mediation ground truth below was computed by the
quadrature oracle and cross-checked against an independent adaptive
integrator before being recorded here.
"""

import time

import numpy as np

from rieszreg import (
    AppendixDgp,
    DiscreteDgp,
    EstimatorSettings,
    builtin_spec,
    closed_form_representer,
    fit_sequential,
    one_step_estimate,
    simulate,
    truth_oracle,
)
from rieszreg.bench import BenchTask, replicate_seed, run_task
from rieszreg.verify import (
    check_closed_form,
    check_eif_formulas,
    check_gradients,
    check_orthogonality,
    check_representation,
)

# theta(1) - theta(0) for the mediation benchmark, frozen from the oracle
FROZEN_NDE_TRUTH = 0.1254418685158008


def _report(number, name, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail}; {elapsed:.2f}s "
          f"of {budget:.0f}s budget)")
    assert passed, f"criterion {number} ({name}): {detail}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s"


def test_criterion_1_representation_identity():
    start = time.perf_counter()
    result = check_representation(seed=0)
    elapsed = time.perf_counter() - start
    _report(1, "representation-identity", result.passed,
            f"max residual {result.residual:.3e} <= {result.tol:g}", elapsed, 1.0)


def test_criterion_2_closed_form_recovery():
    start = time.perf_counter()
    result = check_closed_form(seed=0)
    elapsed = time.perf_counter() - start
    _report(2, "closed-form-recovery", result.passed,
            f"max weight gap {result.residual:.3e} <= {result.tol:g}", elapsed, 1.0)


def test_criterion_3_influence_formula_equivalence():
    start = time.perf_counter()
    result = check_eif_formulas(seed=0, rows=1000)
    elapsed = time.perf_counter() - start
    _report(3, "influence-formula-equivalence", result.passed,
            f"max pointwise gap {result.residual:.3e} <= {result.tol:g}", elapsed, 1.0)


def test_criterion_4_orthogonality_mean_zero():
    start = time.perf_counter()
    result = check_orthogonality(seed=0)
    elapsed = time.perf_counter() - start
    _report(4, "orthogonality-mean-zero", result.passed,
            f"max |mean D_k| {result.residual:.3e} <= {result.tol:g}", elapsed, 1.0)


def test_criterion_5_saturated_design_exactness():
    start = time.perf_counter()
    data = simulate(DiscreteDgp(), 4000, 42)
    a, w, y = (data.column(c) for c in ("A", "W", "Y"))
    settings = EstimatorSettings(riesz_basis="saturated", nuisance_basis="saturated",
                                 ridge=0.0, outcome_family="least_squares",
                                 min_rows_per_fold=10)
    ate = one_step_estimate(builtin_spec("ate"), data, settings, folds=1, seed=0)
    att = one_step_estimate(builtin_spec("att_control_mean"), data, settings,
                            folds=1, seed=0)
    ate_enum = sum(np.mean(w == wv) * (y[(a == 1) & (w == wv)].mean()
                                       - y[(a == 0) & (w == wv)].mean())
                   for wv in (0.0, 1.0))
    att_enum = sum(np.mean((w == wv) & (a == 1)) / a.mean()
                   * y[(a == 0) & (w == wv)].mean() for wv in (0.0, 1.0))
    gap = max(abs(ate.theta_hat - ate_enum), abs(att.theta_hat - att_enum))
    elapsed = time.perf_counter() - start
    _report(5, "saturated-design-exactness", gap <= 1e-10,
            f"max gap to enumeration {gap:.3e} <= 1e-10", elapsed, 1.0)


def test_criterion_6_mediation_end_to_end():
    start = time.perf_counter()
    dgp = AppendixDgp()
    spec = builtin_spec("nde")
    oracle = truth_oracle(spec, dgp)
    assert abs(oracle - FROZEN_NDE_TRUTH) <= 1e-9, "oracle drifted from frozen truth"
    replicates, n, folds, master = 200, 5000, 5, 20250810
    # replicates are seeded one by one, so two processes give the serial numbers
    rows = run_task(BenchTask(dgp, spec, n, replicates, folds, master), threads=2)
    estimates = np.array([row["estimate"] for row in rows])
    covered = np.array([row["ci_lo"] <= FROZEN_NDE_TRUTH <= row["ci_hi"] for row in rows])
    mc_se = estimates.std(ddof=1) / np.sqrt(replicates)
    bias = estimates.mean() - FROZEN_NDE_TRUTH
    coverage = covered.mean()
    elapsed = time.perf_counter() - start
    _report(6, "mediation-end-to-end",
            abs(bias) <= 2 * mc_se and 0.90 <= coverage <= 0.98,
            f"bias {bias:.5f} vs 2*MC-SE {2 * mc_se:.5f}, coverage {coverage:.3f} "
            f"in [0.90, 0.98]", elapsed, 300.0)


def test_criterion_7_double_robustness():
    start = time.perf_counter()
    dgp = DiscreteDgp()
    spec = builtin_spec("ate")
    truth = truth_oracle(spec, dgp)
    replicates, n, master = 200, 20000, 31415
    arms = {
        "misspecified-regressions": EstimatorSettings(
            nuisance_basis="intercept", riesz_basis="saturated", ridge=0.0,
            outcome_family="least_squares"),
        "misspecified-weights": EstimatorSettings(
            nuisance_basis="saturated", riesz_basis="intercept", ridge=0.0,
            outcome_family="least_squares"),
    }
    summary = {}
    plug_ins = None
    for label, settings in arms.items():
        # replicates are seeded one by one, so two processes give the serial numbers
        rows = run_task(BenchTask(dgp, spec, n, replicates, 5, master, settings), threads=2)
        estimates = np.array([row["estimate"] for row in rows])
        mc_se = estimates.std(ddof=1) / np.sqrt(replicates)
        summary[label] = (abs(estimates.mean() - truth), 4 * mc_se)
        if label == "misspecified-regressions":
            plug_ins = np.array([row["plug_in"] for row in rows])
    debiased_ok = all(bias <= bound for bias, bound in summary.values())
    # negative control: the uncorrected plug-in is materially biased
    plug_bias = abs(plug_ins.mean() - truth)
    plug_bound = 4 * plug_ins.std(ddof=1) / np.sqrt(replicates)
    control_ok = plug_bias > plug_bound
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{label} bias {bias:.5f} <= {bound:.5f}"
                       for label, (bias, bound) in summary.items())
    _report(7, "double-robustness", debiased_ok and control_ok,
            f"{detail}; plug-in bias {plug_bias:.3f} > {plug_bound:.3f}",
            elapsed, 180.0)


def test_criterion_8_gradient_check():
    start = time.perf_counter()
    result = check_gradients(seed=0)
    elapsed = time.perf_counter() - start
    _report(8, "network-gradient-check", result.passed,
            f"max relative error {result.residual:.3e} <= {result.tol:g}",
            elapsed, 1.0)


def test_criterion_9_sequential_fit_convergence():
    start = time.perf_counter()
    dgp = AppendixDgp()
    eval_data = simulate(dgp, 4000, 777)
    target = closed_form_representer("nde", dgp)(eval_data.columns)
    arms = [builtin_spec("nde").instantiate(a) for a in (1.0, 0.0)]
    discrepancy = {}
    for n in (1000, 4000, 16000):
        values = []
        for s in range(20):
            seed = replicate_seed(555 + s, n)
            data = simulate(dgp, n, seed)
            arm1, arm0 = (fit_sequential(spec, data, ridge=0.0)[-1] for spec in arms)
            fitted = arm1(eval_data.columns) - arm0(eval_data.columns)
            values.append(float(np.mean((fitted - target) ** 2)))
        discrepancy[n] = float(np.mean(values))
    strictly_decreasing = (discrepancy[1000] > discrepancy[4000] > discrepancy[16000])
    elapsed = time.perf_counter() - start
    _report(9, "sequential-fit-convergence", strictly_decreasing,
            "mean squared discrepancy " + " > ".join(
                f"{discrepancy[n]:.5f}@n={n}" for n in (1000, 4000, 16000)),
            elapsed, 120.0)
