import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings
from hypothesis import strategies as st

from rieszreg import (
    DegenerateFoldError,
    DiscreteDgp,
    Dataset,
    EstimatorSettings,
    NonFiniteEifError,
    SchemaError,
    TrainingDivergedError,
    assemble_eif,
    builtin_spec,
    closed_form_representer,
    fit_all_stages,
    fit_logistic,
    fit_sequential,
    fit_sieve,
    make_basis,
    one_step_estimate,
    simulate,
    true_nuisance,
    truth_oracle,
    verify_orthogonality,
)
from rieszreg import Basis, basis as basis_module, estimator, nuisance, riesz, substream
from rieszreg import bench, data as data_module
from rieszreg.bench import BenchTask, run_task
from rieszreg.basis import FoldDesigns
from rieszreg.estimands import spec_from_document
from rieszreg.estimator import _fold_order, _stage_values
from rieszreg.mlp import MlpConfig
from rieszreg.nuisance import fit_folds
from rieszreg.riesz import constant_one_fit

EXACT = EstimatorSettings(riesz_basis="saturated", nuisance_basis="saturated",
                          ridge=0.0, outcome_family="least_squares",
                          min_rows_per_fold=10)


class TestAssembly:
    def test_difference_estimand_matches_hand_formula_at_truth(self, discrete_dgp,
                                                               discrete_data):
        spec = builtin_spec("ate")
        alphas = [constant_one_fit(),
                  closed_form_representer("ate", discrete_dgp)]
        nuisances = [true_nuisance(spec, discrete_dgp, 1),
                     true_nuisance(spec, discrete_dgp, 2)]
        theta = truth_oracle(spec, discrete_dgp)
        terms = assemble_eif(spec, alphas, nuisances, discrete_data, theta)
        a, w, y = (discrete_data.column(c) for c in ("A", "W", "Y"))
        prop = discrete_dgp.propensity_of(w)
        q = discrete_dgp.outcome_mean({"A": a, "W": w})
        q1 = discrete_dgp.outcome_mean({"A": np.ones_like(a), "W": w})
        q0 = discrete_dgp.outcome_mean({"A": np.zeros_like(a), "W": w})
        hand = (a / prop - (1 - a) / (1 - prop)) * (y - q) + q1 - q0 - theta
        total = sum(t.values for t in terms)
        np.testing.assert_allclose(total, hand, atol=1e-12)

    def test_subgroup_estimand_matches_hand_formula_at_truth(self, discrete_dgp,
                                                             discrete_data):
        spec = builtin_spec("att_control_mean")
        alphas = [closed_form_representer("att_control_mean", discrete_dgp, stage=1),
                  closed_form_representer("att_control_mean", discrete_dgp, stage=2)]
        nuisances = [true_nuisance(spec, discrete_dgp, 1),
                     true_nuisance(spec, discrete_dgp, 2)]
        theta = truth_oracle(spec, discrete_dgp)
        terms = assemble_eif(spec, alphas, nuisances, discrete_data, theta)
        a, w, y = (discrete_data.column(c) for c in ("A", "W", "Y"))
        prop = discrete_dgp.propensity_of(w)
        treated = discrete_dgp.marginal_treated()
        q = discrete_dgp.outcome_mean({"A": a, "W": w})
        q0 = discrete_dgp.outcome_mean({"A": np.zeros_like(a), "W": w})
        hand = ((1 - a) / treated * prop / (1 - prop) * (y - q)
                + a / treated * (q0 - theta))
        np.testing.assert_allclose(sum(t.values for t in terms), hand, atol=1e-12)

    def test_mediation_estimand_matches_hand_formula_at_truth(self, appendix_dgp,
                                                              appendix_data):
        spec = builtin_spec("nde").instantiate(1.0)
        alphas = [constant_one_fit(),
                  closed_form_representer("nde", appendix_dgp, stage=2),
                  closed_form_representer("nde", appendix_dgp, stage=3, a_prime=1.0)]
        nuisances = [true_nuisance(spec, appendix_dgp, k) for k in (1, 2, 3)]
        theta = truth_oracle(spec, appendix_dgp)
        terms = assemble_eif(spec, alphas, nuisances, appendix_data, theta)
        cols = appendix_data.columns
        a, m, w, y = (appendix_data.column(c) for c in ("A", "M", "W", "Y"))
        p = appendix_dgp.p_treated
        mu0 = appendix_dgp.mediator_mean(0.0, w)
        mu1 = appendix_dgp.mediator_mean(1.0, w)
        ratio = np.exp(((m - mu1) ** 2 - (m - mu0) ** 2) / (2 * appendix_dgp.m_sd ** 2))
        q3 = appendix_dgp.outcome_mean(cols)
        q3_arm = appendix_dgp.outcome_mean({"A": np.ones_like(a), "M": m, "W": w})
        q2 = nuisances[1](cols)
        q2_ctrl = nuisances[1]({"A": np.zeros_like(a), "W": w})
        hand = ((a == 1.0) / p * ratio * (y - q3)
                + (a == 0.0) / (1 - p) * (q3_arm - q2)
                + q2_ctrl - theta)
        np.testing.assert_allclose(sum(t.values for t in terms), hand, atol=1e-12)

    def test_single_stage_boundary_uses_outcome(self, discrete_data):
        spec = builtin_spec("mean_treated")
        alphas = [lambda cols: cols["A"] / cols["A"].mean()]
        nuisances = [lambda cols: np.full(len(cols["A"]), 0.5)]
        terms = assemble_eif(spec, alphas, nuisances, discrete_data, theta=0.6)
        a, y = discrete_data.column("A"), discrete_data.column("Y")
        np.testing.assert_allclose(terms[0].values, a / a.mean() * (y - 0.6),
                                   atol=1e-14)

    def test_stage_count_mismatch(self, discrete_data):
        spec = builtin_spec("ate")
        with pytest.raises(SchemaError, match="stage-count"):
            assemble_eif(spec, [constant_one_fit()], [lambda c: c["A"]] * 2,
                         discrete_data, 0.0)

    def test_non_finite_term_reports_row_and_stage(self, discrete_data):
        spec = builtin_spec("ate")
        bad_row = 7
        values = np.ones(discrete_data.n)
        values[bad_row] = np.inf

        alphas = [constant_one_fit(), lambda cols: values]
        nuisances = [lambda cols: np.zeros(discrete_data.n)] * 2
        with pytest.raises(NonFiniteEifError, match=f"D_2 .*row {bad_row}"):
            assemble_eif(spec, alphas, nuisances, discrete_data, 0.0)


class TestOneStepExactness:
    def test_saturated_difference_estimate_equals_enumeration(self, discrete_data):
        report = one_step_estimate(builtin_spec("ate"), discrete_data, EXACT,
                                   folds=1, seed=0)
        a, w, y = (discrete_data.column(c) for c in ("A", "W", "Y"))
        enumeration = sum(
            np.mean(w == wv) * (y[(a == 1) & (w == wv)].mean()
                                - y[(a == 0) & (w == wv)].mean())
            for wv in (0.0, 1.0))
        assert report.theta_hat == pytest.approx(enumeration, abs=1e-10)

    def test_saturated_subgroup_estimate_equals_enumeration(self, discrete_data):
        report = one_step_estimate(builtin_spec("att_control_mean"), discrete_data,
                                   EXACT, folds=1, seed=0)
        a, w, y = (discrete_data.column(c) for c in ("A", "W", "Y"))
        enumeration = sum(
            np.mean((w == wv) & (a == 1)) / a.mean() * y[(a == 0) & (w == wv)].mean()
            for wv in (0.0, 1.0))
        assert report.theta_hat == pytest.approx(enumeration, abs=1e-10)


class TestReportInvariants:
    @pytest.mark.parametrize("name,folds", [
        ("mean_treated", 1), ("ate", 1), ("ate", 5), ("att_control_mean", 5)])
    def test_bookkeeping_identity(self, discrete_data, name, folds):
        settings = EstimatorSettings(min_rows_per_fold=10)
        report = one_step_estimate(builtin_spec(name), discrete_data, settings,
                                   folds=folds, seed=3)
        assert report.theta_hat - report.plug_in == pytest.approx(
            float(np.mean(report.eif_values)), abs=1e-12)

    def test_bookkeeping_identity_contrast(self, appendix_data):
        settings = EstimatorSettings(min_rows_per_fold=10)
        report = one_step_estimate(builtin_spec("nde"), appendix_data, settings,
                                   folds=5, seed=3)
        block = report.contrast
        assert block is not None
        assert block.difference == pytest.approx(
            report.theta_hat - block.other.theta_hat, abs=1e-12)
        gap = (report.theta_hat - report.plug_in) - (
            block.other.theta_hat - block.other.plug_in)
        assert float(np.mean(block.eif_values)) == pytest.approx(gap, abs=1e-12)

    @pytest.mark.parametrize("name", ["ate", "att_control_mean"])
    def test_influence_centered_at_estimate(self, discrete_dgp, name):
        data = simulate(discrete_dgp, 3000, 8)
        report = one_step_estimate(builtin_spec(name), data, EXACT, folds=1, seed=1)
        spec = builtin_spec(name)
        alphas = fit_sequential(spec, data, basis_policy="saturated", ridge=0.0)
        nuisances = fit_all_stages(spec, data, basis_policy="saturated", ridge=0.0,
                                   outcome_family="least_squares")
        terms = assemble_eif(spec, alphas, nuisances, data, report.theta_hat)
        assert float(np.mean(sum(t.values for t in terms))) == pytest.approx(
            0.0, abs=1e-12)

    def test_std_error_and_interval_fields(self, discrete_data):
        report = one_step_estimate(builtin_spec("ate"), discrete_data,
                                   EstimatorSettings(min_rows_per_fold=10),
                                   folds=5, seed=3)
        n = discrete_data.n
        assert report.std_error == pytest.approx(
            float(np.std(report.eif_values, ddof=1) / np.sqrt(n)), abs=1e-15)
        z = 1.959963984540054
        assert report.ci.lo == pytest.approx(report.theta_hat - z * report.std_error,
                                             abs=1e-12)
        assert report.ci.hi == pytest.approx(report.theta_hat + z * report.std_error,
                                             abs=1e-12)

    @pytest.mark.parametrize("name", ["mean_treated", "ate", "att_control_mean"])
    def test_scale_equivariance(self, discrete_data, name, scale=2.5):
        settings = EstimatorSettings(riesz_basis="saturated",
                                     nuisance_basis="saturated",
                                     outcome_family="least_squares",
                                     min_rows_per_fold=10)
        base = one_step_estimate(builtin_spec(name), discrete_data, settings,
                                 folds=5, seed=9)
        schema = tuple(
            c if c.name != "Y" else type(c)("Y", "outcome", "real")
            for c in discrete_data.schema)
        scaled_cols = dict(discrete_data.columns)
        scaled_cols["Y"] = scaled_cols["Y"] * scale
        scaled = one_step_estimate(
            builtin_spec(name), Dataset(schema, scaled_cols), settings,
            folds=5, seed=9)
        assert scaled.theta_hat == pytest.approx(scale * base.theta_hat, rel=1e-12)
        assert scaled.std_error == pytest.approx(scale * base.std_error, rel=1e-12)

    def test_report_serializes_with_provenance(self, discrete_data):
        report = one_step_estimate(builtin_spec("ate"), discrete_data,
                                   EstimatorSettings(min_rows_per_fold=10),
                                   folds=2, seed=3)
        payload = report.to_dict()
        text = json.dumps(payload)
        assert "spec_sha256" in payload["provenance"]
        assert "data_sha256" in payload["provenance"]
        assert len(payload["eif_values"]) == discrete_data.n
        assert json.loads(text)["n"] == discrete_data.n

    def test_report_key_order_is_pinned(self, appendix_data, discrete_data):
        # report keys are only ever added, so reordering a report field fails here
        arm = ["name", "theta_hat", "plug_in", "std_error", "ci", "n", "folds", "seed",
               "eif_values", "per_fold", "diagnostics", "contrast", "provenance"]
        settings = ["riesz_method", "riesz_basis", "nuisance_basis", "degree", "ridge",
                    "outcome_family", "clip", "min_rows_per_fold", "level", "mlp"]
        payload = one_step_estimate(builtin_spec("nde"), appendix_data, folds=2,
                                    seed=3).to_dict()
        assert list(payload) == arm
        assert list(payload["ci"]) == ["lo", "hi", "level"]
        assert list(payload["contrast"]) == ["other", "difference", "std_error", "ci",
                                             "eif_values"]
        assert list(payload["contrast"]["other"]) == arm
        assert list(payload["per_fold"][0]) == ["fold", "n_eval", "n_train", "plug_in",
                                                "alpha1_mean_raw", "riesz_fitted_loss"]
        assert list(payload["provenance"]) == ["spec_sha256", "data_sha256", "seed",
                                               "folds", "settings", "package_version"]
        assert list(payload["provenance"]["settings"]) == settings
        assert payload["provenance"]["settings"]["mlp"] is None
        network = EstimatorSettings(riesz_method="mlp", mlp=MlpConfig(epochs=2))
        mlp = one_step_estimate(builtin_spec("ate"), discrete_data, network, folds=2,
                                seed=3).to_dict()["provenance"]["settings"]
        assert list(mlp) == settings
        assert list(mlp["mlp"]) == ["hidden_layers", "width", "learning_rate", "beta1",
                                    "beta2", "adam_eps", "epochs", "batch_size", "seed"]
        single = one_step_estimate(builtin_spec("ate"), discrete_data, folds=2,
                                   seed=3).to_dict()
        assert list(single) == arm and single["contrast"] is None

    def test_clipping_is_counted(self, discrete_data):
        settings = EstimatorSettings(riesz_basis="saturated",
                                     nuisance_basis="saturated", clip=1.0,
                                     min_rows_per_fold=10)
        report = one_step_estimate(builtin_spec("ate"), discrete_data, settings,
                                   folds=1, seed=0)
        assert report.diagnostics["clipped_weights"] > 0


class TestFolding:
    def test_fold_assignment_deterministic_and_balanced(self, discrete_data):
        one = one_step_estimate(builtin_spec("ate"), discrete_data,
                                EstimatorSettings(min_rows_per_fold=10),
                                folds=4, seed=5)
        two = one_step_estimate(builtin_spec("ate"), discrete_data,
                                EstimatorSettings(min_rows_per_fold=10),
                                folds=4, seed=5)
        assert one.theta_hat == two.theta_hat
        sizes = [f["n_eval"] for f in one.per_fold]
        assert max(sizes) - min(sizes) <= 1

    def test_fold_too_small(self, discrete_data):
        with pytest.raises(DegenerateFoldError, match="fewer than"):
            one_step_estimate(builtin_spec("ate"), discrete_data,
                              EstimatorSettings(min_rows_per_fold=5000),
                              folds=2, seed=0)

    def test_missing_treatment_level_aborts(self, discrete_dgp):
        data = simulate(discrete_dgp, 300, 1)
        a = data.column("A").copy()
        a[:] = 1.0
        a[5] = 0.0  # a single control row cannot appear in every training split
        cols = dict(data.columns)
        cols["A"] = a
        lopsided = Dataset(data.schema, cols)
        with pytest.raises(DegenerateFoldError, match="missing level"):
            one_step_estimate(builtin_spec("ate"), lopsided,
                              EstimatorSettings(min_rows_per_fold=10),
                              folds=3, seed=0)


class TestOrthogonalityDiagnostics:
    @pytest.mark.parametrize("name", ["ate", "att_control_mean"])
    def test_shared_basis_means_vanish(self, discrete_data, name):
        spec = builtin_spec(name)
        alphas = fit_sequential(spec, discrete_data, basis_policy="saturated",
                                ridge=0.0)
        nuisances = fit_all_stages(spec, discrete_data, basis_policy="saturated",
                                   ridge=0.0, outcome_family="least_squares")
        for row in verify_orthogonality(spec, discrete_data, alphas, nuisances):
            assert row.shared_basis
            assert row.within_tol, row

    def test_mismatched_bases_reported_not_asserted(self, discrete_data):
        spec = builtin_spec("ate")
        alphas = fit_sequential(spec, discrete_data, basis_policy="saturated",
                                ridge=0.0)
        nuisances = fit_all_stages(spec, discrete_data, basis_policy="intercept",
                                   ridge=0.0, outcome_family="least_squares")
        rows = verify_orthogonality(spec, discrete_data, alphas, nuisances)
        assert not rows[0].shared_basis
        assert abs(rows[0].mean) > 1e-6  # diagnostic only, no exception


# A setting that would silently corrupt an estimate is refused up front: a
# non-positive clip replaces every weight, a level outside (0, 1) has no
# interval, and a negative or NaN ridge is no penalty.
def _ate_with(discrete_data, **settings):
    return one_step_estimate(builtin_spec("ate"), discrete_data, EstimatorSettings(**settings))


def _basis(discrete_data):
    return make_basis("default", ("A", "W"), discrete_data)


BAD_SETTINGS = [
    ("negative clip", lambda d: EstimatorSettings(clip=-1.0)),
    ("zero clip", lambda d: EstimatorSettings(clip=0.0)),
    ("infinite clip", lambda d: EstimatorSettings(clip=float("inf"))),
    ("nan clip", lambda d: EstimatorSettings(clip=float("nan"))),
    ("zero level", lambda d: EstimatorSettings(level=0.0)),
    ("level above one", lambda d: EstimatorSettings(level=1.5)),
    ("nan level", lambda d: EstimatorSettings(level=float("nan"))),
    ("negative ridge", lambda d: _ate_with(d, ridge=-1e-3)),
    ("nan ridge", lambda d: _ate_with(d, ridge=float("nan"))),
    ("negative ridge, sieve", lambda d: fit_sieve(builtin_spec("ate").stage(2).fmap, d,
                                                  _basis(d), ridge=-1e-3)),
    ("nan ridge, logistic", lambda d: fit_logistic(_basis(d), d, d.column("Y"),
                                                   ridge=float("nan"))),
]


@pytest.mark.parametrize("make", [c[1] for c in BAD_SETTINGS], ids=[c[0] for c in BAD_SETTINGS])
def test_corrupting_settings_are_refused(discrete_data, make):
    with pytest.raises(SchemaError, match="clip|level|ridge"):
        make(discrete_data)


# unchecked, a fold size below 1 let empty folds through to NaN estimates, and
# a fractional degree ended in a bare TypeError inside the basis
@pytest.mark.parametrize("setting", [
    {"min_rows_per_fold": 0}, {"min_rows_per_fold": -3}, {"degree": 0}, {"degree": 1.5},
    {"degree": True}, {"degree": "2"},
], ids=repr)
def test_bad_fold_size_and_degree_are_refused(setting):
    with pytest.raises(SchemaError, match="min_rows_per_fold|degree"):
        EstimatorSettings(**setting)


# each of these ran with a silently wrong value (True as 1 fold or ridge 1, a
# fractional seed as its floor, a basis the network never reads) or failed only
# after every regression was fitted
BAD_ARGUMENTS = [
    ("fractional folds", {}, {"folds": 2.5}),
    ("boolean folds", {}, {"folds": True}),
    ("negative seed", {}, {"seed": -3}),
    ("fractional seed", {}, {"seed": 1.5}),
    ("boolean ridge", {"ridge": True}, {}),
    ("string ridge", {"ridge": "0.1"}, {}),
    ("boolean clip", {"clip": True}, {}),
    ("fractional min_rows_per_fold", {"min_rows_per_fold": 2.5}, {}),
    ("boolean level", {"level": True}, {}),
    ("unknown method", {"riesz_method": "foo"}, {}),
    ("unknown network basis", {"riesz_method": "mlp", "riesz_basis": "bogus"}, {}),
    ("unknown nuisance basis", {"nuisance_basis": "bogus"}, {}),
    ("unknown outcome family", {"outcome_family": "probit"}, {}),
]


@pytest.mark.parametrize("settings,call", [c[1:] for c in BAD_ARGUMENTS],
                         ids=[c[0] for c in BAD_ARGUMENTS])
def test_bad_arguments_are_refused_before_any_fit(settings, call, discrete_data, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before the arguments were checked")

    for name in ("FoldDesigns", "fit_folds", "fit_sequential", "_fit_networks"):
        monkeypatch.setattr(estimator, name, no_fit)
    with pytest.raises(SchemaError, match="|".join({**settings, **call})):
        one_step_estimate(builtin_spec("ate"), discrete_data, EstimatorSettings(**settings),
                          **call)


# replicates=True ran one replicate, fractional counts ended in a TypeError and
# a negative seed in numpy's ValueError
BAD_BENCH_ARGUMENTS = [
    ("boolean replicates", {"replicates": True}, {}),
    ("fractional replicates", {"replicates": 2.5}, {}),
    ("zero n", {"n": 0}, {}),
    ("fractional folds", {"folds": 1.5}, {}),
    ("negative seed", {"seed": -1}, {}),
    ("fractional threads", {}, {"threads": 2.5}),
    ("zero threads", {}, {"threads": 0}),
]


@pytest.mark.parametrize("task,call", [c[1:] for c in BAD_BENCH_ARGUMENTS],
                         ids=[c[0] for c in BAD_BENCH_ARGUMENTS])
def test_bad_bench_arguments_are_refused_before_any_replicate(task, call, discrete_dgp,
                                                              monkeypatch):
    def no_replicate(*args):
        raise AssertionError("ran a replicate before the arguments were checked")

    monkeypatch.setattr(bench, "run_replicate", no_replicate)
    with pytest.raises(SchemaError, match="|".join({**task, **call})):
        run_task(BenchTask(discrete_dgp, builtin_spec("ate"),
                           **{"n": 200, "replicates": 2, "folds": 2, "seed": 1, **task}), **call)


def test_basis_policy_is_checked_without_conditioning_columns(discrete_data):
    # an empty conditioning set resolves to the intercept under every policy
    with pytest.raises(SchemaError, match="policy"):
        make_basis("bogus", (), discrete_data)


class TestCrossFitStatistical:
    def test_interval_covers_truth_on_easy_design(self, discrete_dgp):
        data = simulate(discrete_dgp, 20000, 77)
        truth = truth_oracle(builtin_spec("ate"), discrete_dgp)
        report = one_step_estimate(builtin_spec("ate"), data,
                                   EstimatorSettings(), folds=5, seed=77)
        assert abs(report.theta_hat - truth) <= 5 * report.std_error

    def test_contrast_headline_and_interval(self, appendix_dgp):
        data = simulate(appendix_dgp, 4000, 15)
        report = one_step_estimate(builtin_spec("nde"), data,
                                   EstimatorSettings(min_rows_per_fold=10),
                                   folds=5, seed=15)
        assert report.headline == report.contrast.difference
        width_hi = report.ci.hi - report.ci.lo
        width_diff = report.headline_ci.hi - report.headline_ci.lo
        assert width_diff > 0 and width_hi > 0


# An outer stage reads a', so the outcome regression and Q_2 are shared while
# Q_1 and both weights differ by arm: a key that ignored the chain below (or
# above) a stage would hand one arm the other arm's fit.
OUTER_CONTRAST_DOC = {
    "name": "outer_contrast",
    "contrast": [1.0, 0.0],
    "stages": [
        {"regress": "Y", "given": ["A", "M", "W"],
         "map": [{"coef": 1.0, "set": {"A": 1.0}}]},
        {"regress": "prev", "given": ["A", "W"],
         "map": [{"coef": 1.0, "set": {"A": "a'"}}]},
        {"regress": "prev", "given": [], "map": [{"coef": 1.0, "set": {}}]},
    ],
}


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestArmSharing:
    """Both arms of a contrast fit each shared stage once per fold, and every
    arm equals the same spec estimated on its own."""

    MLP = EstimatorSettings(riesz_method="mlp", mlp=MlpConfig(epochs=20))

    def _assert_arms_standalone(self, spec, data, settings):
        report = one_step_estimate(spec, data, settings, folds=5, seed=4)
        for value, arm in zip(spec.contrast, (report, report.contrast.other)):
            alone = one_step_estimate(spec.instantiate(value), data, settings,
                                      folds=5, seed=4)
            assert arm.theta_hat == alone.theta_hat
            assert arm.plug_in == alone.plug_in
            assert np.array_equal(arm.eif_values, alone.eif_values)
            assert arm.per_fold == alone.per_fold

    def test_sieve_nde_arms_equal_standalone(self, appendix_data):
        self._assert_arms_standalone(builtin_spec("nde"), appendix_data,
                                     EstimatorSettings())

    def test_mlp_nde_arms_equal_standalone(self, appendix_dgp):
        self._assert_arms_standalone(builtin_spec("nde"), simulate(appendix_dgp, 300, 6),
                                     self.MLP)

    @pytest.mark.parametrize("settings", [EstimatorSettings(), MLP], ids=["sieve", "mlp"])
    def test_outer_contrast_arms_equal_standalone(self, appendix_data, settings):
        self._assert_arms_standalone(spec_from_document(OUTER_CONTRAST_DOC),
                                     appendix_data, settings)

    def test_nde_fit_counts(self, appendix_data, monkeypatch, tmp_path):
        logistic = _count_calls(monkeypatch, nuisance, "fit_logistic")
        one_step_estimate(builtin_spec("nde"), appendix_data, folds=5, seed=4)
        # one pooled outcome regression, from which every fold's fit steps, not one per arm
        assert len(logistic) == 1
        # networks may train in forked workers, so each call appends its pid to a file
        log, fit_mlp = tmp_path / "fit_mlp.log", riesz.fit_mlp

        def logged(*args, **kwargs):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return fit_mlp(*args, **kwargs)

        monkeypatch.setattr(riesz, "fit_mlp", logged)
        for workers in (1, 2):
            monkeypatch.setattr(data_module, "fork_workers", lambda folds: workers)
            log.write_text("")
            one_step_estimate(builtin_spec("nde"), appendix_data, self.MLP, folds=5, seed=4)
            pids = log.read_text().split()
            assert len(pids) == 15  # the stage-2 weight once, the stage-3 weight per arm
            assert str(os.getpid()) in pids and len(set(pids)) == workers

    def test_single_estimand_fit_counts(self, discrete_data, monkeypatch):
        calls = [_count_calls(monkeypatch, nuisance, "fit_logistic"),
                 _count_calls(monkeypatch, nuisance, "fit_least_squares"),
                 _count_calls(monkeypatch, riesz, "fit_sieve")]
        one_step_estimate(builtin_spec("ate"), discrete_data, folds=5, seed=4)
        assert [len(c) for c in calls] == [1, 5, 5]  # the logistic one is the pooled fit

    def test_nde_design_count(self, appendix_data, monkeypatch):
        # only the observed stage-3, stage-2 and intercept designs, once each:
        # map terms act on the coefficients, so no assigned design is formed
        designs = _count_calls(monkeypatch, Basis, "design")
        one_step_estimate(builtin_spec("nde"), appendix_data, folds=5, seed=4)
        assert len(designs) == 3

    def test_memo_never_hands_back_a_fit_made_under_other_settings(self, appendix_data):
        # every call below reads one workspace's memo; each must equal the same
        # call on fresh designs, so a key that leaves out a setting fails
        spec = builtin_spec("nde").instantiate(1.0)
        order, bounds = _fold_order(spec, appendix_data, 3, 4, 50)
        shared = FoldDesigns(appendix_data, order, bounds)
        riesz_settings = [{"ridge": None, "mlp_config": MlpConfig(epochs=5)},
                          {"ridge": 0.0}, {"ridge": 0.0, "degree": 3},
                          {"ridge": 0.0, "basis_policy": "intercept"},
                          {"method": "mlp", "mlp_config": MlpConfig(epochs=5)},
                          {"method": "mlp", "mlp_config": MlpConfig(epochs=6)}]
        for kwargs in riesz_settings:
            for v in (0, 1):
                got = fit_sequential(spec, shared.fold(v), **kwargs)
                want = fit_sequential(spec, FoldDesigns(appendix_data, order, bounds).fold(v),
                                      **kwargs)
                for a, b in zip(got, want):
                    assert np.array_equal(a(appendix_data.columns), b(appendix_data.columns))
        nuisance_settings = [{}, {"outcome_family": "least_squares"},
                             {"outcome_family": "least_squares", "ridge": 0.0},
                             {"outcome_family": "logistic"}, {"degree": 3},
                             {"basis_policy": "intercept"}]
        for kwargs in nuisance_settings:
            got, _ = fit_folds(spec, shared, **kwargs)
            want, _ = fit_folds(spec, FoldDesigns(appendix_data, order, bounds), **kwargs)
            for a, b in zip(sum(got, []), sum(want, [])):
                assert a.family == b.family and np.array_equal(a.coef, b.coef)


def _report_json(spec, data, settings, folds, workers, monkeypatch):
    """The estimate's report with the networks trained by ``workers`` fold
    workers (1 = serial, in process)."""
    monkeypatch.setattr(data_module, "fork_workers", lambda folds: workers)
    report = one_step_estimate(spec, data, settings, folds=folds, seed=3)
    assert multiprocessing.active_children() == []
    return json.dumps(report.to_dict())


def _forks_during_estimate(args):
    """(forks, report) of an estimate run in a process-pool worker."""
    forks = []
    os.register_at_fork(before=lambda: forks.append(1))
    return len(forks), json.dumps(one_step_estimate(*args).to_dict())


class TestForkedNetworkFolds:
    """Every fold's networks train in forked workers when more than one core
    is usable; the reports equal the serial path's byte for byte, errors are
    the serial path's, and no worker outlives the estimate."""

    SPECS = {"nde": builtin_spec("nde"), "ate": builtin_spec("ate"),
             "outer_contrast": spec_from_document(OUTER_CONTRAST_DOC)}

    @pytest.mark.parametrize("folds", [2, 5])
    @pytest.mark.parametrize("batch", [None, 128], ids=["full", "batch128"])
    @pytest.mark.parametrize("name", list(SPECS))
    def test_reports_equal_serial(self, appendix_dgp, discrete_dgp, name, batch, folds,
                                  monkeypatch):
        data = simulate(discrete_dgp if name == "ate" else appendix_dgp, 500, 8)
        settings = EstimatorSettings(riesz_method="mlp", min_rows_per_fold=50,
                                     mlp=MlpConfig(epochs=25, batch_size=batch, seed=folds))
        serial, forked = (_report_json(self.SPECS[name], data, settings, folds, workers,
                                       monkeypatch) for workers in (1, 2))
        assert forked == serial

    @hypothesis_settings(max_examples=8, deadline=None, derandomize=True)
    @given(layers=st.integers(1, 3), width=st.integers(1, 6), epochs=st.integers(0, 12),
           batch=st.one_of(st.none(), st.integers(8, 200)), seed=st.integers(0, 2**31),
           rate=st.floats(1e-4, 0.1))
    def test_random_configs_equal_serial(self, layers, width, epochs, batch, seed, rate):
        data = simulate(DiscreteDgp(), 240, 5)
        settings = EstimatorSettings(riesz_method="mlp", min_rows_per_fold=40, mlp=MlpConfig(
            hidden_layers=layers, width=width, epochs=epochs, batch_size=batch, seed=seed,
            learning_rate=rate))
        with pytest.MonkeyPatch.context() as patch:
            serial, forked = (_report_json(builtin_spec("ate"), data, settings, 3, workers,
                                           patch) for workers in (1, 2))
        assert forked == serial

    def test_divergence_in_a_worker_raises_as_serial(self, appendix_data, monkeypatch):
        settings = EstimatorSettings(riesz_method="mlp",
                                     mlp=MlpConfig(learning_rate=1e150, epochs=30))
        raised = []
        for workers in (1, 2):
            with pytest.raises(TrainingDivergedError) as err:
                _report_json(builtin_spec("nde"), appendix_data, settings, 5, workers,
                             monkeypatch)
            raised.append((type(err.value), str(err.value)))
            assert multiprocessing.active_children() == []
        assert raised[0] == raised[1]

    @pytest.mark.parametrize("lr,code", [("0.01", 0), ("1e150", 4)], ids=["ok", "diverged"])
    def test_cli_exit_code_equals_serial(self, tmp_path, monkeypatch, lr, code):
        from rieszreg.cli import main
        data = tmp_path / "d.csv"
        assert main(["simulate", "--dgp", "appendix", "--n", "400", "--seed", "2",
                     "--out", str(data)]) == 0
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr(data_module, "fork_workers", lambda folds: workers)
            out = tmp_path / "r.json"  # the report hashes the command line
            assert main(["estimate", "--data", str(data), "--spec", "nde", "--method", "mlp",
                         "--mlp-epochs", "20", "--mlp-lr", lr, "--folds", "4", "--seed", "2",
                         "--out", str(out)]) == code
            outputs.append(out.read_bytes() if code == 0 else None)
            assert multiprocessing.active_children() == []
        assert outputs[0] == outputs[1]

    def test_a_failed_fork_leaves_the_folds_serial(self, appendix_dgp, monkeypatch):
        args = (builtin_spec("nde"), simulate(appendix_dgp, 300, 4),
                EstimatorSettings(riesz_method="mlp", mlp=MlpConfig(epochs=10)), 3)
        serial = _report_json(*args, 1, monkeypatch)

        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        assert _report_json(*args, 2, monkeypatch) == serial

    def test_a_dead_worker_ends_the_cli_with_exit_5(self, tmp_path, monkeypatch, capsys):
        from rieszreg.cli import main
        data = tmp_path / "d.csv"
        assert main(["simulate", "--dgp", "appendix", "--n", "400", "--seed", "2",
                     "--out", str(data)]) == 0
        parent, fit_mlp = os.getpid(), riesz.fit_mlp

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(9)
            return fit_mlp(*args, **kwargs)

        monkeypatch.setattr(riesz, "fit_mlp", dying)
        monkeypatch.setattr(data_module, "fork_workers", lambda folds: 2)
        capsys.readouterr()
        assert main(["estimate", "--data", str(data), "--spec", "nde", "--method", "mlp",
                     "--mlp-epochs", "5", "--folds", "4", "--seed", "2",
                     "--out", str(tmp_path / "r.json")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error (io): forked child ended") and "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_estimate_in_a_pool_worker_forks_nothing(self, appendix_dgp, monkeypatch):
        args = (builtin_spec("nde"), simulate(appendix_dgp, 300, 4),
                EstimatorSettings(riesz_method="mlp", mlp=MlpConfig(epochs=10)), 3, 3)
        with ProcessPoolExecutor(1) as pool:
            forks, report = pool.submit(_forks_during_estimate, args).result(timeout=300)
        assert forks == 0
        assert report == _report_json(*args[:4], 1, monkeypatch)

    def test_benchmark_replicates_equal_serial(self, appendix_dgp):
        task = BenchTask(appendix_dgp, builtin_spec("nde"), n=300, replicates=2, folds=3,
                         seed=5, settings=EstimatorSettings(riesz_method="mlp",
                                                            mlp=MlpConfig(epochs=10)))
        rows = [[{k: v for k, v in row.items() if k != "seconds"}
                 for row in run_task(task, threads=threads)] for threads in (1, 2)]
        assert rows[0] == rows[1]


def _reference_cross_fit(spec, data, settings, folds, seed):
    """A cross-fit estimate built fold by fold from training and held-out
    subsets and the one-dataset fitters: (theta_hat, plug_in, eif_values,
    per-fold plug-in, outermost mean and Riesz losses)."""
    fold_ids = np.empty(data.n, dtype=np.int64)
    fold_ids[substream(seed, 1).permutation(data.n)] = np.arange(data.n) % folds
    tail, alpha1, next_mapped, plug = (np.zeros(data.n) for _ in range(4))
    per_fold = []
    for v in range(folds):
        test_idx = np.flatnonzero(fold_ids == v)
        train = data.subset(np.flatnonzero(fold_ids != v) if folds > 1 else test_idx)
        nuisances = fit_all_stages(spec, train, settings.nuisance_basis, settings.degree,
                                   settings.ridge, settings.outcome_family)
        alphas = fit_sequential(spec, train, basis_policy=settings.riesz_basis,
                                degree=settings.degree, ridge=settings.ridge)
        parts = _stage_values(spec, alphas, nuisances, data.subset(test_idx))
        raw_mean = float(np.mean(parts.alpha1))
        alpha1[test_idx] = parts.alpha1 / raw_mean
        tail[test_idx] = sum(values for _, values in parts.tail) if parts.tail else 0.0
        next_mapped[test_idx] = parts.next_mapped
        plug[test_idx] = parts.plug_values
        losses = [a.fitted_loss for a in alphas if a.fitted_loss is not None]
        per_fold.append([float(np.mean(parts.plug_values)), raw_mean] + losses)
    plug_in = float(np.mean(plug))
    eif = tail + alpha1 * (next_mapped - plug_in)
    return plug_in + float(np.mean(eif)), plug_in, eif, per_fold


class TestFoldBlockParity:
    """The fold-block engine (designs evaluated once on fold-sorted rows,
    statistics summed over fold blocks, held-out values sliced from held
    designs) equals a cross-fit assembled from per-fold subsets."""

    CASES = [("mean_treated", "saturated"), ("ate", "saturated"),
             ("att_control_mean", "saturated"), ("ate", "default"), ("nde", "default")]

    # a 7-row chunk splits every fold block into many pieces, as n > CHUNK would
    @pytest.mark.parametrize("folds,chunk", [(f, c) for c in (basis_module.CHUNK, 7)
                                             for f in (1, 2, 5)],
                             ids=["1", "2", "5", "1-chunk7", "2-chunk7", "5-chunk7"])
    @pytest.mark.parametrize("ridge", [None, 0.0], ids=["default_ridge", "ridge0"])
    @pytest.mark.parametrize("name,basis", CASES, ids=[f"{n}-{b}" for n, b in CASES])
    def test_matches_per_fold_reference(self, discrete_dgp, appendix_dgp, name, basis,
                                        ridge, folds, chunk, monkeypatch):
        monkeypatch.setattr(basis_module, "CHUNK", chunk)
        dgp = appendix_dgp if name == "nde" else discrete_dgp
        data = simulate(dgp, 1000, 11)
        settings = EstimatorSettings(riesz_basis=basis, nuisance_basis=basis, ridge=ridge)
        spec = builtin_spec(name)
        report = one_step_estimate(spec, data, settings, folds=folds, seed=11)
        arms = [spec] if not spec.is_contrast else [spec.instantiate(a) for a in spec.contrast]
        reports = [report] if not spec.is_contrast else [report, report.contrast.other]
        for arm, got in zip(arms, reports):
            theta, plug_in, eif, per_fold = _reference_cross_fit(arm, data, settings, folds, 11)
            assert got.theta_hat == pytest.approx(theta, rel=1e-10)
            assert got.plug_in == pytest.approx(plug_in, rel=1e-10)
            np.testing.assert_allclose(got.eif_values, eif, rtol=1e-10,
                                       atol=1e-10 * np.max(np.abs(eif)))
            got_folds = [[f["plug_in"], f["alpha1_mean_raw"]]
                         + [x for x in f["riesz_fitted_loss"] if x is not None]
                         for f in got.per_fold]
            np.testing.assert_allclose(got_folds, per_fold, rtol=1e-10)
