import json

import numpy as np
import pytest

from rieszreg import (
    DegenerateFoldError,
    Dataset,
    EstimatorSettings,
    NonFiniteEifError,
    SchemaError,
    assemble_eif,
    builtin_spec,
    closed_form_representer,
    fit_all_stages,
    fit_sequential,
    one_step_estimate,
    simulate,
    true_nuisance,
    truth_oracle,
    verify_orthogonality,
)
from rieszreg import Basis, nuisance, riesz, substream
from rieszreg.estimands import spec_from_document
from rieszreg.estimator import _stage_values
from rieszreg.mlp import MlpConfig
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

    def test_nde_fit_counts(self, appendix_data, monkeypatch):
        logistic = _count_calls(monkeypatch, nuisance, "fit_logistic")
        one_step_estimate(builtin_spec("nde"), appendix_data, folds=5, seed=4)
        assert len(logistic) == 5  # one outcome regression per fold, not per arm
        mlp = _count_calls(monkeypatch, riesz, "fit_mlp")
        one_step_estimate(builtin_spec("nde"), appendix_data, self.MLP, folds=5, seed=4)
        assert len(mlp) == 15  # the stage-2 weight once, the stage-3 weight per arm

    def test_single_estimand_fit_counts(self, discrete_data, monkeypatch):
        calls = [_count_calls(monkeypatch, nuisance, "fit_logistic"),
                 _count_calls(monkeypatch, nuisance, "fit_least_squares"),
                 _count_calls(monkeypatch, riesz, "fit_sieve")]
        one_step_estimate(builtin_spec("ate"), discrete_data, folds=5, seed=4)
        assert [len(c) for c in calls] == [5, 5, 5]

    def test_nde_design_count(self, appendix_data, monkeypatch):
        # each (basis, assignments) design once per estimate: the observed
        # stage-3, stage-2 and intercept designs and the stage-2 A=0 design
        # held, each arm's stage-3 override streamed once per fold block
        designs = _count_calls(monkeypatch, Basis, "design")
        one_step_estimate(builtin_spec("nde"), appendix_data, folds=5, seed=4)
        assert len(designs) <= 20


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
        losses = [a.fitted_loss for a in alphas if hasattr(a, "fitted_loss")]
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

    @pytest.mark.parametrize("folds", [1, 2, 5])
    @pytest.mark.parametrize("ridge", [None, 0.0], ids=["default_ridge", "ridge0"])
    @pytest.mark.parametrize("name,basis", CASES, ids=[f"{n}-{b}" for n, b in CASES])
    def test_matches_per_fold_reference(self, discrete_dgp, appendix_dgp, name, basis,
                                        ridge, folds):
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
