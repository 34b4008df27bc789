import math

import numpy as np
import pytest

from rieszreg import (
    AppendixDgp,
    Basis,
    EstimatorSettings,
    Feature,
    NonConvergenceError,
    SchemaError,
    apply_map,
    builtin_spec,
    default_basis,
    fit_all_stages,
    fit_logistic,
    one_step_estimate,
    simulate,
    substream,
)
from rieszreg.basis import INTERCEPT, FoldDesigns
from rieszreg.bench import replicate_seed
from rieszreg.data import Column, Dataset
from rieszreg.estimator import _fold_order
from rieszreg.nuisance import LOGISTIC_TOL


def _linear_basis(*names):
    return Basis((INTERCEPT,) + tuple(Feature((n,), (1,)) for n in names))


class TestLogistic:
    def test_recovers_outcome_link_coefficients(self, appendix_dgp):
        data = simulate(appendix_dgp, 20000, 17)
        basis = _linear_basis("A", "M", "W")
        fit = fit_logistic(basis, data, data.column("Y"), ridge=0.0)
        truth = {"1": -math.log(5), "A": math.log(2), "M": math.log(3),
                 "W": -math.log(1.2)}
        # asymptotic standard errors from the observed information
        design = basis.design(data)
        probs = fit(data.columns)
        info = (design * (probs * (1 - probs))[:, None]).T @ design / data.n
        se = np.sqrt(np.diag(np.linalg.inv(info)) / data.n)
        for j, label in enumerate(basis.labels):
            assert abs(fit.coef[j] - truth[label]) <= 4 * se[j], label

    def test_predictions_strictly_inside_unit_interval(self, appendix_data):
        basis = _linear_basis("A", "M", "W")
        fit = fit_logistic(basis, appendix_data, appendix_data.column("Y"),
                           ridge=None)
        probs = fit(appendix_data.columns)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_iteration_cap_raises(self, appendix_data):
        basis = _linear_basis("A", "M", "W")
        with pytest.raises(NonConvergenceError, match="did not converge in 2 iterations"):
            fit_logistic(basis, appendix_data, appendix_data.column("Y"),
                         ridge=0.0, max_iter=2)

    def test_separable_data_saturates(self):
        # perfectly separated outcomes drive coefficients to the float64
        # saturation point; the score still vanishes there, so this is a
        # convergence, not an error
        x = substream(3).normal(size=60)
        schema = (Column("X", "covariate", "real"), Column("Y", "outcome", "binary"))
        data = Dataset(schema, {"X": x, "Y": (x > 0).astype(float)})
        fit = fit_logistic(_linear_basis("X"), data, data.column("Y"), ridge=0.0)
        assert abs(fit.coef[1]) > 50

    @pytest.mark.parametrize("task_seed,rep", [(87, 16), (114, 10), (419171175, 13)])
    def test_gradient_floor_inputs_converge(self, task_seed, rep):
        # each of these stalled just above tol: the line search could no longer
        # see a decrease below the objective's rounding
        seed = replicate_seed(task_seed, rep)
        data = simulate(AppendixDgp(), 1000, seed)
        report = one_step_estimate(builtin_spec("nde"), data, EstimatorSettings(),
                                   folds=5, seed=seed)
        assert np.isfinite(report.headline)
        basis = default_basis(("A", "M", "W"), data)
        fit = fit_logistic(basis, data, data.column("Y"), ridge=None)
        grad = (basis.design(data).T @ (fit(data.columns) - data.column("Y")) / data.n
                + fit.ridge * fit.coef)
        assert np.max(np.abs(grad)) < LOGISTIC_TOL

    def test_gradient_floor_input_at_scale_converges_on_every_fold(self):
        # the n = 200k benchmark input that stalled just above tol; the fits
        # read fold blocks of the held design and reuse design @ step in the
        # line search, which moves the rounding that stall came from
        seed = replicate_seed(707, 4)
        data = simulate(AppendixDgp(), 200_000, seed)
        spec = builtin_spec("nde")
        order, bounds = _fold_order(spec, data, 5, seed, 50)
        designs = FoldDesigns(data, order, bounds)
        basis = default_basis(("A", "M", "W"), data)
        y = designs.data.column("Y")
        for v in range(5):
            fit = fit_logistic(basis, designs.fold(v), y, ridge=None)
            train = data.subset(np.sort(np.delete(order, designs.block(v))))
            grad = (basis.design(train).T @ (fit(train.columns) - train.column("Y"))
                    / train.n + fit.ridge * fit.coef)
            assert np.max(np.abs(grad)) < LOGISTIC_TOL, v

    def test_requires_one_target_per_row(self, appendix_data):
        y = appendix_data.column("Y")
        for target in (np.concatenate([y, y[:3]]), y[:-1]):
            with pytest.raises(SchemaError, match="shape"):
                fit_logistic(_linear_basis("A"), appendix_data, target, ridge=0.0)

    def test_requires_binary_target(self, appendix_data):
        with pytest.raises(SchemaError, match="0/1"):
            fit_logistic(_linear_basis("A"), appendix_data,
                         appendix_data.column("M"), ridge=0.0)


class TestStageFitting:
    def test_saturated_single_stage_equals_cell_mean(self, discrete_data):
        spec = builtin_spec("mean_treated")
        fits = fit_all_stages(spec, discrete_data, basis_policy="saturated", ridge=0.0,
                              outcome_family="least_squares")
        a, y = discrete_data.column("A"), discrete_data.column("Y")
        predicted = apply_map(spec.stage(1).fmap, fits[0], discrete_data)
        np.testing.assert_allclose(predicted, y[a == 1.0].mean(), atol=1e-10)

    def test_constant_previous_stage_zeroes_difference_pseudo_outcome(self,
                                                                      discrete_data):
        # a constant outcome fits a constant Q_2, whose treated-minus-control
        # pseudo-outcome is zero on every row
        schema = tuple(Column("Y", "outcome") if col.name == "Y" else col
                       for col in discrete_data.schema)
        data = Dataset(schema, {**discrete_data.columns, "Y": np.full(discrete_data.n, 3.3)})
        outer, _ = fit_all_stages(builtin_spec("ate"), data, ridge=0.0)
        assert outer.family == "least_squares"
        np.testing.assert_allclose(outer(data.columns), 0.0, atol=1e-12)

    def test_families_are_checked_before_fitting(self, discrete_data):
        with pytest.raises(SchemaError, match="unknown nuisance family"):
            fit_all_stages(builtin_spec("ate"), discrete_data, outcome_family="probit")

    def test_binary_outcome_defaults_to_logistic(self, discrete_data):
        fits = fit_all_stages(builtin_spec("ate"), discrete_data)
        assert fits[1].family == "logistic"
        assert fits[0].family == "least_squares"

    def test_least_squares_residuals_orthogonal_to_features(self, appendix_data):
        spec = builtin_spec("nde").instantiate(1.0)
        fits = fit_all_stages(spec, appendix_data, ridge=0.0,
                              outcome_family="least_squares")
        basis = default_basis(("A", "M", "W"), appendix_data, degree=2)
        residual = appendix_data.column("Y") - fits[2](appendix_data.columns)
        gaps = basis.design(appendix_data).T @ residual / appendix_data.n
        assert np.max(np.abs(gaps)) <= 1e-10
        # stage 2: pseudo-outcome residual orthogonal to its own basis
        pseudo = apply_map(spec.stage(3).fmap, fits[2], appendix_data)
        residual2 = pseudo - fits[1](appendix_data.columns)
        basis2 = default_basis(("A", "W"), appendix_data, degree=2)
        gaps2 = basis2.design(appendix_data).T @ residual2 / appendix_data.n
        assert np.max(np.abs(gaps2)) <= 1e-10


class TestPlugInConsistency:
    def test_saturated_plug_in_equals_enumeration(self, discrete_data):
        spec = builtin_spec("ate")
        fits = fit_all_stages(spec, discrete_data, basis_policy="saturated",
                              ridge=0.0, outcome_family="least_squares")
        plug = apply_map(spec.stage(1).fmap, fits[0], discrete_data).mean()
        a, w, y = (discrete_data.column(c) for c in ("A", "W", "Y"))
        enumeration = sum(
            np.mean(w == wv) * (y[(a == 1) & (w == wv)].mean()
                                - y[(a == 0) & (w == wv)].mean())
            for wv in (0.0, 1.0))
        assert plug == pytest.approx(enumeration, abs=1e-10)

    def test_two_stage_subgroup_pipeline_matches_enumeration(self, discrete_data):
        spec = builtin_spec("att_control_mean")
        fits = fit_all_stages(spec, discrete_data, basis_policy="saturated",
                              ridge=0.0, outcome_family="least_squares")
        value = apply_map(spec.stage(1).fmap, fits[0], discrete_data).mean()
        a, w, y = (discrete_data.column(c) for c in ("A", "W", "Y"))
        enumeration = sum(
            np.mean((w == wv) & (a == 1)) / a.mean() * y[(a == 0) & (w == wv)].mean()
            for wv in (0.0, 1.0))
        assert value == pytest.approx(enumeration, abs=1e-10)


class TestPredictMapped:
    """A map applied row by row to a fitted function."""

    def test_difference_map_on_treatment_identity(self, discrete_data):
        fit = lambda cols: cols["A"]
        fmap = builtin_spec("ate").stage(2).fmap
        np.testing.assert_allclose(apply_map(fmap, fit, discrete_data), 1.0)

    def test_arm_evaluation_map(self, appendix_data):
        spec = builtin_spec("nde").instantiate(1.0)
        fit = lambda cols: cols["A"] * 10 + cols["M"]
        got = apply_map(spec.stage(3).fmap, fit, appendix_data)
        np.testing.assert_allclose(got, 10 + appendix_data.column("M"))

    def test_untouched_variable_passes_through(self, discrete_data):
        fmap = builtin_spec("att_control_mean").stage(2).fmap
        got = apply_map(fmap, lambda cols: cols["W"], discrete_data)
        np.testing.assert_allclose(got, discrete_data.column("W"))
