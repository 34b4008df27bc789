import json

import numpy as np
import pytest

from rieszreg import (
    DiscreteDgp,
    MlpConfig,
    SchemaError,
    SingularGramError,
    builtin_spec,
    closed_form_representer,
    fit_sequential,
    fit_sieve,
    parse_spec,
    representation_residuals,
    riesz_loss,
    saturated_basis,
    simulate,
    substream,
    truth_oracle,
)
from rieszreg.basis import intercept_basis
from rieszreg.riesz import MlpRieszFit
from conftest import mc_se


def _empirical_propensity(data):
    a, w = data.column("A"), data.column("W")
    return np.where(w == 1.0, a[w == 1.0].mean(), a[w == 0.0].mean())


class TestLoss:
    def test_constant_function_under_difference_map(self, discrete_data):
        fmap = builtin_spec("ate").stage(2).fmap
        for c in (0.0, 1.7, -2.2):
            loss = riesz_loss(lambda cols: np.full(discrete_data.n, c), fmap,
                              discrete_data)
            assert loss == pytest.approx(c ** 2, abs=1e-12)

    def test_indicator_under_subgroup_map(self):
        # loss(f) = mean[f(A)^2] - 2*f(1) = empirical P(A=1) - 2 for f = 1{A=1}
        dgp = DiscreteDgp(propensity=(0.5, 0.5))
        data = simulate(dgp, 1_000_000, 31)
        fmap = builtin_spec("mean_treated").stage(1).fmap
        loss = riesz_loss(lambda cols: (cols["A"] == 1.0).astype(float), fmap, data)
        assert abs(loss - (-1.5)) <= 4 * np.sqrt(0.25 / data.n)

    def test_true_weight_attains_negative_second_moment(self, discrete_dgp,
                                                        big_discrete_data):
        fmap = builtin_spec("ate").stage(2).fmap
        alpha = closed_form_representer("ate", discrete_dgp)
        loss = riesz_loss(alpha, fmap, big_discrete_data)
        p = discrete_dgp.propensity
        p_w = discrete_dgp.p_confounder
        second_moment = ((1 - p_w) * (1 / p[0] + 1 / (1 - p[0]))
                         + p_w * (1 / p[1] + 1 / (1 - p[1])))
        per_row = (alpha(big_discrete_data.columns) ** 2
                   - 2 * (1 / _empirical_propensity(big_discrete_data)
                          + 1 / (1 - _empirical_propensity(big_discrete_data))))
        assert abs(loss - (-second_moment)) <= 4 * mc_se(per_row)


class TestSieve:
    def test_first_order_conditions(self, appendix_data):
        spec = builtin_spec("nde").instantiate(1.0)
        for ridge in (0.0, None, 0.05):
            fit = fit_sieve(spec.stage(3).fmap, appendix_data,
                            _rich_basis(appendix_data), ridge=ridge)
            res = representation_residuals(fit, spec.stage(3).fmap, appendix_data)
            assert np.max(np.abs(res)) <= 1e-10

    def test_intercept_only_difference_map_gives_zero(self, discrete_data):
        fmap = builtin_spec("ate").stage(2).fmap
        fit = fit_sieve(fmap, discrete_data, intercept_basis(), ridge=0.0)
        np.testing.assert_allclose(fit.coef, 0.0, atol=1e-15)

    def test_saturated_recovery_subgroup(self, discrete_data):
        fmap = builtin_spec("mean_treated").stage(1).fmap
        fit = fit_sieve(fmap, discrete_data, saturated_basis(("A",), discrete_data),
                        ridge=0.0)
        a = discrete_data.column("A")
        np.testing.assert_allclose(fit(discrete_data.columns), a / a.mean(), atol=1e-8)

    def test_saturated_recovery_difference(self, discrete_data):
        fmap = builtin_spec("ate").stage(2).fmap
        fit = fit_sieve(fmap, discrete_data, saturated_basis(("A", "W"), discrete_data),
                        ridge=0.0)
        a = discrete_data.column("A")
        prop = _empirical_propensity(discrete_data)
        np.testing.assert_allclose(fit(discrete_data.columns),
                                   a / prop - (1 - a) / (1 - prop), atol=1e-8)

    def test_saturated_recovery_weighted_subgroup(self, discrete_data):
        fits = fit_sequential(builtin_spec("att_control_mean"), discrete_data,
                              basis_policy="saturated", ridge=0.0)
        a = discrete_data.column("A")
        prop = _empirical_propensity(discrete_data)
        target = (1 - a) / a.mean() * prop / (1 - prop)
        np.testing.assert_allclose(fits[1](discrete_data.columns), target, atol=1e-8)

    def test_singular_gram_refused_with_hint(self, discrete_data):
        basis = saturated_basis(("A", "W"), discrete_data)
        degenerate = discrete_data.subset(discrete_data.column("A") == 1.0)
        with pytest.raises(SingularGramError, match="ridge"):
            fit_sieve(builtin_spec("ate").stage(2).fmap, degenerate, basis, ridge=0.0)

    def test_monotone_ridge(self, appendix_data):
        spec = builtin_spec("nde").instantiate(1.0)
        fmap = spec.stage(3).fmap
        basis = _rich_basis(appendix_data)
        losses = [fit_sieve(fmap, appendix_data, basis, ridge=lam).fitted_loss
                  for lam in (0.0, 1e-6, 1e-3, 1e-1, 1.0, 10.0)]
        assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_random_perturbations_never_improve(self, appendix_data):
        spec = builtin_spec("nde").instantiate(1.0)
        fmap = spec.stage(3).fmap
        basis = _rich_basis(appendix_data)
        ridge = 1e-3
        fit = fit_sieve(fmap, appendix_data, basis, ridge=ridge)

        def ridged(coefs):
            fn = lambda cols: basis.design(cols) @ coefs
            return riesz_loss(fn, fmap, appendix_data) + ridge * coefs @ coefs

        base = ridged(fit.coef)
        rng = substream(2718)
        for _ in range(100):
            direction = rng.standard_normal(basis.dim)
            direction /= np.linalg.norm(direction)
            assert ridged(fit.coef + 1e-3 * direction) >= base - 1e-12

    def test_fitted_loss_recomputable(self, appendix_data):
        spec = builtin_spec("nde").instantiate(1.0)
        weights = substream(5).uniform(0.5, 2.0, size=appendix_data.n)
        fit = fit_sieve(spec.stage(3).fmap, appendix_data, _rich_basis(appendix_data),
                        weights=weights)
        recomputed = (riesz_loss(fit, spec.stage(3).fmap, appendix_data, weights))
        assert fit.fitted_loss == pytest.approx(recomputed, abs=1e-12)


class TestSequential:
    def test_marginal_stage_weight_is_exactly_one(self, discrete_data):
        fits = fit_sequential(builtin_spec("ate"), discrete_data)
        np.testing.assert_array_equal(fits[0](discrete_data.columns),
                                      np.ones(discrete_data.n))

    def test_marginal_inner_stage_weight_is_fitted(self, discrete_data):
        # E[2 * E[Q(A=1, W)]]: the middle stage's weight represents f -> E[2 f]
        # over constants, so it is 2, and the outcome stage's weight doubles
        spec = parse_spec(json.dumps({"name": "twice", "stages": [
            {"regress": "Y", "given": ["A", "W"], "map": [{"coef": 1, "set": {"A": 1}}]},
            {"regress": "prev", "given": [], "map": [{"coef": 2, "set": {}}]},
            {"regress": "prev", "given": [], "map": [{"coef": 1, "set": {}}]}]}))
        outer, middle, inner = fit_sequential(spec, discrete_data, basis_policy="saturated",
                                              ridge=0.0)
        assert outer.coef.tolist() == [1.0] and outer.basis == intercept_basis()
        np.testing.assert_allclose(middle.coef, [2.0], rtol=1e-12)
        a = discrete_data.column("A")
        np.testing.assert_allclose(inner(discrete_data.columns),
                                   2 * a / _empirical_propensity(discrete_data), atol=1e-10)

    def test_control_stage_weight_target(self, appendix_dgp):
        data = simulate(appendix_dgp, 20000, 13)
        _, alpha2, _ = fit_sequential(builtin_spec("nde").instantiate(1.0), data, ridge=0.0)
        a, w = data.column("A"), data.column("W")
        control_share = np.where(w == 1.0, (1 - a)[w == 1.0].mean(),
                                 (1 - a)[w == 0.0].mean())
        np.testing.assert_allclose(alpha2(data.columns), (1 - a) / control_share,
                                   atol=1e-8)
        # close to the population form 1{A=0} / P(A=0|W) as well
        target = closed_form_representer("nde", appendix_dgp, stage=2)(data.columns)
        assert np.mean((alpha2(data.columns) - target) ** 2) < 1e-3

    def test_zero_weights_zero_fit(self, appendix_data):
        fmap = builtin_spec("nde").instantiate(1.0).stage(3).fmap
        fit = fit_sieve(fmap, appendix_data, _rich_basis(appendix_data), ridge=1e-6,
                        weights=np.zeros(appendix_data.n))
        np.testing.assert_allclose(fit(appendix_data.columns), 0.0, atol=1e-12)

    def test_arm_discrepancy_shrinks_with_n(self, appendix_dgp):
        eval_data = simulate(appendix_dgp, 4000, 900)
        target = closed_form_representer("nde", appendix_dgp, a_prime=1.0)(
            eval_data.columns)
        msd = []
        for n in (1000, 16000):
            _, _, alpha3 = fit_sequential(builtin_spec("nde").instantiate(1.0),
                                          simulate(appendix_dgp, n, 901), ridge=0.0)
            msd.append(np.mean((alpha3(eval_data.columns) - target) ** 2))
        assert msd[1] < msd[0]

    def test_contrast_spec_must_be_instantiated(self, appendix_data):
        with pytest.raises(SchemaError, match="instantiate"):
            fit_sequential(builtin_spec("nde"), appendix_data)


class TestMlpRiesz:
    def test_loss_approaches_sieve_minimum(self):
        data = simulate(DiscreteDgp(), 5000, 9)
        fmap = builtin_spec("ate").stage(2).fmap
        sieve = fit_sieve(fmap, data, saturated_basis(("A", "W"), data), ridge=0.0)
        from rieszreg import fit_mlp
        fit = fit_mlp(fmap, data, MlpConfig(learning_rate=0.05, epochs=1000, seed=4),
                      columns=("A", "W"))
        gap = (fit.fitted_loss - sieve.fitted_loss) / abs(sieve.fitted_loss)
        assert 0 <= gap < 0.05
        assert fit.loss_curve[-1] <= fit.loss_curve[0]

    def test_sequential_mlp_runs(self, appendix_dgp):
        data = simulate(appendix_dgp, 400, 3)
        spec = builtin_spec("nde").instantiate(1.0)
        fits = fit_sequential(spec, data, method="mlp",
                              mlp_config=MlpConfig(epochs=5, seed=1))
        assert isinstance(fits[2], MlpRieszFit)
        assert fits[2].loss_curve.shape == (6,)


def _rich_basis(data):
    from rieszreg import default_basis

    return default_basis(("A", "M", "W"), data, degree=2)


def test_weight_length_validated(discrete_data):
    fmap = builtin_spec("ate").stage(2).fmap
    with pytest.raises(SchemaError, match="weights"):
        riesz_loss(lambda c: c["A"], fmap, discrete_data, weights=np.ones(3))


def test_truth_oracle_anchor_for_sequential_tests(appendix_dgp):
    # the sequential fits target weights whose inner product with Y is theta
    theta = truth_oracle(builtin_spec("nde"), appendix_dgp)
    assert np.isfinite(theta)
