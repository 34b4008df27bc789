import numpy as np
import pytest

from rieszreg import (
    AppendixDgp,
    DGPS,
    Column,
    Dataset,
    DiscreteDgp,
    RieszregError,
    SchemaError,
    apply_map,
    builtin_spec,
    closed_form_representer,
    simulate,
    substream,
    true_nuisance,
    truth_oracle,
    truth_report,
)
from rieszreg.simulate import oracle_value
from conftest import mc_se


class TestSampling:
    def test_appendix_marginals_at_scale(self, big_appendix_data):
        n = big_appendix_data.n
        w = big_appendix_data.column("W")
        m = big_appendix_data.column("M")
        a = big_appendix_data.column("A")
        assert abs(w.mean() - 0.4) <= 3 * np.sqrt(0.4 * 0.6 / n)
        assert abs(a.mean() - 0.5) <= 3 * np.sqrt(0.25 / n)
        # E[M] = 0.6 + 0.05 * E[A] - 0.3 * E[W] = 0.505
        assert abs(m.mean() - 0.505) <= 3 * np.std(m) / np.sqrt(n)

    def test_determinism_bytes(self, tmp_path):
        one = simulate(AppendixDgp(), 5, 123)
        two = simulate(AppendixDgp(), 5, 123)
        for name in ("W", "A", "M", "Y"):
            np.testing.assert_array_equal(one.column(name), two.column(name))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        one.to_csv(p1)
        two.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("dgp,n,seed,digest", [
        (AppendixDgp, 1000, 0, "8791f51a704c47b5b26b0c709668b724e1d2b6d8afbd059fd50ec90f7cd099bd"),
        (AppendixDgp, 200000, 7, "490430395abefb08460203659f4a06151b684cb727b9840279219a0d02e22f6e"),
        (DiscreteDgp, 1000, 0, "32b18341e59ccf534e6a58d5d12a40c36c47db2482a6e286db270b7ba31c8b9c"),
        (DiscreteDgp, 200000, 7, "309b5c7fc876449ead40a758ad0e9baa00e0afb4096f5734f778838b0f975b80"),
    ])
    def test_draw_stream_is_pinned(self, dgp, n, seed, digest):
        # the Bernoulli draws compare uniforms with expit probabilities, so a
        # change of the link's rounding that flips any draw changes the digest
        assert simulate(dgp(), n, seed).sha256() == digest

    def test_substreams_differ_and_reproduce(self):
        a = substream(9, 0).random(4)
        b = substream(9, 1).random(4)
        assert not np.allclose(a, b)
        np.testing.assert_array_equal(a, substream(9, 0).random(4))

    def test_discrete_forced_propensity(self):
        dgp = DiscreteDgp(propensity=(0.5, 0.5))
        data = simulate(dgp, 1_000_000, 5)
        assert abs(data.column("A").mean() - 0.5) <= 0.0015

    def test_positivity_enforced_by_constructor(self):
        with pytest.raises(SchemaError, match="positivity"):
            DiscreteDgp(propensity=(0.0, 0.5))
        with pytest.raises(SchemaError, match="positivity"):
            DiscreteDgp(p_confounder=1.0)

    def test_additive_outcome_gives_unit_effect(self):
        dgp = DiscreteDgp(outcome_mean_table=((0.0, 0.0), (1.0, 1.0)))
        assert truth_oracle(builtin_spec("ate"), dgp) == pytest.approx(1.0, abs=1e-12)
        data = simulate(dgp, 20000, 3)
        a, y = data.column("A"), data.column("Y")
        assert y[a == 1].mean() - y[a == 0].mean() == pytest.approx(1.0, abs=1e-12)

    def test_invalid_sample_size(self):
        with pytest.raises(SchemaError):
            simulate(AppendixDgp(), 0, 1)

    # substream() would floor a float seed while the dataset records it unfloored
    @pytest.mark.parametrize("n,seed,says", [
        (2.5, 1, "sample size"), (True, 1, "sample size"), ("3", 1, "sample size"),
        (50, 1.5, "seed"), (50, -2, "seed"), (50, True, "seed"), (50, "1", "seed")])
    def test_refuses_non_integer_size_or_seed(self, n, seed, says):
        with pytest.raises(SchemaError, match=says):
            simulate(DiscreteDgp(), n, seed)

    def test_csv_round_trip(self, tmp_path):
        data = simulate(AppendixDgp(), 50, 77)
        path = tmp_path / "d.csv"
        data.to_csv(path)
        back = Dataset.from_csv(path)
        assert [c.to_dict() for c in back.schema] == [c.to_dict() for c in data.schema]
        for name in ("W", "A", "M", "Y"):
            np.testing.assert_array_equal(back.column(name), data.column(name))
        assert back.sha256() == data.sha256()

    def test_csv_round_trip_of_non_integer_levels(self, tmp_path):
        schema = (Column("W", "covariate", "categorical", (0.5, 1.5)),
                  Column("G", "covariate", "categorical", (-1, 0, 2)),
                  Column("A", "treatment", "binary"), Column("Y", "outcome", "real"))
        data = Dataset(schema, {"W": [1.5, 0.5, 1.5], "G": [2.0, -1.0, 0.0],
                                "A": [1.0, 0.0, 0.0], "Y": [0.25, -3.0, 1e-300]})
        path = tmp_path / "d.csv"
        data.to_csv(path)
        assert path.read_text().splitlines() == [
            "W,G,A,Y", "1.5,2,1,0.25", "0.5,-1,0,-3.0", "1.5,0,0,1e-300"]
        assert Dataset.from_csv(path).sha256() == data.sha256()


class TestTruthOracle:
    def test_linear_shift_of_outcome_means(self):
        dgp = DiscreteDgp(outcome_mean_table=((0.2, 0.2), (0.5, 0.5)))
        assert truth_oracle(builtin_spec("ate"), dgp) == pytest.approx(0.3, abs=1e-12)

    def test_constant_outcome_for_subgroup_mean(self):
        dgp = DiscreteDgp(outcome_mean_table=((0.37, 0.37), (0.37, 0.37)))
        got = truth_oracle(builtin_spec("att_control_mean"), dgp)
        assert got == pytest.approx(0.37, abs=1e-12)

    def test_mean_treated_matches_enumeration(self, discrete_dgp):
        got = truth_oracle(builtin_spec("mean_treated"), discrete_dgp)
        p_w = discrete_dgp.p_confounder
        p = discrete_dgp.propensity
        q = discrete_dgp.outcome_mean_table
        joint_treated = np.array([(1 - p_w) * p[0], p_w * p[1]])
        expected = (joint_treated[0] * q[1][0] + joint_treated[1] * q[1][1]) / joint_treated.sum()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_quadrature_doubling_agreement(self, appendix_dgp):
        report = truth_report(builtin_spec("nde"), appendix_dgp)
        assert report["quadrature"]["doubling_gap"] <= 1e-9
        assert report["quadrature"]["nodes"] == 64

    def test_oracle_is_the_checked_report_value(self, appendix_dgp):
        report = truth_report(builtin_spec("nde"), appendix_dgp)
        assert truth_oracle(builtin_spec("nde"), appendix_dgp) == report["theta"]
        report["quadrature"]["doubling_gap"] = 2e-9
        with pytest.raises(RieszregError, match="quadrature not converged: 64 vs 128 nodes"):
            oracle_value(report)

    def test_spec_referencing_absent_variable_errors(self, discrete_dgp):
        with pytest.raises(SchemaError, match="mediator"):
            truth_oracle(builtin_spec("nde"), discrete_dgp)

    def test_contrast_is_difference_of_arms(self, appendix_dgp):
        nde = builtin_spec("nde")
        hi = truth_oracle(nde.instantiate(1.0), appendix_dgp)
        lo = truth_oracle(nde.instantiate(0.0), appendix_dgp)
        assert truth_oracle(nde, appendix_dgp) == pytest.approx(hi - lo, abs=1e-12)

    def test_true_nuisance_matches_direct_integral(self, appendix_dgp):
        spec = builtin_spec("nde").instantiate(1.0)
        q3 = true_nuisance(spec, appendix_dgp, 3)
        cols = {"A": np.array([1.0]), "M": np.array([0.2]), "W": np.array([1.0])}
        np.testing.assert_allclose(q3(cols), appendix_dgp.outcome_mean(cols))
        # stage 2 at (a, w): quadrature of the arm-evaluated inner regression
        q2 = true_nuisance(spec, appendix_dgp, 2)
        x, wts = np.polynomial.hermite.hermgauss(96)
        mu = appendix_dgp.mediator_mean(0.0, 1.0)
        nodes = mu + np.sqrt(2.0) * x
        byhand = np.sum(wts / np.sqrt(np.pi) * appendix_dgp.outcome_mean(
            {"A": np.ones_like(nodes), "M": nodes, "W": np.ones_like(nodes)}))
        np.testing.assert_allclose(
            q2({"A": np.array([0.0]), "W": np.array([1.0])}), byhand, atol=1e-10)


class TestRepresenters:
    def test_balanced_design_values(self):
        dgp = DiscreteDgp(propensity=(0.5, 0.5))
        cols = {"A": np.array([1.0, 0.0]), "W": np.array([0.0, 1.0])}
        np.testing.assert_allclose(
            closed_form_representer("ate", dgp)(cols), [2.0, -2.0])
        np.testing.assert_allclose(
            closed_form_representer("mean_treated", dgp)(cols), [2.0, 0.0])

    def test_subgroup_weight_formula(self):
        dgp = DiscreteDgp(p_confounder=0.3, propensity=(0.2, 0.6))
        marginal = 0.7 * 0.2 + 0.3 * 0.6
        cols = {"A": np.array([0.0, 0.0, 1.0]), "W": np.array([0.0, 1.0, 1.0])}
        expected = [0.2 / (marginal * 0.8), 0.6 / (marginal * 0.4), 0.0]
        np.testing.assert_allclose(
            closed_form_representer("att_control_mean", dgp)(cols), expected)

    @pytest.mark.parametrize("name", ["mean_treated", "ate", "att_control_mean", "nde"])
    def test_representation_identity_at_truth(self, name, appendix_dgp,
                                              big_appendix_data):
        weight = closed_form_representer(name, appendix_dgp)
        values = weight(big_appendix_data.columns) * big_appendix_data.column("Y")
        theta = truth_oracle(builtin_spec(name), appendix_dgp)
        assert abs(values.mean() - theta) <= 4 * mc_se(values)

    @pytest.mark.parametrize("name", ["mean_treated", "ate", "att_control_mean"])
    def test_representation_identity_discrete(self, name, discrete_dgp,
                                              big_discrete_data):
        weight = closed_form_representer(name, discrete_dgp)
        values = weight(big_discrete_data.columns) * big_discrete_data.column("Y")
        theta = truth_oracle(builtin_spec(name), discrete_dgp)
        assert abs(values.mean() - theta) <= 4 * mc_se(values)

    @pytest.mark.parametrize("name", ["ate", "att_control_mean", "nde"])
    def test_weighting_agrees_with_iterated_regression(self, name, appendix_dgp,
                                                       big_appendix_data):
        """Stagewise duality: mean[a_k * Q_k] == mean[a_{k-1} * m_k(.; Q_k)]."""
        spec = builtin_spec(name)
        spec = spec.instantiate(1.0) if spec.is_contrast else spec
        data = big_appendix_data
        for k in range(1, spec.depth + 1):
            alpha_k = closed_form_representer(name, appendix_dgp, stage=k,
                                              a_prime=1.0 if name == "nde" else None)
            q_k = true_nuisance(spec, appendix_dgp, k)
            lhs = alpha_k(data.columns) * q_k(data.columns)
            if k == 1:
                rhs = apply_map(spec.stage(1).fmap, q_k, data)
            else:
                alpha_prev = closed_form_representer(
                    name, appendix_dgp, stage=k - 1,
                    a_prime=1.0 if name == "nde" else None)
                rhs = alpha_prev(data.columns) * apply_map(spec.stage(k).fmap, q_k, data)
            diff = lhs - rhs
            assert abs(diff.mean()) <= max(4 * mc_se(diff), 1e-12)

    def test_mediator_shift_weight_needs_arm_or_contrast(self, appendix_dgp):
        with pytest.raises(SchemaError):
            closed_form_representer("nde", appendix_dgp, stage=4)
        with pytest.raises(SchemaError):
            closed_form_representer("not_an_estimand", appendix_dgp)


class TestDatasetValidation:
    def test_non_finite_rejected(self):
        schema = (Column("A", "treatment", "binary"), Column("Y", "outcome", "real"))
        with pytest.raises(SchemaError, match="non-finite"):
            Dataset(schema, {"A": np.array([0.0, 1.0]), "Y": np.array([1.0, np.nan])})

    def test_out_of_support_rejected(self):
        schema = (Column("A", "treatment", "binary"), Column("Y", "outcome", "real"))
        with pytest.raises(SchemaError, match="support"):
            Dataset(schema, {"A": np.array([0.0, 2.0]), "Y": np.array([1.0, 1.0])})

    def test_empty_rejected(self):
        schema = (Column("Y", "outcome", "real"),)
        with pytest.raises(SchemaError, match="at least one row"):
            Dataset(schema, {"Y": np.array([])})

    # repeated levels passed the ">= 2 levels" count, though a column of them has one value
    @pytest.mark.parametrize("levels", [(0, 0), (1.0, 1), (0, 1, 1)], ids=repr)
    def test_repeated_categorical_levels_rejected(self, levels):
        with pytest.raises(SchemaError, match="distinct levels"):
            Column("G", "covariate", "categorical", levels)
        with pytest.raises(SchemaError, match="distinct levels"):
            Column.from_dict({"name": "G", "role": "covariate", "support": "categorical",
                              "levels": list(levels)})


class TestDgpProtocol:
    @pytest.mark.parametrize("dgp", [AppendixDgp(), DiscreteDgp()], ids=lambda d: d.label)
    def test_propensity_is_vectorized_and_named(self, dgp):
        w = np.array([0.0, 1.0, 1.0])
        assert dgp.propensity_of(w).shape == (3,)
        assert float(dgp.propensity_of(1.0)) == dgp.propensity_of(w)[1]
        assert DGPS[dgp.label] is type(dgp)

    def test_discrete_parameters_from_json_lists(self):
        dgp = DiscreteDgp(propensity=[0.4, 0.6], outcome_mean_table=[[0.1, 0.2], [0.3, 0.4]])
        assert dgp == DiscreteDgp(propensity=(0.4, 0.6),
                                  outcome_mean_table=((0.1, 0.2), (0.3, 0.4)))
        hash(dgp)
