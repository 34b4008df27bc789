"""Property-based checks of the finite-sample identities on random DGP
parameters (inside positivity) and random linear maps."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszreg import (
    AppendixDgp,
    DiscreteDgp,
    EstimatorSettings,
    FunctionalMap,
    MapTerm,
    apply_map,
    builtin_spec,
    fit_sequential,
    one_step_estimate,
    representation_residuals,
    simulate,
)
from rieszreg.basis import make_basis
from rieszreg.nuisance import fit_least_squares
from rieszreg.riesz import SieveRieszFit

# derandomized, so every run checks the same examples
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

prob = st.floats(0.05, 0.95)
seeds = st.integers(0, 2 ** 32 - 1)
discrete_dgps = st.builds(
    DiscreteDgp, p_confounder=prob, propensity=st.tuples(prob, prob),
    outcome_mean_table=st.tuples(st.tuples(prob, prob), st.tuples(prob, prob)))
appendix_dgps = st.builds(
    AppendixDgp, p_confounder=prob, p_treated=prob,
    m_treat=st.floats(-1, 1), m_conf=st.floats(-1, 1), y_mediator=st.floats(-1, 1))
# every (W, A) cell has probability >= 0.05 ** 2, so about 10 rows or more: the
# ridge-0 identities need a nonsingular Gram matrix, hence rows in every cell
N = 4000


def _cases(dgp):
    if dgp.has_mediator:
        nde = builtin_spec("nde")
        return [nde.instantiate(1.0), nde.instantiate(0.0)]
    return [builtin_spec(name) for name in ("mean_treated", "ate", "att_control_mean")]


@PROPERTY_SETTINGS
@given(dgp=st.one_of(discrete_dgps, appendix_dgps), seed=seeds)
def test_ridge_zero_representation_residuals_vanish(dgp, seed):
    data = simulate(dgp, N, seed)
    for spec in _cases(dgp):
        fits = fit_sequential(spec, data, ridge=0.0)
        weights = np.ones(data.n)
        for k, fit in enumerate(fits, start=1):
            if isinstance(fit, SieveRieszFit):
                residuals = representation_residuals(fit, spec.stage(k).fmap, data,
                                                     weights=weights)
                assert np.max(np.abs(residuals)) <= 1e-10
            weights = fit(data.columns)


@PROPERTY_SETTINGS
@given(dgp=st.one_of(discrete_dgps, appendix_dgps), seed=seeds,
       target_seed=seeds)
def test_least_squares_residuals_orthogonal_to_shared_basis(dgp, seed, target_seed):
    data = simulate(dgp, N, seed)
    given_cols = dgp.outcome_parents
    basis = make_basis("default", given_cols, data)
    noise = np.random.default_rng(target_seed).standard_normal(data.n)
    for target in (data.column("Y"), data.column("Y") * 3.0 + noise):
        fit = fit_least_squares(basis, data, target, ridge=0.0, stage=1)
        gaps = basis.design(data).T @ (target - fit(data.columns)) / data.n
        assert np.max(np.abs(gaps)) <= 1e-10


@PROPERTY_SETTINGS
@given(dgp=st.one_of(discrete_dgps, appendix_dgps), seed=seeds)
def test_one_step_minus_plug_in_is_mean_influence(dgp, seed):
    data = simulate(dgp, N, seed)
    spec = builtin_spec("nde" if dgp.has_mediator else "ate")
    report = one_step_estimate(spec, data, EstimatorSettings(), folds=2, seed=seed)
    for arm in (report, report.contrast.other if report.contrast else report):
        assert abs(arm.theta_hat - arm.plug_in - np.mean(arm.eif_values)) <= 1e-12


levels = st.sampled_from([0.0, 1.0])
terms = st.lists(
    st.builds(lambda coef, a, w: MapTerm(coef, tuple(
        (name, v) for name, v in (("A", a), ("W", w)) if v is not None)),
        st.floats(-3, 3).filter(lambda c: c != 0), st.none() | levels, st.none() | levels),
    min_size=1, max_size=4)
coefficient_vectors = st.lists(st.floats(-2, 2), min_size=4, max_size=4)


@PROPERTY_SETTINGS
@given(terms=terms, f_coef=coefficient_vectors, g_coef=coefficient_vectors,
       alpha=st.floats(-2, 2), beta=st.floats(-2, 2), seed=seeds)
def test_apply_map_is_linear(terms, f_coef, g_coef, alpha, beta, seed):
    fmap = FunctionalMap.build(terms, ("A", "W", "X"))

    def poly(c):
        return lambda cols: c[0] + c[1] * cols["A"] + c[2] * cols["W"] * cols["X"] + c[3] * cols["X"] ** 2

    f, g = poly(f_coef), poly(g_coef)
    rng = np.random.default_rng(seed)
    cols = {"A": rng.integers(0, 2, 6).astype(float), "W": rng.integers(0, 2, 6).astype(float),
            "X": rng.standard_normal(6)}
    combined = apply_map(fmap, lambda c: alpha * f(c) + beta * g(c), cols)
    separate = alpha * apply_map(fmap, f, cols) + beta * apply_map(fmap, g, cols)
    np.testing.assert_allclose(combined, separate, rtol=1e-12, atol=1e-12)
    row = {name: values[2] for name, values in cols.items()}  # one row as scalars
    single = apply_map(fmap, lambda c: alpha * f(c) + beta * g(c), row)
    assert isinstance(single, float)
    np.testing.assert_allclose(single, combined[2], rtol=1e-12, atol=1e-12)
