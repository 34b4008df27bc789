import warnings

import numpy as np
import pytest

from rieszreg import (DiscreteDgp, EstimatorSettings, SingularGramError, builtin_spec,
                      one_step_estimate, simulate)
from rieszreg._linalg import expit, solve_normal_equations

SPECIALS = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan])


def _inputs():
    rng = np.random.default_rng(12)
    return np.concatenate([rng.normal(0.0, 3.0, 20000),
                           rng.uniform(-745.0, 745.0, 20000), SPECIALS])


def test_expit_within_four_ulp_of_scipy():
    special = pytest.importorskip("scipy.special")
    x = _inputs()
    np.testing.assert_array_max_ulp(expit(x), special.expit(x), maxulp=4)


def test_expit_limits_and_scalars():
    np.testing.assert_array_equal(expit(SPECIALS), [0.5, 0.5, 1.0, 0.0, 1.0, 0.0, np.nan])
    for scalar in (0.0, np.float64(0.0), np.array(0.0)):
        value = expit(scalar)
        assert np.ndim(value) == 0 and value == 0.5


def test_expit_overflow_is_quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as under python -W error
        np.testing.assert_array_equal(expit(np.array([800.0, -800.0])), [1.0, 0.0])
        assert (expit(800.0), expit(-800.0)) == (1.0, 0.0)


def test_expit_in_place_equals_fresh():
    x = _inputs()
    fresh = expit(x)
    assert expit(x, out=x) is x
    np.testing.assert_array_equal(x.view(np.uint64), fresh.view(np.uint64))


@pytest.mark.parametrize("ridge,hint", [(0.0, "increase the ridge"), (0.5, "reduce the basis")])
def test_indefinite_system_refused(ridge, hint):
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(SingularGramError, match=f"indefinite.*{hint}"):
        solve_normal_equations(indefinite, np.ones(2), ridge)


def test_singular_logistic_hessian_prints_the_ridge_as_a_float():
    """The logistic fits pass the ridge as a numpy scalar; the message reads
    ``ridge=0.0`` as the sieve's does, not ``ridge=np.float64(0.0)``."""
    data = simulate(DiscreteDgp(propensity=(0.01, 0.99)), 400, 0)
    settings = EstimatorSettings(ridge=0.0, riesz_basis="intercept", nuisance_basis="saturated",
                                 min_rows_per_fold=10)
    with warnings.catch_warnings(), pytest.raises(SingularGramError) as err:
        warnings.simplefilter("ignore", RuntimeWarning)  # ill-conditioned Newton steps first
        one_step_estimate(builtin_spec("ate"), data, settings, folds=2, seed=0)
    assert "logistic Hessian" in str(err.value) and "(ridge=0.0)" in str(err.value)
