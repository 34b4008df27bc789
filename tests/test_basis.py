import numpy as np
import pytest

from rieszreg import Basis, Feature, SchemaError, default_basis, saturated_basis
from rieszreg.basis import INTERCEPT, intercept_basis, make_basis


def test_saturated_binary_pair_spans_all_cells(discrete_data):
    basis = saturated_basis(("A", "W"), discrete_data)
    assert basis.labels == ("1", "A", "W", "A*W")
    design = basis.design(discrete_data)
    assert np.linalg.matrix_rank(design) == 4


def test_saturated_requires_binary_columns(appendix_data):
    with pytest.raises(SchemaError, match="binary"):
        saturated_basis(("A", "M"), appendix_data)


def test_default_basis_contents(appendix_data):
    basis = default_basis(("A", "M", "W"), appendix_data, degree=2)
    labels = set(basis.labels)
    assert {"1", "A", "M", "W", "M*W", "M^2", "A*M", "A*W", "A*M*W", "A*M^2"} == labels
    assert basis.labels[0] == "1"


def test_design_matches_manual_products(appendix_data):
    basis = default_basis(("A", "M", "W"), appendix_data, degree=2)
    design = basis.design(appendix_data)
    a, m, w = (appendix_data.column(c) for c in ("A", "M", "W"))
    by_label = dict(zip(basis.labels, design.T))
    np.testing.assert_array_equal(by_label["1"], np.ones(appendix_data.n))
    np.testing.assert_allclose(by_label["A*M^2"], a * m ** 2)
    np.testing.assert_allclose(by_label["M*W"], m * w)


def test_no_discrete_powers(discrete_data):
    basis = default_basis(("A", "W"), discrete_data, degree=3)
    assert "W^2" not in basis.labels
    assert basis.labels == ("1", "A", "W", "A*W")


def test_intercept_required_and_duplicates_rejected():
    with pytest.raises(SchemaError, match="intercept"):
        Basis((Feature(("A",), (1,)),))
    with pytest.raises(SchemaError, match="duplicate"):
        Basis((INTERCEPT, Feature(("A",), (1,)), Feature(("A",), (1,))))


def test_policy_resolution(discrete_data):
    assert make_basis("intercept", ("A", "W"), discrete_data).dim == 1
    assert make_basis("default", (), discrete_data) == intercept_basis()
    with pytest.raises(SchemaError, match="policy"):
        make_basis("kitchen_sink", ("A",), discrete_data)


def test_feature_canonical_order():
    assert Feature(("W", "A"), (1, 2)) == Feature(("A", "W"), (2, 1))
    assert Feature(("W", "A"), (1, 2)).label == "A^2*W"


def test_ill_conditioned_system_warns():
    from rieszreg._linalg import default_ridge, solve_normal_equations

    gram = np.diag([1.0, 1e-11])
    with pytest.warns(RuntimeWarning, match="condition number"):
        x, cond = solve_normal_equations(gram, np.array([1.0, 1e-11]), ridge=0.0)
    np.testing.assert_allclose(x, [1.0, 1.0])
    assert cond > 1e10
    assert default_ridge(np.eye(4) * 2.0) == pytest.approx(2e-6)
