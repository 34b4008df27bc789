import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszreg import (
    Basis,
    Column,
    Dataset,
    Feature,
    FunctionalMap,
    MapTerm,
    SchemaError,
    SpecValidationError,
    builtin_spec,
    default_basis,
    fit_all_stages,
    fit_sieve,
    saturated_basis,
    substream,
)
from rieszreg.basis import INTERCEPT, intercept_basis, make_basis
from rieszreg.estimands import spec_from_document


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


SUBSTITUTION_SCHEMA = (
    Column("A", "treatment", "binary"), Column("B", "covariate", "binary"),
    Column("C", "covariate", "categorical", (0.0, 1.0, 2.5)),
    Column("X", "covariate"), Column("Z", "mediator"), Column("Y", "outcome"))


def _substitution_data(seed: int, n: int = 40) -> Dataset:
    rng = substream(seed)
    return Dataset(SUBSTITUTION_SCHEMA, {
        "A": rng.integers(0, 2, n).astype(float), "B": rng.integers(0, 2, n).astype(float),
        "C": rng.choice([0.0, 1.0, 2.5], n), "X": rng.normal(size=n),
        "Z": rng.uniform(-3.0, 3.0, n), "Y": rng.normal(size=n)})


def _admissible(column: Column):
    if column.is_discrete:
        return st.sampled_from(column.levels)
    return st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-4.0, 4.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(policy=st.sampled_from(["default", "saturated", "intercept"]), degree=st.integers(1, 3),
       columns=st.lists(st.sampled_from(["A", "B", "C", "X", "Z"]), min_size=1, unique=True),
       draw=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_substitution_reproduces_the_assigned_design(policy, degree, columns, draw, seed):
    data = _substitution_data(seed)
    if policy == "saturated":
        columns = [c for c in columns if data.column_def(c).support == "binary"]
    basis = make_basis(policy, columns, data, degree)
    assigned = draw.draw(st.lists(st.sampled_from(columns or ["A"]), min_size=1, unique=True))
    assignments = tuple((name, draw.draw(_admissible(data.column_def(name))))
                        for name in assigned)
    cols = dict(data.columns)
    cols.update((name, np.full(data.n, value)) for name, value in assignments)
    want = basis.design(cols)
    got = basis.design(data) @ basis.substitution(assignments)
    if all(value in (0.0, 1.0) for _, value in assignments):
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_basis_not_closed_under_the_map_is_refused(discrete_data):
    # A*W with A assigned leaves W, which this hand-built basis lacks
    basis = Basis((INTERCEPT, Feature(("A",), (1,)), Feature(("A", "W"), (1, 1))))
    with pytest.raises(SchemaError, match="basis lacks feature 'W'.*'A\\*W'"):
        fit_sieve(builtin_spec("ate").stage(2).fmap, discrete_data, basis)


def test_map_assignment_errors_keep_their_messages(appendix_data, discrete_data):
    contrast = builtin_spec("nde").stage(3).fmap  # still holds the contrast slot
    with pytest.raises(SpecValidationError, match=re.escape(
            "map still contains the contrast parameter; instantiate the spec first")):
        fit_sieve(contrast, appendix_data, default_basis(("A", "M", "W"), appendix_data))
    outside = FunctionalMap.build([MapTerm(1.0, (("A", 2.0),))], ("A", "W"))
    with pytest.raises(SchemaError, match=re.escape(
            "assignment A = 2.0 lies outside the declared support of 'A'")):
        fit_sieve(outside, discrete_data, default_basis(("A", "W"), discrete_data))
    spec = spec_from_document({"name": "outside", "stages": [
        {"regress": "Y", "given": ["A", "W"], "map": [{"coef": 1.0, "set": {"A": 2.0}}]},
        {"regress": "prev", "given": [], "map": [{"coef": 1.0, "set": {}}]}]})
    with pytest.raises(SchemaError, match=re.escape(
            "assignment A = 2.0 lies outside the declared support of 'A'")):
        fit_all_stages(spec, discrete_data)
