"""Property-based checks of the finite-sample identities on random DGP
parameters (inside positivity) and random linear maps, of the file writers
against their reference encodings, and of the estimand document round trip."""

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszreg import (
    AppendixDgp,
    Column,
    Dataset,
    DiscreteDgp,
    EstimatorSettings,
    FunctionalMap,
    MapTerm,
    apply_map,
    builtin_spec,
    fit_sequential,
    format_spec,
    one_step_estimate,
    parse_spec,
    representation_residuals,
    simulate,
    truth_oracle,
)
from rieszreg import data as data_module
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
        fit = fit_least_squares(basis, data, target, ridge=0.0)
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


special_floats = st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324])
numbers = st.one_of(st.floats(), st.integers(), special_floats)
# bools and float subclasses are numbers to json but take the writer's per-item path
array_items = numbers | st.booleans() | st.floats().map(np.float64)
# json coerces int, float, bool and None keys to strings
keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(), numbers, st.lists(array_items)),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(keys, children, max_size=4),
    max_leaves=20)


def _written(write) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        write(path)
        return path.read_bytes()


@PROPERTY_SETTINGS
@given(payload=json_values, chunk=st.integers(1, 4))
def test_write_json_matches_indented_dump(payload, chunk):
    with mock.patch.object(data_module, "CHUNK", chunk):
        written = _written(lambda path: data_module.write_json(path, payload))
    assert written == (json.dumps(payload, indent=2) + "\n").encode()


def _per_cell_csv(data) -> bytes:
    # reference writer: one cell at a time
    lines = [",".join(col.name for col in data.schema)]
    for i in range(data.n):
        cells = []
        for col in data.schema:
            v = float(data.column(col.name)[i])
            if col.is_discrete:  # written as the text of the level equal to v
                v = next(level for level in col.levels if level == v)
                if all(level.is_integer() for level in col.levels):
                    v = int(v)
            cells.append(repr(v))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


reals = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([-0.0, 5e-324, 1e300]))
integer_levels = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=2, max_size=4, unique=True)
real_levels = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=4, unique=True)


@PROPERTY_SETTINGS
@given(draw=st.data(), n=st.integers(1, 12), chunk=st.integers(1, 5))
def test_to_csv_matches_per_cell_writer(draw, n, chunk):
    schema = (Column("A", "treatment", "binary"),
              Column("G", "covariate", "categorical", tuple(draw.draw(integer_levels))),
              Column("H", "covariate", "categorical", tuple(draw.draw(real_levels))),
              Column("Y", "outcome", "real"))
    cols = {"A": draw.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)),
            "Y": draw.draw(st.lists(reals, min_size=n, max_size=n))}
    for col in schema[1:3]:
        cols[col.name] = draw.draw(st.lists(st.sampled_from(col.levels), min_size=n, max_size=n))
    data = Dataset(schema, cols)
    with mock.patch.object(data_module, "CHUNK", chunk):
        written = _written(data.to_csv)
    assert written == _per_cell_csv(data)


COLUMNS = ("W", "A", "M", "X")
coefs = st.floats(-1e6, 1e6).filter(lambda c: c != 0)
assigned_values = st.one_of(st.integers(-3, 3), st.floats(-3, 3))


def _subsets(items):
    return st.lists(st.sampled_from(items), unique=True) if items else st.just([])


@st.composite
def estimand_documents(draw):
    """Valid documents: every assigned variable is in the innermost stage's
    conditioning set, and the outermost stage maps by one coefficient-1 term
    that assigns all its variables."""
    depth = draw(st.integers(1, 3))
    inner = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, unique=True))
    stages = []
    for index in range(depth):
        given = inner if index == 0 else draw(_subsets(inner))
        outermost = index == depth - 1
        terms = []
        for _ in range(1 if outermost else draw(st.integers(1, 3))):
            names = given if outermost else draw(_subsets(given))
            terms.append({"coef": 1.0 if outermost else draw(coefs),
                          "set": {name: draw(assigned_values) for name in names}})
        stage = {"regress": "Y" if index == 0 else "prev", "given": given}
        where = draw(_subsets(given))
        if where:
            stage["where"] = {name: draw(assigned_values) for name in where}
        stage["map"] = terms
        stages.append(stage)
    doc = {"name": draw(st.text(min_size=1)), "stages": stages}
    slots = [term["set"] for stage in stages for term in stage["map"] if term["set"]]
    if slots and draw(st.booleans()):
        doc["contrast"] = [draw(assigned_values), draw(assigned_values)]
        first = slots[draw(st.integers(0, len(slots) - 1))]
        first[next(iter(first))] = "a'"
    return doc


@PROPERTY_SETTINGS
@given(doc=estimand_documents())
def test_format_parse_format_is_identity(doc):
    text = format_spec(parse_spec(json.dumps(doc)))
    assert format_spec(parse_spec(text)) == text


@st.composite
def mean_documents(draw):
    """Documents on the columns A and W of ``DiscreteDgp``: depth 1-3, random
    inner map terms and ``where`` subgroups, one coefficient-1 outer term."""
    depth = draw(st.integers(1, 3))
    inner = draw(st.lists(st.sampled_from(("A", "W")), min_size=1, unique=True))
    stages = []
    for index in range(depth):
        given = inner if index == 0 else draw(_subsets(inner))
        if index == depth - 1:
            terms = [{"coef": 1.0, "set": {name: draw(levels) for name in given}}]
        else:
            terms = [{"coef": draw(st.floats(-3, 3).filter(bool)),
                      "set": {name: draw(levels) for name in draw(_subsets(given))}}
                     for _ in range(draw(st.integers(1, 2)))]
        stage = {"regress": "Y" if index == 0 else "prev", "given": given}
        where = draw(_subsets(given))
        if where:
            stage["where"] = {name: draw(levels) for name in where}
        stages.append({**stage, "map": terms})
    return {"name": "drawn", "stages": stages}


def _empirical_law(data) -> DiscreteDgp:
    """The empirical law of (W, A, Y) as a DGP: p_W, P(A | W) and mean Y per
    (A, W) cell, all sample frequencies."""
    w, a, y = (data.column(name) for name in ("W", "A", "Y"))
    return DiscreteDgp(
        p_confounder=w.mean(), propensity=tuple(a[w == v].mean() for v in (0.0, 1.0)),
        outcome_mean_table=tuple(tuple(y[(a == i) & (w == j)].mean() for j in (0.0, 1.0))
                                 for i in (0.0, 1.0)))


# every (W, A) cell has probability >= 0.01, so about 40 rows or more
overlapping_dgps = st.builds(
    DiscreteDgp, p_confounder=st.floats(0.1, 0.9),
    propensity=st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
    outcome_mean_table=st.tuples(st.tuples(prob, prob), st.tuples(prob, prob)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=mean_documents(), dgp=overlapping_dgps, seed=seeds)
def test_any_accepted_document_matches_the_empirical_law_oracle(doc, dgp, seed):
    """In-sample saturated least squares at ridge 0 is the empirical law's
    regression, so the estimate is the oracle's value on that law, which
    shares no code with the estimator."""
    spec = parse_spec(json.dumps(doc))
    data = simulate(dgp, N, seed)
    exact = EstimatorSettings(riesz_basis="saturated", nuisance_basis="saturated", ridge=0.0,
                              outcome_family="least_squares")
    report = one_step_estimate(spec, data, exact, folds=1, seed=seed)
    truth = truth_oracle(spec, _empirical_law(data))
    assert abs(report.plug_in - truth) <= 1e-10
    assert abs(report.theta_hat - truth) <= 1e-10
