"""Data-generating processes, ground-truth oracles, and exact representers.

Two desk-scale DGPs are provided: a binary-confounder benchmark
(``AppendixDgp``) with a normal mediator and a logistic binary outcome, and a
fully discrete 2x2 design (``DiscreteDgp``) where every population quantity
is an exact finite sum. Both expose ``schema()``, a vectorized
``propensity_of(w)`` = P(A=1 | W=w), ``marginal_treated()``,
``outcome_mean(cols)``, ``sample(n, rng)`` and the attributes ``label``,
``has_mediator`` and ``outcome_parents``; ``simulate(dgp, n, seed)`` draws
from either, and ``DGPS`` maps each label to its class. The truth oracle
evaluates any nested-regression estimand against the true law by exact
summation over the discrete variables and Gauss-Hermite quadrature over the
mediator; it shares no code with the estimation stack, so it can serve as an
independent check on it. (The stack's least squares is the identity-map
Riesz fit, so its residuals are orthogonal to a shared basis by construction.)

Reproducibility: all sampling uses the Philox counter-based generator, with
independent substreams derived via SeedSequence spawn keys
(``substream(seed, index)``, and ``spawn_seed`` for an integer child seed),
so parallel replicates are identical regardless of scheduling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from ._linalg import expit
from .data import Column, Dataset, as_columns, constant_one
from .errors import RieszregError, SchemaError, is_integer, is_real, require
from .estimands import EstimandSpec

GH_NODES = 64
QUADRATURE_DOUBLING_TOL = 1e-9


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Philox generator for one substream of a master seed.

    Substreams with distinct indices are statistically independent, so one
    seed can drive several consumers without sharing a bit stream: index 0
    is used for data sampling and index 1 for cross-fitting fold assignment.
    """
    return np.random.Generator(np.random.Philox(_spawn(seed, index)))


def spawn_seed(seed: int, index: int) -> int:
    """Child ``index``'s integer seed, independent of the order children are made in."""
    return int(_spawn(seed, index).generate_state(1)[0])


def _spawn(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(int(seed), spawn_key=(int(index),))


def _require_finite(dgp) -> None:
    """Refuse a DGP parameter that is not finite real numbers shaped as its default."""
    for f in fields(dgp):
        value = getattr(dgp, f.name)
        entries = np.array(value, dtype=object)  # any nesting, each entry as given
        require(entries.shape == np.shape(f.default)
                and all(is_real(v) and math.isfinite(v) for v in entries.flat),
                f"{f.name} must be finite and real, shaped as its default {f.default}", value)


# ---------------------------------------------------------------------------
# DGPs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppendixDgp:
    """Binary confounder and treatment, normal mediator, logistic outcome.

    W ~ Bernoulli(p_confounder); A ~ Bernoulli(p_treated) independent of W;
    M ~ Normal(m_intercept + m_treat*A + m_conf*W, m_sd^2);
    P(Y=1 | A,M,W) = expit(y_intercept + y_treat*A + y_mediator*M + y_conf*W).
    """

    p_confounder: float = 0.4
    p_treated: float = 0.5
    m_intercept: float = 0.6
    m_treat: float = 0.05
    m_conf: float = -0.3
    m_sd: float = 1.0
    y_intercept: float = -math.log(5.0)
    y_treat: float = math.log(2.0)
    y_mediator: float = math.log(3.0)
    y_conf: float = -math.log(1.2)

    def __post_init__(self):
        _require_finite(self)
        for label, p in (("p_confounder", self.p_confounder), ("p_treated", self.p_treated)):
            if not 0.0 < p < 1.0:
                raise SchemaError(f"{label} must lie strictly in (0, 1), got {p}")
        if self.m_sd <= 0:
            raise SchemaError(f"mediator standard deviation must be positive, got {self.m_sd}")

    label = "appendix"
    has_mediator = True
    outcome_parents = ("A", "M", "W")

    def schema(self) -> tuple[Column, ...]:
        return (
            Column("W", "covariate", "binary"),
            Column("A", "treatment", "binary"),
            Column("M", "mediator", "real"),
            Column("Y", "outcome", "binary"),
        )

    def propensity_of(self, w) -> np.ndarray:
        return np.full(np.shape(w), self.p_treated)

    def marginal_treated(self) -> float:
        return self.p_treated

    def mediator_mean(self, a, w):
        return self.m_intercept + self.m_treat * a + self.m_conf * w

    def outcome_mean(self, cols) -> np.ndarray:
        lin = (self.y_intercept + self.y_treat * cols["A"]
               + self.y_mediator * cols["M"] + self.y_conf * cols["W"])
        return expit(lin)

    def sample(self, n: int, rng: np.random.Generator) -> dict:
        w = (rng.random(n) < self.p_confounder).astype(np.float64)
        a = (rng.random(n) < self.propensity_of(w)).astype(np.float64)
        m = self.mediator_mean(a, w) + self.m_sd * rng.standard_normal(n)
        y = (rng.random(n) < self.outcome_mean({"A": a, "M": m, "W": w})).astype(np.float64)
        return {"W": w, "A": a, "M": m, "Y": y}


@dataclass(frozen=True)
class DiscreteDgp:
    """All-binary 2x2 design with every population quantity a finite sum.

    ``propensity`` is (P(A=1|W=0), P(A=1|W=1)); ``outcome_mean[a][w]`` is
    E[Y|A=a,W=w], and Y is drawn Bernoulli at that mean.
    """

    p_confounder: float = 0.5
    propensity: tuple[float, float] = (0.3, 0.7)
    outcome_mean_table: tuple[tuple[float, float], tuple[float, float]] = (
        (0.2, 0.5), (0.5, 0.7))

    def __post_init__(self):
        _require_finite(self)
        # JSON parameter files give lists; keep the instance hashable
        object.__setattr__(self, "propensity", tuple(self.propensity))
        object.__setattr__(self, "outcome_mean_table",
                           tuple(tuple(row) for row in self.outcome_mean_table))
        probs = (self.p_confounder, *self.propensity)
        if not all(0.0 < p < 1.0 for p in probs):
            raise SchemaError(
                "positivity violated: confounder and propensity probabilities "
                f"must lie strictly in (0, 1), got {probs}")
        flat = [q for row in self.outcome_mean_table for q in row]
        if not all(0.0 <= q <= 1.0 for q in flat):
            raise SchemaError(f"outcome means must lie in [0, 1], got {flat}")

    label = "discrete"
    has_mediator = False
    outcome_parents = ("A", "W")

    def schema(self) -> tuple[Column, ...]:
        return (
            Column("W", "covariate", "binary"),
            Column("A", "treatment", "binary"),
            Column("Y", "outcome", "binary"),
        )

    def propensity_of(self, w) -> np.ndarray:
        p0, p1 = self.propensity
        return np.where(np.asarray(w) == 1.0, p1, p0)

    def marginal_treated(self) -> float:
        return (1 - self.p_confounder) * self.propensity[0] \
            + self.p_confounder * self.propensity[1]

    def outcome_mean(self, cols) -> np.ndarray:
        a = np.asarray(cols["A"], dtype=int)
        w = np.asarray(cols["W"], dtype=int)
        table = np.asarray(self.outcome_mean_table)
        return table[a, w]

    def sample(self, n: int, rng: np.random.Generator) -> dict:
        w = (rng.random(n) < self.p_confounder).astype(np.float64)
        a = (rng.random(n) < self.propensity_of(w)).astype(np.float64)
        y = (rng.random(n) < self.outcome_mean({"A": a, "W": w})).astype(np.float64)
        return {"W": w, "A": a, "Y": y}


DGPS = {dgp.label: dgp for dgp in (AppendixDgp, DiscreteDgp)}


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def simulate(dgp, n: int, seed: int) -> Dataset:
    """Draw n i.i.d. observations from a DGP; deterministic given seed."""
    require(is_integer(n) and n >= 1, "sample size must be an integer >= 1", n)
    require(is_integer(seed) and seed >= 0, "seed must be an integer >= 0", seed)
    return Dataset(dgp.schema(), dgp.sample(n, substream(seed)), seed=seed)


# ---------------------------------------------------------------------------
# Truth oracle: exact sums + Gauss-Hermite quadrature over the mediator
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _hermite_rule(nodes: int):
    x, w = np.polynomial.hermite.hermgauss(nodes)
    return x, w / math.sqrt(math.pi)


def _gauss_hermite(fn, mean: float, sd: float, nodes: int) -> float:
    """Expectation of fn(M) for M ~ Normal(mean, sd^2)."""
    x, w = _hermite_rule(nodes)
    points = mean + math.sqrt(2.0) * sd * x
    return float(sum(wi * fn(float(mi)) for wi, mi in zip(w, points)))


def _conditional_expectation(dgp, fn, needs, cond, nodes) -> float:
    """E[fn(vars) | cond] under the DGP law.

    Enumerates the discrete (W, A) cells consistent with ``cond`` with exact
    Bayes reweighting, and integrates a free mediator by Gauss-Hermite.
    ``needs`` lists the variables fn actually reads.
    """
    if "M" in cond and not {"A", "W"} <= set(cond):
        raise SchemaError(
            "conditioning on the mediator without both A and W is not supported by this oracle")
    integrate_m = dgp.has_mediator and "M" in needs and "M" not in cond
    if "M" in needs and not dgp.has_mediator:
        raise SchemaError("spec references a mediator but the DGP has none")
    total = 0.0
    norm = 0.0
    for w in (0.0, 1.0):
        if "W" in cond and cond["W"] != w:
            continue
        pw = dgp.p_confounder if w == 1.0 else 1.0 - dgp.p_confounder
        for a in (0.0, 1.0):
            if "A" in cond and cond["A"] != a:
                continue
            pa1 = float(dgp.propensity_of(w))
            p = pw * (pa1 if a == 1.0 else 1.0 - pa1)
            point = dict(cond)
            point["W"] = w
            point["A"] = a
            if integrate_m:
                value = _gauss_hermite(
                    lambda m: fn({**point, "M": m}),
                    dgp.mediator_mean(a, w), dgp.m_sd, nodes)
            else:
                value = fn(point)
            total += p * value
            norm += p
    if norm <= 0:
        raise RieszregError("conditioning event has probability zero under the DGP")
    return total / norm


def _stage_regressions(spec: EstimandSpec, dgp, nodes: int):
    """True stage regressions as scalar callables, outermost first.

    Returns (theta, [Q_1 .. Q_K]); discrete-argument stages are memoized.
    """
    if spec.is_contrast:
        raise RieszregError("instantiate contrast specs before requesting stage regressions")
    depth = spec.depth

    def target(point):
        return float(dgp.outcome_mean({name: np.asarray(v) for name, v in point.items()}))

    target_needs = set(dgp.outcome_parents)
    regressions: list = [None] * depth
    for k in range(depth, 0, -1):
        stage = spec.stage(k)
        given = stage.given

        def q_of(point, _fn=target, _needs=frozenset(target_needs), _given=given):
            cond = {v: point[v] for v in _given}
            return _conditional_expectation(dgp, _fn, _needs, cond, nodes)

        if "M" not in given:
            cache: dict = {}

            def q_of(point, _q=q_of, _cache=cache, _given=given):
                key = tuple(point[v] for v in _given)
                if key not in _cache:
                    _cache[key] = _q(point)
                return _cache[key]

        regressions[k - 1] = q_of

        def mapped(point, _q=q_of, _terms=stage.fmap.terms):
            return sum(t.coef * _q({**point, **dict(t.assignments)}) for t in _terms)

        target = mapped
        target_needs = set(stage.fmap.free_vars)
    theta = target({})
    return theta, regressions


def truth_oracle(spec: EstimandSpec, dgp) -> float:
    """Ground-truth estimand value under the DGP law: ``truth_report``'s
    value, checked by ``oracle_value``.

    Contrast specs return the difference of the two instantiated arms.
    """
    return oracle_value(truth_report(spec, dgp))


def oracle_value(report: dict) -> float:
    """The value of a ``truth_report``. When quadrature is involved, its
    value at twice the node count must agree to 1e-9, guarding the
    documented 1e-8 absolute accuracy."""
    quadrature = report["quadrature"]
    if quadrature["doubling_gap"] > QUADRATURE_DOUBLING_TOL:
        raise RieszregError(
            f"quadrature not converged: {quadrature['nodes']} vs {2 * quadrature['nodes']} "
            f"nodes differ by {quadrature['doubling_gap']:.3e}")
    return report["theta"]


def _truth_value(spec: EstimandSpec, dgp, nodes: int) -> float:
    if spec.is_contrast:
        hi, lo = spec.contrast
        return (_stage_regressions(spec.instantiate(hi), dgp, nodes)[0]
                - _stage_regressions(spec.instantiate(lo), dgp, nodes)[0])
    return _stage_regressions(spec, dgp, nodes)[0]


def truth_report(spec: EstimandSpec, dgp) -> dict:
    """Oracle value plus quadrature diagnostics, for the exported report."""
    theta = _truth_value(spec, dgp, GH_NODES)
    refined = _truth_value(spec, dgp, 2 * GH_NODES) if dgp.has_mediator else theta
    return {
        "spec": spec.name,
        "dgp": dgp.label,
        "theta": theta,
        "quadrature": {
            "nodes": GH_NODES if dgp.has_mediator else 0,
            "doubling_gap": abs(refined - theta),
            "tolerance": QUADRATURE_DOUBLING_TOL,
        },
    }


def true_nuisance(spec: EstimandSpec, dgp, k: int):
    """True stage-k regression as a vectorized callable over columns."""
    stage = spec.stage(k)
    if "M" in stage.given:
        if not set(dgp.outcome_parents) <= set(stage.given):
            raise SchemaError(
                "mediator-conditioned stages must condition on all outcome parents")
        return dgp.outcome_mean
    _, regressions = _stage_regressions(spec, dgp, GH_NODES)
    q_scalar = regressions[k - 1]
    given = stage.given

    def predict(cols):
        cols, n = as_columns(cols)
        arrays = [cols[v] for v in given]
        out = np.full(n, np.nan)
        for combo in np.ndindex(*(2,) * len(given)):
            values = [float(c) for c in combo]
            mask = np.ones(n, dtype=bool)
            for arr, v in zip(arrays, values):
                mask &= arr == v
            if mask.any():
                out[mask] = q_scalar(dict(zip(given, values)))
        return out

    return predict


# ---------------------------------------------------------------------------
# Closed-form representers (exact inverse-probability-style weights)
# ---------------------------------------------------------------------------

def closed_form_representer(name: str, dgp, stage: int | None = None,
                            a_prime: float | None = None):
    """Exact representer for a built-in estimand under the true DGP law.

    Returns a callable over columns. ``stage`` selects the stage-k weight
    (default: the innermost stage, whose weight satisfies
    E[weight * Y] = theta). For "nde", ``a_prime`` picks one arm; when it is
    None the innermost weight is the contrast (arm 1 minus arm 0) form.
    """
    def prop(cols):
        return dgp.propensity_of(cols["W"])

    if name == "mean_treated":
        p1 = dgp.marginal_treated()
        forms = {1: lambda cols: (cols["A"] == 1.0) / p1}
    elif name == "ate":
        forms = {
            1: constant_one,
            2: lambda cols: ((cols["A"] == 1.0) / prop(cols)
                             - (cols["A"] == 0.0) / (1.0 - prop(cols))),
        }
    elif name == "att_control_mean":
        p1 = dgp.marginal_treated()
        forms = {
            1: lambda cols: (cols["A"] == 1.0) / p1,
            2: lambda cols: ((cols["A"] == 0.0) / p1
                             * prop(cols) / (1.0 - prop(cols))),
        }
    elif name == "nde":
        if a_prime is None:
            def inner(cols):
                p = prop(cols)
                return ((cols["A"] == 1.0) / p * _mediator_ratio(dgp, cols, 1.0)
                        - (cols["A"] == 0.0) / (1.0 - p))
        else:
            arm = float(a_prime)

            def inner(cols):
                p = prop(cols)
                f_arm = p if arm == 1.0 else 1.0 - p
                return (cols["A"] == arm) / f_arm * _mediator_ratio(dgp, cols, arm)
        forms = {
            1: constant_one,
            2: lambda cols: (cols["A"] == 0.0) / (1.0 - prop(cols)),
            3: inner,
        }
    else:
        raise SchemaError(f"no closed-form representer for estimand {name!r}")
    k = max(forms) if stage is None else stage
    if k not in forms:
        raise SchemaError(f"estimand {name!r} has no stage {k}")
    return forms[k]


def _mediator_ratio(dgp, cols, arm: float) -> np.ndarray:
    """Density ratio f(M | A=0, W) / f(M | A=arm, W) for the normal mediator."""
    m = np.asarray(cols["M"], dtype=np.float64)
    w = np.asarray(cols["W"], dtype=np.float64)
    mu0 = dgp.mediator_mean(0.0, w)
    mua = dgp.mediator_mean(arm, w)
    var2 = 2.0 * dgp.m_sd ** 2
    return np.exp(((m - mua) ** 2 - (m - mu0) ** 2) / var2)
