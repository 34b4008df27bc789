"""Identity check suite behind the ``verify`` command.

Each check exercises one algebraic identity the engine must satisfy on
seeded data and reports the measured residual against a fixed tolerance:

* representation: unpenalized sieve weights satisfy the finite-sample
  inner-product identity over every basis feature;
* closed_form: saturated fits on a discrete design reproduce the exact
  inverse-probability weight formulas with empirical frequencies;
* eif_formulas: generic stage-by-stage assembly matches the three
  hand-coded influence functions pointwise on random nuisance inputs;
* orthogonality: with shared unpenalized bases, every inner influence
  term is mean-zero to numerical precision;
* gradients: network backpropagation matches central finite differences.

``flip_sign`` negates one fitted weight before checking, a self-test hook
proving the representation check can fail.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import Column, Dataset, as_columns, constant_one
from .errors import SchemaError
from .estimands import builtin_spec
from .estimator import assemble_eif, verify_orthogonality
from .mlp import MlpConfig
from .nuisance import fit_all_stages
from .riesz import fit_sequential, mlp_loss_gradients, representation_residuals
from .simulate import AppendixDgp, DiscreteDgp, simulate, substream

REPRESENTATION_TOL = 1e-10
CLOSED_FORM_TOL = 1e-8
EIF_EQUIVALENCE_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-10
GRADIENT_TOL = 1e-4


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tol: float
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _concrete_builtins():
    """The four built-ins with the mediation spec instantiated per arm."""
    nde = builtin_spec("nde")
    return ([(name, builtin_spec(name)) for name in ("mean_treated", "ate", "att_control_mean")]
            + [(f"nde[a'={arm:g}]", nde.instantiate(arm)) for arm in (1.0, 0.0)])


def check_representation(seed: int = 0, flip_sign: bool = False) -> CheckResult:
    """Inner-product identity: mean[w_hat * f] == mean[weighted map of f]
    for every basis feature f, at ridge 0."""
    data = simulate(AppendixDgp(), 2000, seed)
    worst = 0.0
    for label, spec in _concrete_builtins():
        weights = None
        for k, fit in enumerate(fit_sequential(spec, data, method="sieve", ridge=0.0), start=1):
            if flip_sign:
                fit.coef = -fit.coef
            residuals = representation_residuals(fit, spec.stage(k).fmap, data, weights=weights)
            worst = max(worst, float(np.max(np.abs(residuals))))
            weights = fit
    return CheckResult("representation", worst <= REPRESENTATION_TOL, worst,
                       REPRESENTATION_TOL, "max first-order-condition residual")


def check_closed_form(seed: int = 0) -> CheckResult:
    """Saturated sieve fits reproduce the empirical inverse-probability
    weight formulas exactly on a binary design."""
    dgp = DiscreteDgp()
    data = simulate(dgp, 4000, seed)
    a = data.column("A")
    w = data.column("W")
    prop = np.where(w == 1.0, np.mean(a[w == 1.0]), np.mean(a[w == 0.0]))
    treated = float(np.mean(a))
    expected = {
        "mean_treated": a / treated,
        "ate": a / prop - (1.0 - a) / (1.0 - prop),
        "att_control_mean": (1.0 - a) / treated * prop / (1.0 - prop),
    }
    worst = 0.0
    for name, target in expected.items():
        spec = builtin_spec(name)
        fits = fit_sequential(spec, data, method="sieve", basis_policy="saturated",
                              ridge=0.0)
        fitted = fits[-1](data.columns)
        worst = max(worst, float(np.max(np.abs(fitted - target))))
    return CheckResult("closed_form", worst <= CLOSED_FORM_TOL, worst,
                       CLOSED_FORM_TOL, "max gap to empirical plug-in weights")


def check_eif_formulas(seed: int = 0, rows: int = 1000) -> CheckResult:
    """Generic assembly equals the hand-coded influence functions pointwise
    on random nuisance inputs."""
    rng = substream(seed)
    n = rows
    a = (rng.random(n) < 0.5).astype(float)
    w = (rng.random(n) < 0.4).astype(float)
    m = rng.normal(size=n)
    y = rng.normal(size=n)
    cols = {"A": a, "W": w, "M": m, "Y": y}
    data = _raw_dataset(cols)

    prop_levels = rng.uniform(0.1, 0.9, size=2)
    prop = prop_levels[w.astype(int)]
    q2_table = rng.normal(size=(2, 2))
    theta = float(rng.normal())

    def q2(c):
        return q2_table[c["A"].astype(int), c["W"].astype(int)]

    worst = 0.0

    # Treatment-difference estimand
    alpha2 = lambda c: (_ind(c["A"], 1.0) / _plev(c, prop_levels)
                        - _ind(c["A"], 0.0) / (1.0 - _plev(c, prop_levels)))
    terms = sum(t.values for t in assemble_eif(
        builtin_spec("ate"), [constant_one, alpha2], [_q1_dummy(), q2], data, theta))
    hand = ((a / prop - (1.0 - a) / (1.0 - prop)) * (y - q2(cols))
            + q2_table[1, w.astype(int)] - q2_table[0, w.astype(int)] - theta)
    worst = max(worst, float(np.max(np.abs(terms - hand))))

    # Subgroup (control-mean-among-treated) estimand
    treated = float(rng.uniform(0.1, 0.9))
    alpha1 = lambda c: _ind(c["A"], 1.0) / treated
    alpha2 = lambda c: (_ind(c["A"], 0.0) / treated
                        * _plev(c, prop_levels) / (1.0 - _plev(c, prop_levels)))
    terms = sum(t.values for t in assemble_eif(
        builtin_spec("att_control_mean"), [alpha1, alpha2], [_q1_dummy(), q2], data, theta))
    hand = ((1.0 - a) / treated * prop / (1.0 - prop) * (y - q2(cols))
            + a / treated * (q2_table[0, w.astype(int)] - theta))
    worst = max(worst, float(np.max(np.abs(terms - hand))))

    # Mediation estimand, one arm
    q3_coef = rng.normal(size=4)
    ratio_coef = rng.normal(size=3) * 0.3

    def q3(c):
        return q3_coef[0] + q3_coef[1] * c["A"] + q3_coef[2] * c["M"] + q3_coef[3] * c["W"]

    def ratio(c):
        return np.exp(ratio_coef[0] + ratio_coef[1] * c["M"] + ratio_coef[2] * c["W"])

    alpha3 = lambda c: _ind(c["A"], 1.0) / _plev(c, prop_levels) * ratio(c)
    alpha2 = lambda c: _ind(c["A"], 0.0) / (1.0 - _plev(c, prop_levels))
    spec = builtin_spec("nde").instantiate(1.0)
    terms = sum(t.values for t in assemble_eif(
        spec, [constant_one, alpha2, alpha3], [_q1_dummy(), q2, q3], data, theta))
    q3_arm = q3({"A": np.ones(n), "M": m, "W": w})
    hand = (a / prop * ratio(cols) * (y - q3(cols))
            + (1.0 - a) / (1.0 - prop) * (q3_arm - q2(cols))
            + q2_table[0, w.astype(int)] - theta)
    worst = max(worst, float(np.max(np.abs(terms - hand))))

    return CheckResult("eif_formulas", worst <= EIF_EQUIVALENCE_TOL, worst,
                       EIF_EQUIVALENCE_TOL,
                       "max pointwise gap, generic assembly vs hand-coded forms")


def check_orthogonality(seed: int = 0) -> CheckResult:
    """Mean of every inner influence term vanishes under shared unpenalized
    bases (least-squares families throughout)."""
    worst = 0.0
    discrete = simulate(DiscreteDgp(), 2000, seed)
    appendix = simulate(AppendixDgp(), 2000, seed)
    for label, spec in _concrete_builtins():
        data = appendix if "nde" in label else discrete
        policy = "default" if "nde" in label else "saturated"
        alphas = fit_sequential(spec, data, method="sieve", basis_policy=policy,
                                ridge=0.0)
        nuisances = fit_all_stages(spec, data, basis_policy=policy, ridge=0.0,
                                   outcome_family="least_squares")
        for row in verify_orthogonality(spec, data, alphas, nuisances):
            if not row.shared_basis:
                raise SchemaError(
                    f"orthogonality check mis-specified for {label}: bases not shared")
            worst = max(worst, abs(row.mean))
    return CheckResult("orthogonality", worst <= ORTHOGONALITY_TOL, worst,
                       ORTHOGONALITY_TOL, "max |mean D_k|, k > 1, shared bases")


def check_gradients(seed: int = 0) -> CheckResult:
    """Backpropagated loss gradients vs central finite differences."""
    data = simulate(AppendixDgp(), 16, seed)
    spec = builtin_spec("nde").instantiate(1.0)
    weights = substream(seed, 2).uniform(0.5, 1.5, size=data.n)
    analytic, numeric = mlp_loss_gradients(
        spec.stage(3).fmap, data, MlpConfig(seed=seed), weights=weights,
        columns=spec.stage(3).given)
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    worst = float(np.max(rel))
    return CheckResult("gradients", worst <= GRADIENT_TOL, worst, GRADIENT_TOL,
                       "max relative error over all parameters")


CHECKS = {
    "representation": check_representation,
    "closed_form": check_closed_form,
    "eif_formulas": check_eif_formulas,
    "orthogonality": check_orthogonality,
    "gradients": check_gradients,
}


def run_checks(names=None, seed: int = 0, flip_sign: bool = False) -> list[CheckResult]:
    names = list(CHECKS) if not names else list(names)
    results = []
    for name in names:
        if name not in CHECKS:
            raise SchemaError(f"unknown check {name!r}; expected one of {sorted(CHECKS)}")
        flags = {"flip_sign": flip_sign} if name == "representation" else {}
        results.append(CHECKS[name](seed=seed, **flags))
    return results


# -- small wrappers used by the formula check --------------------------------

def _raw_dataset(cols):
    schema = (
        Column("W", "covariate", "binary"),
        Column("A", "treatment", "binary"),
        Column("M", "mediator", "real"),
        Column("Y", "outcome", "real"),
    )
    return Dataset(schema, dict(cols))


def _ind(values, level):
    return (values == level).astype(float)


def _plev(cols, prop_levels):
    return prop_levels[cols["W"].astype(int)]


def _q1_dummy():
    """Outer-stage regression placeholder; its mapped value never enters the
    assembled sum (theta replaces it), but assembly evaluates the plug-in."""
    return lambda cols: np.zeros(as_columns(cols)[1])
