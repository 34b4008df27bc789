"""Stagewise conditional-expectation fits.

The innermost stage regresses the outcome on its conditioning set; every
outer stage regresses a pseudo-outcome, namely the previous stage's mapped
prediction, on its own conditioning set. Binary outcomes default to a
logistic sieve (damped Newton on the penalized log-likelihood); everything
else, pseudo-outcomes included, uses penalized least squares. That is the
identity-map Riesz fit with weights equal to the target (mean[f^2 - 2*y*f]
is mean[(y - f)^2] less a constant), so ``fit_least_squares`` calls the sieve
Riesz solver, and on a basis shared with a Riesz fit its residual is
orthogonal to the weight's span by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from ._linalg import default_ridge, solve_normal_equations
from .basis import Basis, make_basis
from .data import Dataset
from .errors import NonConvergenceError, SchemaError
from .estimands import EstimandSpec, FunctionalMap, MapTerm, apply_map
from .riesz import fit_sieve

LOGISTIC_TOL = 1e-9
LOGISTIC_MAX_ITER = 100
# relative rounding allowance of the mean log-loss, a sum over every row
OBJECTIVE_ROUNDING = 64 * np.finfo(np.float64).eps

IDENTITY_MAP = FunctionalMap((MapTerm(1.0, ()),), ())


@dataclass
class NuisanceFit:
    """One fitted stage regression, evaluable on any schema-conformant rows."""

    stage: int
    family: str  # "least_squares" or "logistic"
    basis: Basis
    coef: np.ndarray
    ridge: float
    gram_condition: float
    newton_iterations: int = 0

    def __call__(self, cols) -> np.ndarray:
        index = self.basis.design(cols) @ self.coef
        return expit(index) if self.family == "logistic" else index


def fit_least_squares(basis: Basis, data, target: np.ndarray, ridge: float | None,
                      stage: int) -> NuisanceFit:
    """Penalized least squares: the identity-map Riesz fit weighted by the target."""
    fit = fit_sieve(IDENTITY_MAP, data, basis, ridge=ridge, weights=target)
    return NuisanceFit(stage, "least_squares", basis, fit.coef, fit.ridge,
                       fit.gram_condition)


def fit_logistic(basis: Basis, data, target: np.ndarray, ridge: float | None,
                 stage: int, tol: float = LOGISTIC_TOL,
                 max_iter: int = LOGISTIC_MAX_ITER) -> NuisanceFit:
    """Damped Newton on mean log-loss plus (ridge/2)*||coef||^2; converges
    when the largest gradient component falls below ``tol``.

    Once the step's predicted decrease grad.step/2 is below the rounding of
    the objective, the line search cannot tell better from worse; the fit is
    then deep in the quadratic region and takes the full Newton step."""
    target = np.asarray(target, dtype=np.float64)
    if not np.isin(target, (0.0, 1.0)).all():
        raise SchemaError("logistic fits require a 0/1 target")
    design = basis.design(data)
    n, dim = design.shape
    if ridge is None:
        ridge = default_ridge(design.T @ design / n)

    def objective(c):
        index = design @ c
        # log(1 + exp(index)) - y*index, computed without overflow
        return float(np.mean(np.logaddexp(0.0, index) - target * index)
                     + 0.5 * ridge * c @ c)

    coef = np.zeros(dim)
    value = objective(coef)
    condition = np.nan
    for iteration in range(1, max_iter + 1):
        probs = expit(design @ coef)
        grad = design.T @ (probs - target) / n + ridge * coef
        if np.max(np.abs(grad)) < tol:
            return NuisanceFit(stage, "logistic", basis, coef, float(ridge),
                               condition, newton_iterations=iteration - 1)
        hessian = (design * (probs * (1 - probs))[:, None]).T @ design / n
        step, condition = solve_normal_equations(hessian, grad, ridge,
                                                 what="logistic Hessian")
        in_rounding = 0.5 * grad @ step <= OBJECTIVE_ROUNDING * abs(value)
        scale = 1.0
        while scale > 1e-10:
            trial = coef - scale * step
            trial_value = objective(trial)
            if trial_value <= value or in_rounding:
                coef, value = trial, trial_value
                break
            scale /= 2.0
        else:
            reason = f"its line search stalled at iteration {iteration}"
            break
    else:
        reason = f"in {max_iter} iterations"
    raise NonConvergenceError(
        f"logistic fit did not converge {reason} "
        f"(max gradient {np.max(np.abs(grad)):.3e}, tol {tol:g})")


def fit_stage(spec: EstimandSpec, k: int, data: Dataset, prev: NuisanceFit | None = None,
              basis: Basis | None = None, basis_policy: str = "default", degree: int = 2,
              ridge: float | None = None, family: str | None = None) -> NuisanceFit:
    """Fit the stage-k regression.

    For the innermost stage the target is the outcome column; for k < K it is
    the pseudo-outcome apply_map(stage k+1 map, prev, row), so ``prev`` must
    be the stage-(k+1) fit. Subgroup outer stages simply include their
    conditioning variables (e.g. the treatment) among the regression
    features, so the outer map's point evaluation is well defined.
    """
    stage = spec.stage(k)
    if basis is None:
        basis = make_basis(basis_policy, stage.given, data, degree)
    if k == spec.depth:
        outcome = data.outcome
        target = data.column(outcome.name)
        if family is None:
            family = "logistic" if outcome.support == "binary" else "least_squares"
    else:
        if prev is None:
            raise SchemaError(f"stage {k} needs the stage-{k + 1} fit to build its pseudo-outcome")
        target = apply_map(spec.stage(k + 1).fmap, prev, data)
        if family is None:
            family = "least_squares"
    if family == "logistic":
        return fit_logistic(basis, data, target, ridge, k)
    if family == "least_squares":
        return fit_least_squares(basis, data, target, ridge, k)
    raise SchemaError(f"unknown nuisance family {family!r}")


def fit_all_stages(spec: EstimandSpec, data: Dataset, basis_policy: str = "default",
                   degree: int = 2, ridge: float | None = None,
                   outcome_family: str | None = None,
                   cache: dict | None = None) -> list[NuisanceFit]:
    """Fit Q_K down to Q_1; returns fits ordered outermost first.

    ``cache``, shared by calls on the same rows with the same settings, hands
    back a fit already made for the same stage chain: Q_k is keyed by stage
    k's conditioning set and subgroup, the stage-(k+1) map and Q_{k+1}'s key.
    """
    if spec.is_contrast:
        raise SchemaError("instantiate contrast specs before fitting nuisances")
    cache = {} if cache is None else cache
    fits: list = [None] * spec.depth
    prev = key = None
    for k in range(spec.depth, 0, -1):
        family = outcome_family if k == spec.depth else None
        stage = spec.stage(k)
        key = ("Q", stage.given, stage.where,
               spec.stage(k + 1).fmap if k < spec.depth else family, key)
        if key not in cache:
            cache[key] = fit_stage(spec, k, data, prev=prev, basis_policy=basis_policy,
                                   degree=degree, ridge=ridge, family=family)
        prev = fits[k - 1] = cache[key]
    return fits
