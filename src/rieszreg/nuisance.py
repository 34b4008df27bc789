"""Stagewise conditional-expectation fits.

The innermost stage regresses the outcome on its conditioning set; every
outer stage regresses a pseudo-outcome, namely the previous stage's mapped
prediction, on its own conditioning set. Binary outcomes default to a
logistic sieve (damped Newton on the penalized log-likelihood); everything
else, pseudo-outcomes included, uses penalized least squares. That is the
identity-map Riesz fit with weights equal to the target (mean[f^2 - 2*y*f]
is mean[(y - f)^2] less a constant), so ``fit_least_squares`` returns the
sieve Riesz solver's fit as is, and on a basis shared with a Riesz fit its
residual is orthogonal to the weight's span by construction. Every stage
regression is a ``riesz.SieveRieszFit``; the logistic one has the logistic
family.
"""

from __future__ import annotations

import numpy as np

from ._linalg import default_ridge, expit, solve_normal_equations
from .basis import Basis, FoldDesigns, as_designs, intercept_basis, make_basis
from .data import Dataset
from .errors import NonConvergenceError, SchemaError
from .estimands import EstimandSpec, FunctionalMap, MapTerm
from .riesz import BlockWeights, SieveRieszFit, fit_sieve

LOGISTIC_TOL = 1e-9
LOGISTIC_MAX_ITER = 100
# relative rounding allowance of the mean log-loss, a sum over every row
OBJECTIVE_ROUNDING = 64 * np.finfo(np.float64).eps

IDENTITY_MAP = FunctionalMap((MapTerm(1.0, ()),), ())

NuisanceFit = SieveRieszFit  # the name under which the benchmark tracer times stage fits


def fit_least_squares(basis: Basis, data, target: np.ndarray,
                      ridge: float | None) -> SieveRieszFit:
    """Penalized least squares: the identity-map Riesz fit weighted by the target."""
    return fit_sieve(IDENTITY_MAP, data, basis, ridge=ridge, weights=target)


def fit_logistic(basis: Basis, data, target: np.ndarray, ridge: float | None,
                 tol: float = LOGISTIC_TOL,
                 max_iter: int = LOGISTIC_MAX_ITER) -> SieveRieszFit:
    """Damped Newton on mean log-loss plus (ridge/2)*||coef||^2; converges
    when the largest gradient component falls below ``tol``.

    ``data`` is a dataset or the training view of a ``FoldDesigns``; the
    training rows are read as views of the held design, piece by piece.
    ``design @ step`` is formed once per iteration, so a line-search trial
    costs an axpy and a log-loss pass. Once the step's predicted decrease
    grad.step/2 is below the rounding of the objective, the line search
    cannot tell better from worse; the fit is then deep in the quadratic
    region and takes the full Newton step."""
    designs = as_designs(data)
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (designs.n,):
        raise SchemaError(f"target has shape {target.shape}, expected ({designs.n},)")
    if not np.isin(target, (0.0, 1.0)).all():
        raise SchemaError("logistic fits require a 0/1 target")
    design, n, dim = designs.design(basis), designs.n_train, basis.dim
    rows = [rows for _, rows in designs.pieces(designs.train)]
    spans = np.cumsum([0] + [r.stop - r.start for r in rows])
    pieces = [(design[r], slice(a, b)) for r, a, b in zip(rows, spans, spans[1:])]
    y = np.concatenate([target[r] for r in rows])
    if ridge is None:
        ridge = default_ridge(designs.gram(basis))

    def objective(index, c):
        # log(1 + exp(index)) - y*index, computed without overflow
        loss = np.logaddexp(0.0, index)
        loss -= np.multiply(y, index, out=product)
        return float(np.mean(loss) + 0.5 * ridge * c @ c)

    # index = design @ coef; the other row vectors are reused work space
    coef, index = np.zeros(dim), np.zeros(n)
    direction, trial_index, product = np.empty(n), np.empty(n), np.empty(n)
    value = objective(index, coef)
    condition = np.nan
    for iteration in range(1, max_iter + 1):
        probs = expit(index)
        grad = sum(d.T @ (probs[s] - y[s]) for d, s in pieces) / n + ridge * coef
        if np.max(np.abs(grad)) < tol:
            return SieveRieszFit(basis, coef, float(ridge), condition, family="logistic",
                                 newton_iterations=iteration - 1)
        probs *= 1 - probs
        hessian = sum((d * probs[s, None]).T @ d for d, s in pieces) / n
        step, condition = solve_normal_equations(hessian, grad, ridge,
                                                 what="logistic Hessian")
        in_rounding = 0.5 * grad @ step <= OBJECTIVE_ROUNDING * abs(value)
        for d, s in pieces:
            np.matmul(d, step, out=direction[s])
        scale = 1.0
        while scale > 1e-10:
            trial = coef - scale * step
            np.multiply(direction, -scale, out=trial_index)
            trial_index += index
            trial_value = objective(trial_index, trial)
            if trial_value <= value or in_rounding:
                coef, value = trial, trial_value
                index, trial_index = trial_index, index
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


def fit_all_stages(spec: EstimandSpec, data: Dataset, basis_policy: str = "default",
                   degree: int = 2, ridge: float | None = None,
                   outcome_family: str | None = None) -> list[SieveRieszFit]:
    """Fit Q_K down to Q_1 on one dataset, the one-block case of
    ``fit_folds``; returns fits ordered outermost first."""
    fits, _ = fit_folds(spec, FoldDesigns(data), basis_policy, degree, ridge, outcome_family)
    return [stage[0] for stage in fits]


OUTCOME_FAMILIES = ("logistic", "least_squares")


def fit_folds(spec: EstimandSpec, designs: FoldDesigns, basis_policy: str = "default",
              degree: int = 2, ridge: float | None = None,
              outcome_family: str | None = None):
    """Fit Q_K down to Q_1 once per fold of ``designs``; Q_K is logistic for
    a binary outcome unless ``outcome_family`` says otherwise, and every
    pseudo-outcome takes least squares.

    Returns (fits, mapped): fits[k-1][v] is fold v's Q_k, and on block v
    mapped[k] is m_{k+1}(x; Q_{k+1}) of fold v's fit, for k = 0..K (mapped[0]
    is the plug-in map, mapped[K] the outcome). Below K, one pass over stage
    k+1's held observed design serves every fold, each map term acting on
    the fits' coefficients through its substitution matrix: each fold's
    target is known by the blocks D_u^T t_u of its pseudo-outcome t on stage
    k's design D, whose training blocks its least squares sums.

    ``designs.fits`` hands back fits already made for the same stage chain
    and settings: Q_k is keyed by the settings, stage k's conditioning set
    and subgroup, the stage-(k+1) map and Q_{k+1}'s key.
    """
    if spec.is_contrast:
        raise SchemaError("instantiate contrast specs before fitting nuisances")
    depth, dataset = spec.depth, designs.data
    binary = dataset.outcome.support == "binary"
    family = outcome_family or ("logistic" if binary else "least_squares")
    if family not in OUTCOME_FAMILIES:
        raise SchemaError(f"unknown nuisance family {family!r}; expected {OUTCOME_FAMILIES}")
    fits, mapped = [None] * depth, [None] * (depth + 1)
    mapped[depth] = dataset.column(dataset.outcome.name)
    targets, key = [mapped[depth]] * designs.folds, None
    for k in range(depth, -1, -1):  # k = 0 only evaluates stage 1's map
        basis = (make_basis(basis_policy, spec.stage(k).given, dataset, degree) if k
                 else intercept_basis())
        if k < depth:
            prev = fits[k]
            link = expit if prev[0].family == "logistic" else None
            mapped[k], blocks = designs.map_values(
                prev[0].basis, spec.stage(k + 1).fmap,
                np.column_stack([fit.coef for fit in prev]), link, basis)
            targets = [BlockWeights(blocks, unit) for unit in np.eye(designs.folds)]
        if k:
            stage = spec.stage(k)
            key = ("Q", basis_policy, degree, ridge, family, stage.given, stage.where,
                   spec.stage(k + 1).fmap if k < depth else None, key)
            if key not in designs.fits:
                fitter = fit_logistic if k == depth and family == "logistic" else fit_least_squares
                designs.fits[key] = [fitter(basis, designs.fold(v), targets[v], ridge)
                                     for v in range(designs.folds)]
            fits[k - 1] = designs.fits[key]
    return fits, mapped
