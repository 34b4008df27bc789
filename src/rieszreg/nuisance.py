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
family. Cross-fit logistic regressions start from one fit on all rows and
reach every fold's own fit by fold-batched chord steps
(``fit_logistic_folds``).
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
POOLED_TOL = 1e-3  # the pooled fit only starts the fold fits (see fit_logistic_folds)
# relative rounding allowance of the mean log-loss, a sum over every row
OBJECTIVE_ROUNDING = 64 * np.finfo(np.float64).eps

IDENTITY_MAP = FunctionalMap((MapTerm(1.0, ()),), ())

NuisanceFit = SieveRieszFit  # the name under which the benchmark tracer times stage fits


def fit_least_squares(basis: Basis, data, target: np.ndarray,
                      ridge: float | None) -> SieveRieszFit:
    """Penalized least squares: the identity-map Riesz fit weighted by the target."""
    return fit_sieve(IDENTITY_MAP, data, basis, ridge=ridge, weights=target)


def fit_logistic(basis: Basis, data, target: np.ndarray, ridge: float | None,
                 tol: float = LOGISTIC_TOL, max_iter: int = LOGISTIC_MAX_ITER,
                 start: np.ndarray | None = None) -> SieveRieszFit:
    """Damped Newton on mean log-loss plus (ridge/2)*||coef||^2 from ``start``
    (default zero); converges when the largest gradient component falls
    below ``tol``, after one more full Newton step if the gradient was still
    halving, so the fit ends at the gradient's rounding floor.

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
    coef = np.zeros(dim) if start is None else np.array(start, dtype=np.float64)
    index = np.concatenate([d @ coef for d, _ in pieces])
    direction, trial_index, product = np.empty(n), np.empty(n), np.empty(n)
    value = objective(index, coef)
    condition, last, polish = np.nan, np.inf, False
    for iteration in range(1, max_iter + 1):
        probs = expit(index, out=direction)  # free until the step's direction
        grad = sum(d.T @ (probs[s] - y[s]) for d, s in pieces) / n + ridge * coef
        norm = np.max(np.abs(grad))
        if norm < tol and (polish or not norm < last / 2):
            return SieveRieszFit(basis, coef, float(ridge), condition, family="logistic",
                                 newton_iterations=iteration - 1)
        polish, last = norm < tol, norm
        probs *= 1 - probs
        hessian = sum((d * probs[s, None]).T @ d for d, s in pieces) / n
        step, condition = solve_normal_equations(hessian, grad, ridge,
                                                 what="logistic Hessian")
        in_rounding = polish or 0.5 * grad @ step <= OBJECTIVE_ROUNDING * abs(value)
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


def fit_logistic_folds(basis: Basis, designs: FoldDesigns, target: np.ndarray,
                       ridge: float | None, tol: float = LOGISTIC_TOL,
                       max_iter: int = LOGISTIC_MAX_ITER) -> list[SieveRieszFit]:
    """Every fold's logistic fit, from the fit c0 on all blocks: fold v takes
    chord steps c_v <- c_v - (sum_{u != v} H_u / n_v + ridge_v I)^-1 g_v(c_v),
    H_u being block u's Hessian sum at c0, so a step forms no Hessian and
    runs no line search, and one pass over the held design, block u's rows
    meeting every other fold's coefficients, gives every fold's gradient. A
    fold stops once its gradient is below ``tol`` and has stopped shrinking,
    the rounding floor where ``fit_logistic`` stops too; one whose gradient
    stops halving above ``tol`` takes the damped Newton from c0 instead. c0 only
    starts the folds, whose gradients there are of the order of the
    fold-to-fold sampling differences, so it is fitted to ``POOLED_TOL``."""
    if designs.folds < 2:
        return [fit_logistic(basis, designs, target, ridge, tol, max_iter)]
    c0 = fit_logistic(basis, designs, target, ridge, max(POOLED_TOL, tol), max_iter).coef
    folds, design, dim = designs.folds, designs.design(basis), basis.dim
    views, target = [designs.fold(v) for v in range(folds)], np.asarray(target, dtype=float)
    sizes = np.array([view.n_train for view in views], dtype=np.float64)
    ridges = np.array([default_ridge(view.gram(basis)) if ridge is None else ridge
                       for view in views])
    grads, hessians = np.zeros((folds, dim)), np.zeros((folds, dim, dim))  # block sums at c0
    for u, rows in designs.pieces(range(folds)):
        probs = expit(design[rows] @ c0)
        grads[u] += design[rows].T @ (probs - target[rows])
        probs *= 1 - probs
        hessians[u] += (design[rows] * probs[:, None]).T @ design[rows]
    # totals less a block: their rounding moves the chords' path, not where they end
    inverses, conditions = zip(*[solve_normal_equations(
        (hessians.sum(0) - hessians[v]) / sizes[v], np.eye(dim), ridges[v],
        what="logistic Hessian") for v in range(folds)])
    coefs, grads = np.tile(c0[:, None], folds), (grads.sum(0) - grads).T
    last, steps, active, fallback = np.full(folds, np.inf), [0] * folds, list(range(folds)), []
    for _ in range(max_iter):
        grads = grads / sizes + ridges * coefs
        for v in list(active):
            norm = np.max(np.abs(grads[:, v]))
            # below tol, done once the gradient stops shrinking (its rounding floor);
            # above it, a chord that no longer halves it gives way to the damped Newton
            if not norm < (last[v] if norm < tol else last[v] / 2):
                active.remove(v)
                if not norm < tol:
                    fallback.append(v)
            else:
                coefs[:, v] -= inverses[v] @ grads[:, v]
                last[v], steps[v] = norm, steps[v] + 1
        if not active:
            break
        grads = np.zeros((dim, folds))
        for u, rows in designs.pieces(range(folds)):
            others = [v for v in active if v != u]
            grads[:, others] += design[rows].T @ (
                expit(design[rows] @ coefs[:, others]) - target[rows, None])
    fits = [SieveRieszFit(basis, coefs[:, v].copy(), float(ridges[v]), conditions[v],
                          family="logistic", newton_iterations=steps[v]) for v in range(folds)]
    for v in fallback + active:
        fits[v] = fit_logistic(basis, views[v], target, ridges[v], tol, max_iter, start=c0)
    return fits


def fit_all_stages(spec: EstimandSpec, data: Dataset, basis_policy: str = "default",
                   degree: int = 2, ridge: float | None = None,
                   outcome_family: str | None = None) -> list[SieveRieszFit]:
    """Fit Q_K down to Q_1 on one dataset, the one-block case of
    ``fit_folds``; returns fits ordered outermost first."""
    fits, _ = fit_folds(spec, FoldDesigns(data), basis_policy, degree, ridge, outcome_family)
    return [stage[0] for stage in fits]


OUTCOME_FAMILIES = ("logistic", "least_squares")


def fit_folds(spec: EstimandSpec, designs: FoldDesigns, basis_policy: str, degree: int,
              ridge: float | None, outcome_family: str | None):
    """Fit Q_K down to Q_1 once per fold of ``designs``; Q_K is logistic for
    a binary outcome unless ``outcome_family`` says otherwise, its fold fits
    stepping from one pooled fit (``fit_logistic_folds``), and every
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
                designs.fits[key] = (
                    fit_logistic_folds(basis, designs, targets[0], ridge)
                    if k == depth and family == "logistic" else
                    [fit_least_squares(basis, designs.fold(v), targets[v], ridge)
                     for v in range(designs.folds)])
            fits[k - 1] = designs.fits[key]
    return fits, mapped
