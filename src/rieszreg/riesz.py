"""Direct representer estimation by minimizing the empirical Riesz loss.

For a linear map m and candidate function f the loss is

    mean_i [ f(x_i)^2 - 2 * w_i * m(x_i; f) ]

whose population minimizer is the representer itself and whose minimum is
-E[representer^2] (Chernozhukov, Newey and Singh, Econometrica 2022). Two
fitters are provided: a closed-form linear sieve (exact normal-equation
minimizer over a feature dictionary, optionally ridged) and a small ReLU
network trained by Adam on backpropagated gradients of the same loss. Every
sieve fit is a ``SieveRieszFit``: stage regressions too, and the constant 1
weight of a marginal outermost stage. Nested estimands are handled
sequentially: each stage's fitted weight is the next stage's loss weight.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import mlp as mlp_net
from ._linalg import default_ridge, expit, solve_normal_equations
from .basis import Basis, as_designs, intercept_basis, make_basis
from .data import Dataset, as_columns
from .errors import SchemaError, TrainingDivergedError
from .estimands import EstimandSpec, FunctionalMap, apply_map, term_columns
from .mlp import MlpConfig
from .simulate import substream


def riesz_loss(fn, fmap: FunctionalMap, data, weights=None) -> float:
    """Empirical Riesz loss of ``fn``; weights enter the map term only."""
    cols, n = as_columns(data)
    weights = _check_weights(weights, n)
    observed = np.asarray(fn(cols), dtype=np.float64)
    mapped = apply_map(fmap, fn, data)
    return float(np.mean(observed ** 2) - 2.0 * np.mean(weights * mapped))


# ---------------------------------------------------------------------------
# Fitted representers
# ---------------------------------------------------------------------------

@dataclass
class SieveRieszFit:
    """The one sieve fit type, coefficients over a feature basis: Riesz
    weights, stage regressions (logistic ones apply ``expit``) and the
    constant outer weight."""

    basis: Basis
    coef: np.ndarray
    ridge: float
    gram_condition: float
    fitted_loss: float | None = None
    family: str = "least_squares"  # or "logistic"
    newton_iterations: int = 0

    def __call__(self, cols) -> np.ndarray:
        return self.on_design(self.basis.design(cols))

    def on_design(self, design: np.ndarray) -> np.ndarray:
        index = design @ self.coef
        return expit(index) if self.family == "logistic" else index


@dataclass
class MlpRieszFit:
    """Network representer: layer weights plus the training-loss curve."""

    columns: tuple[str, ...]
    params: list
    config: MlpConfig
    fitted_loss: float
    loss_curve: np.ndarray

    def __call__(self, cols) -> np.ndarray:
        return mlp_net.forward(self.params, _stack(cols, self.columns))


@dataclass
class ClosedFormRieszFit:
    """A representer given by rule, e.g. an exact inverse-probability form;
    the benchmark tracer patches its ``__call__``."""

    fn: object

    def __call__(self, cols) -> np.ndarray:
        return np.asarray(self.fn(cols), dtype=np.float64)


def constant_one_fit() -> SieveRieszFit:
    """A marginal outermost stage's weight: the intercept-only sieve fit of
    the one coefficient-1 term the parser allows there, the constant 1."""
    return SieveRieszFit(intercept_basis(), np.ones(1), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Sieve fitting
# ---------------------------------------------------------------------------

def fit_sieve(fmap: FunctionalMap, data, basis: Basis, ridge: float | None = None,
              weights=None) -> SieveRieszFit:
    """Exact minimizer of the (weighted, ridged) empirical Riesz loss over
    the basis span: (G + ridge*I) coef = mean_i[w_i * m(x_i; features)].

    ridge=None applies the scale-aware default; pass 0.0 for the exact
    unpenalized solution (errors if the Gram matrix is singular). With the
    identity map and weights equal to a target this is least squares.
    ``weights`` are None (all ones), per-row values, the previous stage's
    sieve fit, whose weight on a row is its design row times its coefficients,
    or ``BlockWeights``.
    ``data`` is a dataset or the training view of a ``FoldDesigns``.
    """
    _, gram, rhs = _sieve_system(basis, fmap, data, weights)
    if ridge is None:
        ridge = default_ridge(gram)
    coef, condition = solve_normal_equations(gram, rhs, ridge, what="sieve Gram matrix")
    loss = float(coef @ gram @ coef - 2.0 * coef @ rhs)
    return SieveRieszFit(basis, coef, float(ridge), condition, loss)


def _sieve_system(basis: Basis, fmap: FunctionalMap, data, weights):
    """(designs, Gram matrix, right-hand side) of the sieve normal equations
    over the training rows, the right-hand side being mean_i[w_i * m(x_i;
    feature)] per feature. Both are sums of per-block statistics. A weight
    given as a sieve fit enters through the cross blocks of the map's design
    with the fit's design, which every fold shares, times its coefficients."""
    designs = as_designs(data)
    weights = constant_one_fit() if weights is None else weights
    if isinstance(weights, SieveRieszFit):
        weights = BlockWeights(designs.cross(basis, fmap, weights.basis), weights.coef)
    elif not isinstance(weights, BlockWeights):
        weights = BlockWeights(designs.cross(basis, fmap, _check_weights(weights, designs.n)),
                               np.ones(1))
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = sum(weights.blocks[u] for u in designs.train) @ weights.coef / designs.n_train
    return designs, designs.gram(basis), rhs


@dataclass
class BlockWeights:
    """Weights W @ coef known only through per-block statistics: block u is
    the sum over the fitted map's terms of coef_t * M_u^T W_u."""

    blocks: list
    coef: np.ndarray


def representation_residuals(fit: SieveRieszFit, fmap: FunctionalMap, data,
                             weights=None) -> np.ndarray:
    """First-order-condition residuals, one per basis feature:

        mean[fit * feature] + ridge * coef - mean[w * m(.; feature)]

    With ridge 0 these are the finite-sample representation-identity gaps
    over the basis span; near machine zero certifies the fit."""
    designs, _, rhs = _sieve_system(fit.basis, fmap, data, weights)
    design = designs.design(fit.basis)
    lhs = design.T @ (design @ fit.coef) / designs.n + fit.ridge * fit.coef
    return lhs - rhs


# ---------------------------------------------------------------------------
# MLP fitting
# ---------------------------------------------------------------------------

def fit_mlp(fmap: FunctionalMap, data, config: MlpConfig, weights=None,
            columns=None) -> MlpRieszFit:
    """Minimize the same empirical loss by Adam on backpropagated gradients.

    ``columns`` fixes the network's input order (defaults to the map's free
    variables followed by its assigned variables). Training is deterministic
    given config.seed; the returned fit carries the full loss curve, the loss
    at the start of each epoch and then the final loss, with the final entry
    never above the initial one for epochs > 0 monitored by the divergence
    guard. Full batch is the one-batch case of the minibatch loop.
    """
    columns, inputs, n, map_grad = _mlp_problem(fmap, data, weights, columns)
    rng = substream(config.seed)
    init = mlp_net.init_params(len(columns), config, rng)
    flat = mlp_net.flatten(init)
    params = mlp_net.views(flat, init)
    state = mlp_net.AdamState(flat)
    work = {}  # buffers that every pass of this fit reuses
    batch = config.batch_size
    full_grad = map_grad / n  # its map-term rows never change

    def full_loss() -> float:
        return _mlp_loss(mlp_net.forward(params, inputs.T, work), full_grad, n)

    curve = []
    # overflow here is the divergence signal, not a numerical accident to warn on
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            if batch is None:
                batches = [(inputs, full_grad, n)]
            else:
                curve.append(full_loss())
                order = rng.permutation(n)
                batches = (_minibatch(inputs, map_grad, n, order[start:start + batch])
                           for start in range(0, n, batch))
            for x, grad_out, rows in batches:
                loss, grad = _mlp_gradient(params, x, grad_out, rows, work)
                state.step(flat, grad, config)
            if batch is None:
                curve.append(loss)  # the gradient pass yields the epoch's entry loss
            if not np.isfinite(curve[-1]):
                raise TrainingDivergedError(
                    f"training loss became non-finite at epoch {epoch} (loss={curve[-1]!r})")
        curve.append(full_loss())
    if not np.isfinite(curve[-1]):
        raise TrainingDivergedError(
            f"training loss became non-finite after epoch {config.epochs} (loss={curve[-1]!r})")
    return MlpRieszFit(columns, mlp_net.unflatten(flat, params), config, curve[-1],
                       np.asarray(curve))


def _mlp_problem(fmap: FunctionalMap, data, weights, columns):
    """The network's view of the Riesz loss: the input column order; the
    inputs, feature-major (columns, rows), of the observed rows followed by
    one block of rows per map term; the row count n; and the map terms'
    gradient of the loss with respect to each output, times the row count
    (-2 * coef * w on a term row, 0 on an observed row)."""
    cols, n = as_columns(data)
    weights = _check_weights(weights, n)
    if columns is None:
        assigned = [v for v in sorted(fmap.assigned_vars()) if v not in fmap.free_vars]
        columns = tuple(fmap.free_vars) + tuple(assigned)
    columns = tuple(columns)
    schema = data if isinstance(data, Dataset) else None
    terms = list(term_columns(fmap, cols, n, schema))
    blocks = [cols] + [overridden for _, overridden in terms]
    inputs = np.empty((len(columns), len(blocks) * n))
    for row, c in enumerate(columns):
        np.concatenate([np.asarray(block[c], dtype=np.float64) for block in blocks],
                       out=inputs[row])
    map_grad = np.concatenate([np.zeros(n)] + [-2.0 * coef * weights for coef, _ in terms])
    return columns, inputs, n, map_grad


def _minibatch(inputs, map_grad, n: int, rows):
    """The batch of training ``rows``, stacked as ``_mlp_problem`` stacks all
    rows: (inputs, output gradient with the map-term rows set, row count)."""
    index = (rows + np.arange(0, len(map_grad), n)[:, None]).ravel()
    return inputs[:, index], map_grad[index] / len(rows), len(rows)


def _mlp_gradient(params, x, grad_out, rows: int, work=None):
    """Loss and flat parameter gradient on a batch of ``rows`` observed rows
    followed by their term rows, feature-major. ``grad_out`` holds the map
    terms' output gradient; its observed rows are overwritten. The passes
    write into the buffers of ``work`` when given."""
    out, activations = mlp_net.forward_cached(params, x.T, work)
    loss = _mlp_loss(out, grad_out, rows)
    np.divide(np.multiply(out[:rows], 2.0, out=grad_out[:rows]), rows, out=grad_out[:rows])
    return loss, mlp_net.backward(params, activations, grad_out, work)


def _mlp_loss(out, grad_out, rows: int) -> float:
    """mean(f^2) over the observed rows minus 2 * mean(w * m(f)), the second
    part being the map-term rows of ``grad_out`` dotted with their outputs."""
    return float(out[:rows] @ out[:rows] / rows + grad_out[rows:] @ out[rows:])


def mlp_loss_gradients(fmap: FunctionalMap, data, config: MlpConfig, weights=None,
                       columns=None, step: float = 1e-5):
    """Analytic vs central-finite-difference loss gradients at the seeded
    initialization; returns (analytic, numeric) flat arrays. The analytic
    gradient is the one full-batch training steps on."""
    columns, inputs, n, map_grad = _mlp_problem(fmap, data, weights, columns)
    params = mlp_net.init_params(len(columns), config, substream(config.seed))
    grad_out = map_grad / n
    analytic = _mlp_gradient(params, inputs, grad_out, n)[1]
    numeric = mlp_net.numeric_gradient(
        lambda p: _mlp_loss(mlp_net.forward(p, inputs.T), grad_out, n), params, step=step)
    return analytic, numeric


# ---------------------------------------------------------------------------
# Sequential fitting for nested estimands
# ---------------------------------------------------------------------------

METHODS = ("sieve", "mlp")


def fit_sequential(spec: EstimandSpec, data, method: str = "sieve",
                   basis_policy: str = "default", degree: int = 2,
                   ridge: float | None = None, mlp_config: MlpConfig | None = None) -> list:
    """Fit one representer per stage, outermost first.

    Stage k's loss weights are the fitted stage k-1 weight (ones at k=1); a
    marginal outermost stage takes ``constant_one_fit`` without fitting.
    Every sieve weight is a ``SieveRieszFit``, handed on as its fit (see
    ``fit_sieve``), never evaluated; a network weight is handed on as values.
    ``data`` is a dataset or a fold view of a ``FoldDesigns``: sieves read
    its training blocks, networks train on its ``training_set()``. Its
    ``fits`` hands back a fit already made for the same stage chain: stage k
    is keyed by the training blocks, the settings, its content and the
    stage-(k-1) key.
    """
    if spec.is_contrast:
        raise SchemaError("instantiate contrast specs before fitting representers")
    if method not in METHODS:
        raise SchemaError(f"unknown Riesz method {method!r}; expected {METHODS}")
    if method == "mlp" and mlp_config is None:
        mlp_config = MlpConfig()
    designs = as_designs(data)
    rows = designs.training_set() if method == "mlp" else designs
    fits: list = []
    weights = key = None
    for k in range(1, spec.depth + 1):
        stage = spec.stage(k)
        key = ("alpha", designs.train, method, basis_policy, degree, ridge, mlp_config,
               stage, key)
        if key in designs.fits:
            fit = designs.fits[key]
        elif k == 1 and not stage.given:
            fit = constant_one_fit()
        elif method == "sieve":
            basis = make_basis(basis_policy, stage.given, designs.data, degree)
            fit = fit_sieve(stage.fmap, designs, basis, ridge=ridge, weights=weights)
        else:
            stage_seed = int(np.random.SeedSequence(
                mlp_config.seed, spawn_key=(k,)).generate_state(1)[0])
            fit = fit_mlp(stage.fmap, rows, replace(mlp_config, seed=stage_seed),
                          weights=weights, columns=stage.given)
        designs.fits[key] = fit
        fits.append(fit)
        if k < spec.depth:  # only a later stage reads the weights
            weights = fit if method == "sieve" else np.asarray(fit(rows.columns),
                                                                dtype=np.float64)
    return fits


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _check_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones(n)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise SchemaError(f"weights have shape {weights.shape}, expected ({n},)")
    return weights


def _stack(cols, columns) -> np.ndarray:
    if not columns:
        return np.empty((as_columns(cols)[1], 0))
    return np.column_stack([np.asarray(cols[c], dtype=np.float64) for c in columns])
