"""Direct representer estimation by minimizing the empirical Riesz loss.

For a linear map m and candidate function f the loss is

    mean_i [ f(x_i)^2 - 2 * w_i * m(x_i; f) ]

whose population minimizer is the representer itself and whose minimum is
-E[representer^2] (Chernozhukov, Newey and Singh, Econometrica 2022). Two
fitters are provided: a closed-form linear sieve (exact normal-equation
minimizer over a feature dictionary, optionally ridged) and a small ReLU
network trained by Adam on the same loss over each distinct input, in
batches (``fit_mlps``). Every sieve fit is a ``SieveRieszFit``: stage
regressions too, and the constant 1 weight of a marginal outermost stage.
Nested estimands are handled sequentially, level by level (``fit_chains``):
each stage's fitted weight is the next stage's loss weight.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import mlp as mlp_net
from ._linalg import default_ridge, expit, solve_normal_equations
from .basis import Basis, as_designs, intercept_basis, make_basis
from .data import Dataset, as_columns
from .errors import SchemaError, TrainingDivergedError, require
from .estimands import EstimandSpec, FunctionalMap, apply_map, term_columns
from .mlp import MlpConfig
from .simulate import spawn_seed, substream


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
        x = np.array([cols[c] for c in self.columns], dtype=np.float64)
        return mlp_net.forward(self.params, x.reshape(-1, as_columns(cols)[1]).T)


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

def fit_mlp(fmap: FunctionalMap, data, config: MlpConfig, weights=None, *,
            columns) -> MlpRieszFit:
    """Minimize the same empirical loss by Adam on backpropagated gradients
    (``fit_mlps`` of one problem, raising its error). ``columns`` names the
    network's inputs, in order. Training is deterministic given config.seed. It
    stops at ``config.epochs`` or, earlier, once the loss has converged: after
    mlp.STOP_PATIENCE epochs in a row whose entry loss did not fall below the
    best by mlp.STOP_TOL * |best|. A network that stops at epoch e is the one
    trained with epochs=e. The fit carries the loss curve, the loss at the
    start of each epoch trained and then the fitted loss (e + 1 entries),
    which the divergence guard requires to be finite.
    """
    (fit,) = fit_mlps([(fmap, data, weights, columns)], config)
    if isinstance(fit, Exception):
        raise fit
    return fit


def fit_mlps(problems, config: MlpConfig) -> list:
    """One network per (fmap, data, weights, columns) problem, as ``fit_mlp``
    trains it; each result is the fit or the problem's error. Full-batch, the
    networks of equal (inputs, padded rows) train in one Adam loop. Shape
    rule: a network's padded problem depends only on its own data, so it
    trains, and stops, to the same bits in any batch, alone included (BLAS
    sums a product padded to another length in another order). Minibatches:
    with ``config.batch_size`` set, each network trains alone on its stacked
    rows."""
    results, batches = [], {}
    for args in problems:
        try:
            problem = _mlp_problem(*args, distinct=config.batch_size is None)
            batches.setdefault(problem.inputs.shape if config.batch_size is None
                               else len(results), []).append((len(results), problem))
            results.append(problem.columns)
        except Exception as exc:  # the problem's error is its result
            results.append(exc)
    problem = None  # the batches hold the problems; each batch's are freed once stacked
    for shape in list(batches):
        batch = [i for i, _ in batches[shape]]
        init, flat, curves, stops = _train([problem for _, problem in batches.pop(shape)], config)
        for j, i in enumerate(batch):
            curve = curves[:stops[j] + 1, j].copy()
            bad = np.flatnonzero(~np.isfinite(curve))
            results[i] = TrainingDivergedError(
                f"training loss became non-finite at epoch {bad[0]} of {config.epochs} "
                f"(loss={float(curve[bad[0]])!r})") if bad.size else MlpRieszFit(
                results[i], mlp_net.unflatten(flat[j], init), config,
                float(curve[-1]), curve)
    return results


_MlpProblem = namedtuple("_MlpProblem", "columns inputs q lin n")


def _mlp_problem(fmap: FunctionalMap, data, weights, columns,
                 distinct: bool = True) -> _MlpProblem:
    """The loss of ``fit_mlp``'s arguments: over the columns x of ``inputs``
    (columns + 1, rows; the last row ones), the sum of q f(x)^2 / 2 + lin
    f(x), q and lin times n. Stacked: the n observed rows (q = 2), then one
    block of rows per map term (lin = -2 * coef * w). Distinct: each distinct
    input once, those of observed rows first, q and lin summed over its rows,
    padded with q = lin = 0 to a multiple of 64."""
    cols, n = as_columns(data)
    weights = _check_weights(weights, n)
    columns = tuple(columns)
    for c in columns:
        require(c in cols, "network inputs must be columns of the data", c)
    schema = data if isinstance(data, Dataset) else None
    terms = list(term_columns(fmap, cols, n, schema))
    blocks = [cols] + [overridden for _, overridden in terms]
    inputs = np.ones((len(columns) + 1, len(blocks) * n))
    for row, c in enumerate(columns):
        np.concatenate([np.asarray(block[c], dtype=np.float64) for block in blocks],
                       out=inputs[row])
    q = np.concatenate([np.full(n, 2.0), np.zeros(len(terms) * n)])
    lin = np.concatenate([np.zeros(n)] + [-2.0 * coef * weights for coef, _ in terms])
    if not distinct:
        return _MlpProblem(columns, inputs, q, lin, n)
    values, inverse = _distinct_columns(inputs)
    stacked = np.vstack([values] + [np.bincount(inverse, part) for part in (q, lin)])
    order = np.argsort(stacked[-2] == 0, kind="stable")  # observed inputs first
    padded = np.zeros((len(stacked), -(-len(order) // 64) * 64))
    padded[:, :len(order)] = stacked[:, order]
    return _MlpProblem(columns, padded[:-2], padded[-2], padded[-1], n)


def _distinct_columns(inputs: np.ndarray):
    """(values, inverse) as ``np.unique(inputs, axis=1, return_inverse=True)``
    gives them: the distinct columns in lexicographic order, the first row
    leading, and each column's index among them; by one lexsort."""
    order = np.lexsort(inputs[::-1])
    ordered = inputs[:, order]
    first = np.ones(len(order), dtype=bool)  # a column that differs from the one before
    np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=first[1:])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[:, first], inverse


def _train(problems, config: MlpConfig):
    """Train one network per problem of one shape, from one seeded start, as
    the rows of a (J, P) parameter array; returns (template, parameters,
    curves, stops), curves[e, j] network j's loss at the start of epoch e for
    e up to stops[j]. A network stops at the ``config.epochs`` cap or, taking
    no step there, at the epoch its loss converges (``_converged``). The
    networks still training lead every per-network array, and each epoch runs
    only them: a stopped network leaves their leading views."""
    rng = substream(config.seed)
    init = mlp_net.init_params(len(problems[0].columns), config, rng)
    params = np.tile(mlp_net.flatten(init), (len(problems), 1))
    flat, state, blocks = params, mlp_net.AdamState(params), mlp_net.views(params, init)
    x = np.stack([p.inputs for p in problems])
    q, lin = (np.stack([getattr(p, part) / p.n for p in problems]) for part in ("q", "lin"))
    curves, dropped, buffers = np.empty((config.epochs + 1, len(params))), np.empty(1), {}
    # the network in each row; each network's stop epoch
    networks, stops = np.arange(len(params)), np.full(len(params), config.epochs)
    best, last = np.full(len(params), np.inf), np.full(len(params), -1)  # see _converged
    problem = problems[0] if config.batch_size else None  # a minibatch's stacked rows
    del problems  # the only reference: full-batch problems are freed once stacked

    def step(x, q, lin, loss, train=True):  # twice the losses, then the gradient if train
        if x.shape[-1] not in buffers:  # made once per row count
            buffers[x.shape[-1]] = (mlp_net.Workspace(init, x.shape[-1], len(x)),
                                    (np.empty(q.shape), np.empty(len(q))))
        work, spare = buffers[x.shape[-1]]
        if not train:
            return _mlp_gradient(work.forward(blocks, x)[0], q, lin, loss, spare)
        out, activations = mlp_net.forward_cached(blocks, x.T, work)
        return mlp_net.backward(blocks, activations, _mlp_gradient(out, q, lin, loss, spare), work)

    # overflow here is the divergence signal, read off the curves afterwards
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            # the gradient pass yields the entry loss; a minibatch epoch's is a pass of its own
            grad = step(x, q, lin, curves[epoch, :len(flat)], train=config.batch_size is None)
            stopped = _converged(curves[epoch, :len(flat)], best, last, epoch)
            if stopped.any():  # move the stopped networks behind the running ones
                moved, running = np.argsort(stopped, kind="stable"), len(flat) - stopped.sum()
                for part in (flat, state.m, state.v, grad, x, q, lin, best, last,
                             networks[:len(flat)]):
                    part[:] = part[moved]
                curves[:epoch + 1, :len(flat)] = curves[:epoch + 1, moved]
                stops[networks[running:len(flat)]] = epoch
                flat, grad, x, q, lin, best, last = (
                    part[:running] for part in (flat, grad, x, q, lin, best, last))
                state, blocks = state.lead(running), mlp_net.views(flat, init)
                buffers = {size: (work.lead(running), tuple(a[:running] for a in spare))
                           for size, (work, spare) in buffers.items()}
            if not len(flat):
                break
            if config.batch_size is None:
                state.step(flat, grad, config)
                continue
            order = rng.permutation(problem.n)
            for start in range(0, problem.n, config.batch_size):
                rows = order[start:start + config.batch_size]
                index = (rows + np.arange(0, x.shape[-1], problem.n)[:, None]).ravel()
                state.step(flat, step(x[:, :, index], problem.q[None, index] / len(rows),
                                      problem.lin[None, index] / len(rows), dropped), config)
        if len(flat):
            step(x, q, lin, curves[-1, :len(flat)], train=False)
    back = np.argsort(networks)
    return init, params[back], curves[:, back] / 2, stops


def _converged(loss, best, last, epoch: int) -> np.ndarray:
    """The stop rule at ``epoch`` on its entry losses ``loss``, updating
    ``best`` and ``last`` in place: a finite loss at most best - STOP_TOL *
    |best| improves (any does on the initial inf, whose bound is nan), and
    ``last`` is the epoch of the last improvement; then best is the least
    finite loss. True where STOP_PATIENCE epochs in a row have not improved."""
    finite = np.isfinite(loss)
    improved = finite & ~(loss > best - mlp_net.STOP_TOL * np.abs(best))
    np.copyto(last, epoch, where=improved)
    np.minimum(best, loss, out=best, where=finite)
    return last <= epoch - mlp_net.STOP_PATIENCE


def _mlp_gradient(out, q, lin, loss, spare):
    """The gradient q f + lin of the loss sum(q f^2 / 2 + lin f) in outputs f
    (J, rows), in ``spare[0]``; twice the losses (J,) in ``loss``."""
    grad = np.multiply(q, out, out=spare[0])
    grad += lin
    np.matmul(out[:, None], grad[:, :, None], out=loss[:, None, None])
    loss += np.matmul(out[:, None], lin[:, :, None], out=spare[1][:, None, None])[:, 0, 0]
    return grad


def mlp_loss_gradients(fmap: FunctionalMap, data, config: MlpConfig, weights=None, *,
                       columns):
    """Analytic vs central-finite-difference loss gradients at the seeded
    initialization; returns (analytic, numeric) flat arrays. The analytic
    gradient is the one full-batch training steps on."""
    problem = _mlp_problem(fmap, data, weights, columns)
    params = mlp_net.init_params(len(problem.columns), config, substream(config.seed))
    x, q, lin = problem.inputs[None], problem.q[None] / problem.n, problem.lin[None] / problem.n
    work, loss = mlp_net.Workspace(params, x.shape[-1]), np.empty(1)
    spare = np.empty(q.shape), np.empty(1)

    def gradient(flat, analytic=False):
        blocks = mlp_net.views(flat[None], params)
        out, activations = mlp_net.forward_cached(blocks, x.T, work)
        grad = _mlp_gradient(out, q, lin, loss, spare)
        return mlp_net.backward(blocks, activations, grad, work)[0] if analytic else loss[0] / 2

    flat = mlp_net.flatten(params)
    return gradient(flat, analytic=True), mlp_net.numeric_gradient(gradient, flat)


# ---------------------------------------------------------------------------
# Sequential fitting for nested estimands
# ---------------------------------------------------------------------------

METHODS = ("sieve", "mlp")


def fit_sequential(spec: EstimandSpec, data, method: str = "sieve",
                   basis_policy: str = "default", degree: int = 2,
                   ridge: float | None = None, mlp_config: MlpConfig = MlpConfig()) -> list:
    """Fit one representer per stage, outermost first (``fit_chains`` of one
    chain, raising its error). Stage k's loss weights are the fitted stage
    k-1 weight (ones at k=1); a marginal outermost stage takes
    ``constant_one_fit`` without fitting. Every sieve weight is a
    ``SieveRieszFit``, handed on as its fit (see ``fit_sieve``), never
    evaluated; a network weight is handed on as values. ``data`` is a dataset
    or a fold view of a ``FoldDesigns``: sieves read its training blocks,
    networks train on its ``training_set()``. Its ``fits`` hands back a fit
    already made for the same stage chain: stage k is keyed by the training
    blocks, the settings, its content and the stage-(k-1) key.
    """
    (fits,) = fit_chains([(spec, data)], method, basis_policy, degree, ridge, mlp_config)
    if isinstance(fits, Exception):
        raise fits
    return fits


def fit_chains(chains, method: str, basis_policy: str, degree: int, ridge: float | None,
               mlp_config: MlpConfig | None) -> list:
    """Each (spec, data) chain's fits as ``fit_sequential`` makes them, level
    by level, a level's networks in one ``fit_mlps`` call. Per-fold errors:
    the chains on one data object are a fold, whose error is its value: its
    chains yield its first error in (level, chain) order and its later levels
    are skipped, while the other folds go on. ``fits`` memoizes errors too."""
    if any(spec.is_contrast for spec, _ in chains):
        raise SchemaError("instantiate contrast specs before fitting representers")
    if method not in METHODS:
        raise SchemaError(f"unknown Riesz method {method!r}; expected {METHODS}")
    designs = [as_designs(data) for _, data in chains]  # a fold's chains share its rows
    rows = {id(view): view.training_set() for view in dict.fromkeys(designs) if method == "mlp"}
    fits, errors = [[] for _ in chains], {}  # errors by fold
    keys, weights = [None] * len(chains), [None] * len(chains)
    for k in range(1, max(spec.depth for spec, _ in chains) + 1):
        stages = {i: spec.stage(k) for i, (spec, _) in enumerate(chains)
                  if k <= spec.depth and id(designs[i]) not in errors}
        nets = {}  # a network's key -> the first chain that needs it
        for i, stage in stages.items():
            keys[i] = ("alpha", designs[i].train, method, basis_policy, degree, ridge, mlp_config,
                       stage, keys[i])
            if keys[i] in designs[i].fits or keys[i] in nets:
                continue
            if k == 1 and not stage.given:
                designs[i].fits[keys[i]] = constant_one_fit()
            elif method == "mlp":
                nets[keys[i]] = i
            else:
                try:
                    designs[i].fits[keys[i]] = fit_sieve(stage.fmap, designs[i], make_basis(
                        basis_policy, stage.given, designs[i].data, degree), ridge, weights[i])
                except Exception as exc:  # the fold's error is its value
                    designs[i].fits[keys[i]] = exc
        if nets:
            made = fit_mlps([(stages[i].fmap, rows[id(designs[i])], weights[i], stages[i].given)
                             for i in nets.values()],
                            replace(mlp_config, seed=spawn_seed(mlp_config.seed, k)))
            for i, fit in zip(nets.values(), made):
                designs[i].fits[keys[i]] = fit
        for i in stages:  # in (level, chain) order
            fit = designs[i].fits[keys[i]]
            if id(designs[i]) in errors or isinstance(fit, Exception):
                errors.setdefault(id(designs[i]), fit)
                continue
            fits[i].append(fit)
            if k < chains[i][0].depth:  # only a later stage reads the weights
                weights[i] = fit if method == "sieve" else fit(rows[id(designs[i])].columns)
    return [errors.get(id(view), fit) for view, fit in zip(designs, fits)]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _check_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones(n)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise SchemaError(f"weights have shape {weights.shape}, expected ({n},)")
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        raise SchemaError(f"weights must be finite; row {bad[0]} has {weights[bad[0]]}")
    return weights
