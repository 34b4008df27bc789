"""Shared numeric kernels: the sieves' normal-equation solver and expit."""

from __future__ import annotations

import warnings

import numpy as np

from .errors import RieszregError, SchemaError, SingularGramError

CONDITION_WARN_THRESHOLD = 1e10


def expit(x, out=None):
    """The logistic function 1 / (1 + exp(-x)) in float64, quiet where exp
    overflows; ``out`` may be ``x`` itself, and a scalar gives a scalar."""
    x = np.asarray(x, dtype=np.float64)
    out = np.negative(x, out=out if out is not None else np.empty_like(x))
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out if out.ndim else out[()]


def default_ridge(gram: np.ndarray) -> float:
    """Scale-aware stabilizer: 1e-6 * trace(G) / dim(G)."""
    d = gram.shape[0]
    return 1e-6 * float(np.trace(gram)) / d


def solve_normal_equations(gram, rhs, ridge, what="Gram matrix"):
    """Solve (G + ridge*I) x = rhs via Cholesky, refusing singular systems.

    Applies one iterative-refinement step so first-order conditions hold to
    near machine precision. Returns (x, condition_number); warns when the
    regularized system is ill conditioned, and refuses a non-finite one or a
    negative or non-finite ridge.
    """
    gram = np.asarray(gram, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    finite = np.isfinite(gram).all()  # an overflowed Gram also spoils the default ridge
    if finite and not (np.isfinite(ridge) and ridge >= 0):
        raise SchemaError(f"ridge must be finite and non-negative, got {ridge!r}")
    if not (finite and np.isfinite(rhs).all()):
        raise RieszregError(
            f"{what} or its right-hand side is not finite; "
            f"check map coefficients and weights for overflow")
    regularized = gram + ridge * np.eye(gram.shape[0])
    try:
        factor = np.linalg.cholesky(regularized)  # regularized = factor @ factor.T
    except np.linalg.LinAlgError:
        hint = "increase the ridge penalty or reduce the basis" if ridge == 0 \
            else "reduce the basis"
        raise SingularGramError(
            f"{what} is singular or indefinite (ridge={float(ridge)!r}); {hint}") from None
    x = np.zeros_like(rhs)
    for _ in range(2):  # a solve, then one iterative-refinement step
        x = x + np.linalg.solve(factor.T, np.linalg.solve(factor, rhs - regularized @ x))
    condition = float(np.linalg.cond(regularized))
    if condition > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"{what} condition number {condition:.3g} exceeds {CONDITION_WARN_THRESHOLD:.0e}; "
            f"solutions may be unreliable", RuntimeWarning, stacklevel=2)
    return x, condition
