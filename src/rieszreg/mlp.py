"""Small ReLU multilayer perceptron trained with Adam, in plain numpy.

The network is deliberately tiny (default two hidden layers of four units)
and single-threaded, so fits are deterministic given their seed. The module
knows nothing about any particular loss: callers run ``forward_cached``,
supply the gradient of their loss with respect to the network output, and
``backward`` returns parameter gradients. Analytic gradients can be audited
against central finite differences via ``numeric_gradient``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemaError


@dataclass(frozen=True)
class MlpConfig:
    hidden_layers: int = 2
    width: int = 4
    learning_rate: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 500
    batch_size: int | None = None  # None trains full-batch
    seed: int = 0

    def __post_init__(self):
        if self.hidden_layers < 1 or self.width < 1:
            raise SchemaError("hidden_layers and width must be positive")
        if self.epochs < 0:
            raise SchemaError("epochs must be >= 0")
        if self.learning_rate <= 0:
            raise SchemaError("learning rate must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise SchemaError("batch size must be positive when given")


def init_params(n_inputs: int, config: MlpConfig, rng: np.random.Generator):
    """Uniform init scaled by fan-in; returns a list of (weights, bias)."""
    sizes = [n_inputs] + [config.width] * config.hidden_layers + [1]
    params = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(max(fan_in, 1))
        weights = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        bias = rng.uniform(-bound, bound, size=fan_out)
        params.append((weights, bias))
    return params


def forward(params, x: np.ndarray) -> np.ndarray:
    out = x
    for weights, bias in params[:-1]:
        out = np.maximum(out @ weights + bias, 0.0)
    weights, bias = params[-1]
    return (out @ weights + bias)[:, 0]


def forward_cached(params, x: np.ndarray):
    """Forward pass keeping pre-activations for backprop."""
    activations = [x]
    pre = []
    out = x
    for weights, bias in params[:-1]:
        z = out @ weights + bias
        pre.append(z)
        out = np.maximum(z, 0.0)
        activations.append(out)
    weights, bias = params[-1]
    final = (out @ weights + bias)[:, 0]
    return final, (activations, pre)


def backward(params, cache, grad_out: np.ndarray):
    """Parameter gradients given d(loss)/d(output) per row."""
    activations, pre = cache
    grads = [None] * len(params)
    delta = grad_out[:, None]
    for layer in range(len(params) - 1, -1, -1):
        weights, _ = params[layer]
        grads[layer] = (activations[layer].T @ delta,
                        delta.sum(axis=0))
        if layer > 0:
            delta = (delta @ weights.T) * (pre[layer - 1] > 0.0)
    return grads


class AdamState:
    """First/second moment accumulators with bias correction."""

    def __init__(self, params):
        self.m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
        self.v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
        self.t = 0

    def step(self, params, grads, config: MlpConfig):
        self.t += 1
        b1, b2 = config.beta1, config.beta2
        lr_t = config.learning_rate * np.sqrt(1 - b2 ** self.t) / (1 - b1 ** self.t)
        new_params = []
        for i, ((w, b), (gw, gb)) in enumerate(zip(params, grads)):
            mw, mb = self.m[i]
            vw, vb = self.v[i]
            mw = b1 * mw + (1 - b1) * gw
            mb = b1 * mb + (1 - b1) * gb
            vw = b2 * vw + (1 - b2) * gw ** 2
            vb = b2 * vb + (1 - b2) * gb ** 2
            self.m[i] = (mw, mb)
            self.v[i] = (vw, vb)
            new_params.append((
                w - lr_t * mw / (np.sqrt(vw) + config.adam_eps),
                b - lr_t * mb / (np.sqrt(vb) + config.adam_eps),
            ))
        return new_params


def flatten(params) -> np.ndarray:
    return np.concatenate([np.concatenate([w.ravel(), b.ravel()]) for w, b in params])


def unflatten(flat: np.ndarray, template):
    params = []
    offset = 0
    for w, b in template:
        wsize, bsize = w.size, b.size
        params.append((
            flat[offset:offset + wsize].reshape(w.shape).copy(),
            flat[offset + wsize:offset + wsize + bsize].copy(),
        ))
        offset += wsize + bsize
    return params


def numeric_gradient(loss_fn, params, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss over all parameters."""
    flat = flatten(params)
    grad = np.empty_like(flat)
    for j in range(flat.size):
        bumped = flat.copy()
        bumped[j] += step
        hi = loss_fn(unflatten(bumped, params))
        bumped[j] -= 2 * step
        lo = loss_fn(unflatten(bumped, params))
        grad[j] = (hi - lo) / (2 * step)
    return grad
