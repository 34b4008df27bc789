"""Small ReLU multilayer perceptron trained with Adam, in plain numpy.

The network is deliberately tiny (default two hidden layers of four units)
and single-threaded, so fits are deterministic given their seed. The module
knows nothing about any particular loss: callers run ``forward_cached``,
supply the gradient of their loss with respect to the network output, and
``backward`` returns the flat parameter gradient, which ``AdamState.step``
applies in place to one flat parameter vector that the (weights, bias)
``views`` share. Analytic gradients can be audited against central finite
differences via ``numeric_gradient``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import is_integer, is_real, require


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
        for name, low in (("hidden_layers", 1), ("width", 1), ("epochs", 0), ("seed", 0)):
            num = getattr(self, name)
            require(is_integer(num) and num >= low, f"{name} must be an integer >= {low}", num)
        require(self.batch_size is None or is_integer(self.batch_size) and self.batch_size >= 1,
                "batch_size must be None or an integer >= 1", self.batch_size)
        for name in ("beta1", "beta2"):
            num = getattr(self, name)
            require(is_real(num) and 0 <= num < 1, f"{name} must lie in [0, 1)", num)
        for name in ("learning_rate", "adam_eps"):
            num = getattr(self, name)
            require(is_real(num) and 0 < num < np.inf, f"{name} must be finite and positive", num)


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


def views(flat: np.ndarray, template):
    """(weights, bias) views into ``flat``, laid out as ``flatten`` lays out
    ``template``."""
    params, offset = [], 0
    for w, b in template:
        params.append((flat[offset:offset + w.size].reshape(w.shape),
                       flat[offset + w.size:offset + w.size + b.size]))
        offset += w.size + b.size
    return params


def forward(params, x: np.ndarray, work=None) -> np.ndarray:
    """Network output per row of ``x`` (rows, inputs)."""
    return _forward(params, x, work)[0]


def forward_cached(params, x: np.ndarray, work=None):
    """Forward pass keeping the activations for ``backward``."""
    return _forward(params, x, work)


def _buffer(work: dict, slot, shape, dtype=np.float64) -> np.ndarray:
    """The ``shape`` buffer of ``slot`` in ``work``, a dict that every pass of
    one fit shares, so that a training step allocates none."""
    if (slot, shape) not in work:
        work[slot, shape] = np.empty(shape, dtype)
    return work[slot, shape]


def _forward(params, x: np.ndarray, work=None):
    """(output per row, activations). Activations are feature-major, (width,
    rows), so bias adds broadcast along the long axis and ``backward`` sums
    contiguous rows; pass ``x`` F-ordered to make ``x.T`` C-contiguous. A
    unit's pre-activation is positive exactly where its activation is."""
    work = {} if work is None else work
    activations = [x.T]
    for layer, (weights, bias) in enumerate(params):
        z = np.matmul(weights.T, activations[-1], out=_buffer(work, layer, (bias.size, len(x))))
        z += bias[:, None]
        if layer < len(params) - 1:
            activations.append(np.maximum(z, 0.0, out=z))
    return z[0], activations


def backward(params, activations, grad_out: np.ndarray, work=None) -> np.ndarray:
    """Flat parameter gradient, laid out as ``flatten``, given d(loss)/d(output)
    per row; given ``work`` (see ``_buffer``), it is the buffer ``work`` holds."""
    work = {} if work is None else work
    if "grad" not in work:
        grad = np.empty(sum(w.size + b.size for w, b in params))
        work["grad"] = grad, list(enumerate(views(grad, params)))[::-1]
    grad, layers = work["grad"]
    delta = grad_out[None, :]
    for layer, (gw, gb) in layers:
        np.matmul(activations[layer], delta.T, out=gw)
        np.add.reduce(delta, axis=1, out=gb)
        if layer > 0:
            shape = activations[layer].shape
            delta = np.matmul(params[layer][0], delta,
                              out=_buffer(work, ("delta", layer % 2), shape))
            delta *= np.greater(activations[layer], 0.0, out=_buffer(work, "mask", shape, bool))
    return grad


class AdamState:
    """Flat first/second moment accumulators with bias correction."""

    def __init__(self, flat: np.ndarray):
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.t = 0

    def step(self, flat: np.ndarray, grad: np.ndarray, config: MlpConfig) -> None:
        """Update ``flat`` in place by one Adam step on ``grad``."""
        self.t += 1
        b1, b2 = config.beta1, config.beta2
        lr_t = config.learning_rate * np.sqrt(1 - b2 ** self.t) / (1 - b1 ** self.t)
        np.add(b1 * self.m, (1 - b1) * grad, out=self.m)
        np.add(b2 * self.v, (1 - b2) * grad ** 2, out=self.v)
        flat -= lr_t * self.m / (np.sqrt(self.v) + config.adam_eps)


def flatten(params) -> np.ndarray:
    return np.concatenate([np.concatenate([w.ravel(), b.ravel()]) for w, b in params])


def unflatten(flat: np.ndarray, template):
    return [(w.copy(), b.copy()) for w, b in views(flat, template)]


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
