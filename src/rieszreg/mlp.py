"""Small ReLU multilayer perceptrons trained with Adam, in plain numpy.

The networks are deliberately tiny (default two hidden layers of four units)
and single-threaded, so fits are deterministic given their seed. The module
knows nothing about any particular loss: callers run ``forward_cached``,
supply the gradient of their loss with respect to each network output, and
``backward`` returns the parameter gradient, which ``AdamState.step``
applies in place. J networks of one shape train as the rows of a (J, P)
array, each layer a (J, fan_in + 1, fan_out) block, weights over bias row
(``views``), every activation a (J, units + 1, rows) slab over a ones row. A
layer is one stacked matmul forward and one for its weight and bias
gradients, each network's slab computed alone, so a network gets the same
bits in any batch. A workspace's or Adam state's ``lead`` views its first
rows, so the networks still training can run on without the ones that
stopped. Gradients can be audited via ``numeric_gradient``.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass

import numpy as np

from .errors import is_integer, is_real, require

BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor
# a network stops once its loss has not fallen by STOP_TOL * |best loss| for
# STOP_PATIENCE epochs (see riesz._train)
STOP_TOL, STOP_PATIENCE = 1e-5, 20


@dataclass(frozen=True)
class MlpConfig:
    hidden_layers: int = 2
    width: int = 4
    learning_rate: float = 1e-2
    epochs: int = 500  # the cap: a network stops earlier once its loss has converged
    batch_size: int | None = None  # None trains full-batch
    seed: int = 0

    def __post_init__(self):
        for name, low in (("hidden_layers", 1), ("width", 1), ("epochs", 0), ("seed", 0)):
            num = getattr(self, name)
            require(is_integer(num) and num >= low, f"{name} must be an integer >= {low}", num)
        require(self.batch_size is None or is_integer(self.batch_size) and self.batch_size >= 1,
                "batch_size must be None or an integer >= 1", self.batch_size)
        require(is_real(self.learning_rate) and 0 < self.learning_rate < np.inf,
                "learning_rate must be finite and positive", self.learning_rate)


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
    """Each layer's (..., fan_in + 1, fan_out) block of ``flat`` (..., P), its
    weights over its bias row, laid out as ``flatten`` lays out ``template``."""
    cuts = np.cumsum([w.size + b.size for w, b in template])[:-1]
    return [part.reshape(*flat.shape[:-1], len(w) + 1, b.size)
            for part, (w, b) in zip(np.split(flat, cuts, axis=-1), template)]


def forward(params, x: np.ndarray) -> np.ndarray:
    """Network output per row of ``x`` (rows, inputs), given (weights, bias) pairs."""
    inputs = np.vstack([x.T, np.ones(len(x))])[None]
    return Workspace(params, len(x)).forward(views(flatten(params)[None], params), inputs)[0][0]


def forward_cached(blocks, x: np.ndarray, work: Workspace):
    """Forward pass keeping the activations for ``backward``; ``x`` is the
    transpose of the (J, inputs + 1, rows) input slabs, whose last row is ones."""
    return work.forward(blocks, x.T)


def backward(blocks, activations, grad_out: np.ndarray, work: Workspace) -> np.ndarray:
    """``work.grad`` (J, P) given d(loss)/d(output) (J, rows), right after the
    forward pass: each layer's block is one stacked matmul of the activations
    below with the errors at its units, which then overwrite them. A hidden
    layer's ReLU mask is its units > 0; the forward pass leaves the last's."""
    delta = grad_out[:, None]
    for layer in range(len(blocks) - 1, -1, -1):
        below = activations[layer]
        np.matmul(below, delta.mT, out=work.grads[layer])
        if layer > 0:
            if layer < len(blocks) - 1:
                np.greater(below[:, :-1], 0.0, out=work.mask)
            # from the output's one row, W @ delta is an outer product: broadcast it
            product = np.multiply if delta.shape[1] == 1 else np.matmul
            delta = product(blocks[layer][:, :-1], delta, out=below[:, :-1])
            delta *= work.mask
    return work.grad


class Workspace:
    """The buffers of J networks' passes over ``rows`` rows, feature-major:
    each hidden layer's units over a fixed ones row; one ReLU mask (the hidden
    layers are of one width); the output; the (J, P) gradient and its blocks."""

    def __init__(self, template, rows: int, networks: int = 1):
        self.mask = np.empty((networks, template[0][1].size, rows))
        self.layers = ([np.ones((networks, b.size + 1, rows)) for _, b in template[:-1]]
                       + [np.empty((networks, 1, rows))])
        self.grad = np.empty((networks, sum(w.size + b.size for w, b in template)))
        self.grads = views(self.grad, template)

    def forward(self, blocks, x: np.ndarray):
        """(output (J, rows), activations) of ``x`` (J, inputs + 1, rows). ReLU
        multiplies units by their mask, so a pre-activation of -inf gives nan."""
        activations = [x]
        for block, buffer in zip(blocks[:-1], self.layers):
            units = np.matmul(block.mT, activations[-1], out=buffer[:, :-1])
            units *= np.greater(units, 0.0, out=self.mask)
            activations.append(buffer)
        return np.matmul(blocks[-1].mT, activations[-1], out=self.layers[-1])[:, 0], activations

    def lead(self, networks: int) -> Workspace:
        """This workspace's first ``networks`` slabs, sharing its buffers."""
        lead = copy(self)
        lead.mask, lead.grad = self.mask[:networks], self.grad[:networks]
        lead.layers, lead.grads = ([a[:networks] for a in part]
                                   for part in (self.layers, self.grads))
        return lead


class AdamState:
    """Moment accumulators shaped as the parameters, with bias correction."""

    def __init__(self, flat: np.ndarray):
        self.m, self.v, self.num, self.den = (np.zeros_like(flat) for _ in range(4))
        self.t = 0

    def lead(self, networks: int) -> AdamState:
        """The state of this one's first ``networks`` rows, sharing its buffers."""
        lead = copy(self)
        lead.m, lead.v, lead.num, lead.den = (a[:networks]
                                              for a in (self.m, self.v, self.num, self.den))
        return lead

    def step(self, flat: np.ndarray, grad: np.ndarray, config: MlpConfig) -> None:
        """Update ``flat`` in place by one Adam step on ``grad``, allocating no
        array: lr_t * m / (sqrt(v) + eps), in that order."""
        self.t += 1
        lr_t = config.learning_rate * np.sqrt(1 - BETA2 ** self.t) / (1 - BETA1 ** self.t)
        self.m *= BETA1
        self.m += np.multiply(grad, 1 - BETA1, out=self.num)
        self.v *= BETA2
        self.v += np.multiply(np.square(grad, out=self.den), 1 - BETA2, out=self.den)
        np.multiply(self.m, lr_t, out=self.num)
        self.num /= np.add(np.sqrt(self.v, out=self.den), ADAM_EPS, out=self.den)
        flat -= self.num


def flatten(params) -> np.ndarray:
    return np.concatenate([np.concatenate([w.ravel(), b.ravel()]) for w, b in params])


def unflatten(flat: np.ndarray, template):
    return [(block[:-1].copy(), block[-1].copy()) for block in views(flat, template)]


def numeric_gradient(loss_fn, flat: np.ndarray) -> np.ndarray:
    """Central finite differences of a scalar loss of the flat parameters."""
    grad, step = np.empty_like(flat), 1e-5
    for j in range(flat.size):
        bumped = flat.copy()
        bumped[j] += step
        hi = loss_fn(bumped)
        bumped[j] -= 2 * step
        lo = loss_fn(bumped)
        grad[j] = (hi - lo) / (2 * step)
    return grad
