import numpy as np
import pytest

from rieszreg import (
    MlpConfig,
    SchemaError,
    TrainingDivergedError,
    builtin_spec,
    fit_mlp,
    mlp_loss_gradients,
    simulate,
    substream,
)
from rieszreg import mlp as net
from rieszreg.estimands import term_columns


class TestNetwork:
    def test_forward_matches_manual_two_layer(self):
        rng = substream(1)
        params = net.init_params(3, MlpConfig(seed=1), rng)
        x = substream(2).normal(size=(7, 3))
        h = x
        for w, b in params[:-1]:
            h = np.maximum(h @ w + b, 0.0)
        w, b = params[-1]
        np.testing.assert_allclose(net.forward(params, x), (h @ w + b)[:, 0])

    def test_flatten_round_trip(self):
        params = net.init_params(2, MlpConfig(seed=3), substream(3))
        again = net.unflatten(net.flatten(params), params)
        for (w1, b1), (w2, b2) in zip(params, again):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)

    def test_config_validation(self):
        with pytest.raises(SchemaError):
            MlpConfig(width=0)
        with pytest.raises(SchemaError):
            MlpConfig(learning_rate=0.0)
        with pytest.raises(SchemaError):
            MlpConfig(epochs=-1)
        with pytest.raises(SchemaError):
            MlpConfig(batch_size=0)

    # unchecked, each would end in a misleading TrainingDivergedError, a bare
    # TypeError, or silent training
    @pytest.mark.parametrize("setting", [
        {"beta1": 1.0}, {"beta1": -0.5}, {"beta2": 1.5}, {"adam_eps": 0.0},
        {"adam_eps": -1e-8}, {"adam_eps": float("inf")}, {"learning_rate": float("nan")},
        {"learning_rate": float("inf")}, {"width": 2.5}, {"epochs": 2.5},
        {"batch_size": 2.5}, {"hidden_layers": True}, {"seed": 2.5},
        {"learning_rate": True}, {"adam_eps": True}, {"beta1": False}, {"beta2": "0.9"},
        {"seed": -1}, {"batch_size": True},
    ], ids=repr)
    def test_corrupting_settings_refused(self, setting):
        with pytest.raises(SchemaError):
            MlpConfig(**setting)


class TestGradients:
    def test_backprop_matches_central_differences(self, appendix_dgp):
        data = simulate(appendix_dgp, 16, 5)
        spec = builtin_spec("nde").instantiate(1.0)
        weights = substream(5, 2).uniform(0.5, 1.5, size=data.n)
        analytic, numeric = mlp_loss_gradients(
            spec.stage(3).fmap, data, MlpConfig(seed=5), weights=weights,
            columns=spec.stage(3).given)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_gradient_check_on_difference_map(self, discrete_data):
        small = discrete_data.subset(np.arange(16))
        analytic, numeric = mlp_loss_gradients(
            builtin_spec("ate").stage(2).fmap, small, MlpConfig(seed=11),
            columns=("A", "W"))
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("hidden_layers", [1, 3])
    @pytest.mark.parametrize("width", [1, 7])
    def test_gradient_check_across_shapes(self, appendix_dgp, hidden_layers, width):
        data = simulate(appendix_dgp, 16, 5)
        spec = builtin_spec("nde").instantiate(1.0)
        weights = substream(5, 2).uniform(0.5, 1.5, size=data.n)
        config = MlpConfig(hidden_layers=hidden_layers, width=width, seed=5)
        analytic, numeric = mlp_loss_gradients(
            spec.stage(3).fmap, data, config, weights=weights, columns=spec.stage(3).given)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


class TestTraining:
    def test_zero_epochs_returns_initialization(self, discrete_data):
        fmap = builtin_spec("ate").stage(2).fmap
        config = MlpConfig(epochs=0, seed=8)
        fit = fit_mlp(fmap, discrete_data, config, columns=("A", "W"))
        init = net.init_params(2, config, substream(8))
        for (w1, b1), (w2, b2) in zip(fit.params, init):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)
        assert fit.loss_curve.shape == (1,)

    def test_deterministic_given_seed(self, discrete_data):
        fmap = builtin_spec("ate").stage(2).fmap
        config = MlpConfig(epochs=40, seed=8)
        one = fit_mlp(fmap, discrete_data, config, columns=("A", "W"))
        two = fit_mlp(fmap, discrete_data, config, columns=("A", "W"))
        np.testing.assert_array_equal(one.loss_curve, two.loss_curve)
        for (w1, b1), (w2, b2) in zip(one.params, two.params):
            np.testing.assert_array_equal(w1, w2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_final_loss_never_above_initial(self, discrete_data, seed):
        fmap = builtin_spec("ate").stage(2).fmap
        fit = fit_mlp(fmap, discrete_data, MlpConfig(epochs=200, seed=seed),
                      columns=("A", "W"))
        assert fit.fitted_loss <= fit.loss_curve[0]

    def test_divergence_detector(self, discrete_data):
        fmap = builtin_spec("ate").stage(2).fmap
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            fit_mlp(fmap, discrete_data,
                    MlpConfig(learning_rate=1e150, epochs=30, seed=0),
                    columns=("A", "W"))

    def test_batch_training_deterministic_and_reasonable(self, discrete_data):
        fmap = builtin_spec("ate").stage(2).fmap
        config = MlpConfig(learning_rate=0.05, epochs=30, batch_size=256, seed=4)
        one = fit_mlp(fmap, discrete_data, config, columns=("A", "W"))
        two = fit_mlp(fmap, discrete_data, config, columns=("A", "W"))
        np.testing.assert_array_equal(one.loss_curve, two.loss_curve)
        assert one.fitted_loss < one.loss_curve[0]

    def test_later_fit_leaves_earlier_fit_unchanged(self, discrete_data):
        fmap = builtin_spec("ate").stage(2).fmap
        first = fit_mlp(fmap, discrete_data, MlpConfig(epochs=20, seed=1), columns=("A", "W"))
        params = [(w.copy(), b.copy()) for w, b in first.params]
        predicted = first(discrete_data.columns)
        fit_mlp(fmap, discrete_data, MlpConfig(epochs=20, seed=2), columns=("A", "W"))
        for (w1, b1), (w2, b2) in zip(first.params, params):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(first(discrete_data.columns), predicted)


# ---------------------------------------------------------------------------
# Reference: the row-major training step that the fused feature-major step
# replaced, kept as the parity reference.
# ---------------------------------------------------------------------------

def _reference_forward_cached(params, x):
    activations, pre, out = [x], [], x
    for weights, bias in params[:-1]:
        z = out @ weights + bias
        pre.append(z)
        out = np.maximum(z, 0.0)
        activations.append(out)
    weights, bias = params[-1]
    return (out @ weights + bias)[:, 0], (activations, pre)


def _reference_backward(params, cache, grad_out):
    activations, pre = cache
    grads = [None] * len(params)
    delta = grad_out[:, None]
    for layer in range(len(params) - 1, -1, -1):
        weights, _ = params[layer]
        grads[layer] = (activations[layer].T @ delta, delta.sum(axis=0))
        if layer > 0:
            delta = (delta @ weights.T) * (pre[layer - 1] > 0.0)
    return grads


def _reference_adam_step(params, grads, state, config):
    state["t"] += 1
    b1, b2, t = config.beta1, config.beta2, state["t"]
    lr_t = config.learning_rate * np.sqrt(1 - b2 ** t) / (1 - b1 ** t)
    new_params = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state["m"][i] = [b1 * m + (1 - b1) * gi for m, gi in zip(state["m"][i], g)]
        state["v"][i] = [b2 * v + (1 - b2) * gi ** 2 for v, gi in zip(state["v"][i], g)]
        new_params.append(tuple(
            pi - lr_t * m / (np.sqrt(v) + config.adam_eps)
            for pi, m, v in zip(p, state["m"][i], state["v"][i])))
    return new_params


def _reference_fit(fmap, data, config, weights, columns):
    """(params, loss curve) of the row-major fit, loss and Adam included."""
    def stack(cols):
        return np.column_stack([np.asarray(cols[c], dtype=np.float64) for c in columns])

    terms = [(coef, stack(cols)) for coef, cols in
             term_columns(fmap, data.columns, data.n, data)]
    blocks = [stack(data.columns)] + [x for _, x in terms]

    def loss_and_grad(out, w):
        rows = len(w)
        value = float(np.mean(out[:rows] ** 2))
        grad_out = np.empty_like(out)
        grad_out[:rows] = 2.0 * out[:rows] / rows
        for t, (coef, _) in enumerate(terms, start=1):
            block = slice(t * rows, (t + 1) * rows)
            value -= 2.0 * coef * float(np.mean(w * out[block]))
            grad_out[block] = -2.0 * coef * w / rows
        return value, grad_out

    def step(params, x, w):
        out, cache = _reference_forward_cached(params, x)
        loss, grad_out = loss_and_grad(out, w)
        grads = _reference_backward(params, cache, grad_out)
        return _reference_adam_step(params, grads, state, config), loss

    n, stacked = data.n, np.vstack(blocks)
    rng = substream(config.seed)
    params = net.init_params(len(columns), config, rng)
    state = {"t": 0, "m": [[0.0, 0.0] for _ in params], "v": [[0.0, 0.0] for _ in params]}

    def full_loss(p):
        return loss_and_grad(_reference_forward_cached(p, stacked)[0], weights)[0]

    batch = config.batch_size
    curve = [] if batch is None else [full_loss(params)]
    for _ in range(config.epochs):
        if batch is None:
            params, loss = step(params, stacked, weights)
            curve.append(loss)
        else:
            order = rng.permutation(n)
            for start in range(0, n, batch):
                rows = order[start:start + batch]
                params, _ = step(params, np.vstack([b[rows] for b in blocks]), weights[rows])
            curve.append(full_loss(params))
    if batch is None:
        curve.append(full_loss(params))
    return params, np.asarray(curve)


def _close(actual, expected, rtol=1e-10):
    np.testing.assert_allclose(actual, expected, rtol=rtol,
                               atol=rtol * float(np.max(np.abs(expected), initial=0.0)))


class TestKernelParity:
    """The fused feature-major step trains the same network as the row-major
    reference: parameters and loss curve within 1e-10 relative."""

    @pytest.fixture(scope="class")
    def problems(self, appendix_dgp, discrete_dgp):
        nde = builtin_spec("nde").instantiate(1.0).stage(3)
        appendix = simulate(appendix_dgp, 300, 9)
        discrete = simulate(discrete_dgp, 300, 9)
        return {
            "nde_stage3": (nde.fmap, appendix, nde.given,
                           substream(9, 2).uniform(0.5, 1.5, size=appendix.n)),
            "ate": (builtin_spec("ate").stage(2).fmap, discrete, ("A", "W"),
                    np.ones(discrete.n)),
        }

    @pytest.mark.parametrize("problem", ["nde_stage3", "ate"])
    @pytest.mark.parametrize("batch_size", [None, 128])
    @pytest.mark.parametrize("hidden_layers", [1, 2, 3])
    @pytest.mark.parametrize("width", [1, 4, 7])
    def test_matches_row_major_reference(self, problems, problem, batch_size,
                                         hidden_layers, width):
        fmap, data, columns, weights = problems[problem]
        config = MlpConfig(hidden_layers=hidden_layers, width=width, epochs=40,
                           batch_size=batch_size, learning_rate=0.03, seed=width)
        fit = fit_mlp(fmap, data, config, weights=weights, columns=columns)
        params, curve = _reference_fit(fmap, data, config, weights, columns)
        _close(fit.loss_curve, curve)
        for (w, b), (w_ref, b_ref) in zip(fit.params, params):
            _close(w, w_ref)
            _close(b, b_ref)
