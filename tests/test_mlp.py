import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszreg import (
    AppendixDgp,
    FunctionalMap,
    MapTerm,
    MlpConfig,
    SchemaError,
    TrainingDivergedError,
    builtin_spec,
    fit_mlp,
    fit_mlps,
    mlp_loss_gradients,
    simulate,
    substream,
)
from rieszreg import fit_sequential, riesz
from rieszreg import mlp as net
from rieszreg.basis import FoldDesigns
from rieszreg.bench import replicate_seed
from rieszreg.estimands import term_columns
from rieszreg.estimator import _fold_order


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
        {"learning_rate": float("nan")}, {"learning_rate": float("inf")}, {"width": 2.5},
        {"epochs": 2.5}, {"batch_size": 2.5}, {"hidden_layers": True}, {"seed": 2.5},
        {"learning_rate": True}, {"seed": -1}, {"batch_size": True},
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

    def test_missing_input_column_refused_by_name(self, discrete_data):
        fmap = builtin_spec("ate").stage(2).fmap
        with pytest.raises(SchemaError, match="'Z'"):
            fit_mlp(fmap, discrete_data, MlpConfig(epochs=1), columns=("A", "Z"))

    def test_full_batch_epochs_allocate_nothing(self, monkeypatch, discrete_data):
        """The traced memory after each Adam step stays where it was after
        epoch 2, at 50 epochs as at 100."""
        fmap = builtin_spec("ate").stage(2).fmap
        step = net.AdamState.step

        def growth(epochs: int) -> int:
            traced = np.zeros(epochs, dtype=np.int64)

            def marked_step(self, *args):
                step(self, *args)
                traced[self.t - 1] = tracemalloc.get_traced_memory()[0]

            monkeypatch.setattr(net.AdamState, "step", marked_step)
            tracemalloc.start()
            try:
                fit_mlp(fmap, discrete_data, MlpConfig(epochs=epochs, seed=3),
                        columns=("A", "W"))
            finally:
                tracemalloc.stop()
            return int(np.max(traced[2:]) - traced[1])

        assert growth(50) == growth(100) == 0

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


def _same_fit(one, two) -> bool:
    return np.array_equal(one.loss_curve, two.loss_curve) and all(
        np.array_equal(a, b) for pair in zip(one.params, two.params) for a, b in zip(*pair))


class TestBatching:
    """Networks trained in one ``fit_mlps`` call equal each trained alone."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(layers=st.integers(1, 3), width=st.integers(1, 6), epochs=st.integers(0, 12),
           terms=st.lists(st.tuples(st.sampled_from([-1.0, 0.5, 2.0]), st.sampled_from([0.0, 1.0])),
                          min_size=1, max_size=2),
           small=st.integers(10, 20), large=st.integers(70, 200), seed=st.integers(0, 2 ** 31))
    def test_a_network_in_a_batch_equals_it_alone(self, layers, width, epochs, terms, small,
                                                  large, seed):
        """Bit for bit, over row counts whose padded sizes differ within the
        call (a small set's at most 60 distinct inputs pad to 64 rows, a large
        one's at least 70 to more), two networks of each size, on the same
        inputs with other weights, batching."""
        fmap = FunctionalMap(tuple(MapTerm(coef, (("A", a),)) for coef, a in terms), ("M", "W"))
        config = MlpConfig(hidden_layers=layers, width=width, epochs=epochs, seed=seed % 97)
        data = {n: simulate(AppendixDgp(), n, seed + n) for n in (small, large)}
        problems = [(fmap, data[n], substream(seed + n, k + 1).uniform(0.5, 1.5, size=n),
                     ("A", "M", "W")) for k in range(2) for n in (small, large)]
        shapes = [riesz._mlp_problem(*problem).inputs.shape for problem in problems]
        assert shapes[0] == shapes[2] != shapes[1] == shapes[3]
        batched = fit_mlps(problems, config)
        for problem, fit in zip(problems, batched):
            assert _same_fit(fit, fit_mlps([problem], config)[0])

    def test_a_dataset_stacked_on_itself_trains_the_same_network(self, appendix_dgp):
        """Each distinct input doubles its count and its summed term weights,
        so only the rounding of those sums differs, over 500 epochs."""
        nde = builtin_spec("nde").instantiate(1.0).stage(3)
        data = simulate(appendix_dgp, 300, 4)
        weights = substream(4, 2).uniform(0.5, 1.5, size=data.n)
        twice = data.subset(np.tile(np.arange(data.n), 2))
        one = fit_mlp(nde.fmap, data, MlpConfig(), weights=weights, columns=nde.given)
        two = fit_mlp(nde.fmap, twice, MlpConfig(), weights=np.tile(weights, 2),
                      columns=nde.given)
        _close(two.loss_curve, one.loss_curve, rtol=1e-12)
        for (w, b), (w_one, b_one) in zip(two.params, one.params):
            _close(w, w_one, rtol=1e-12)
            _close(b, b_one, rtol=1e-12)


class TestStopping:
    """A network stops once its loss has converged, and is then the network
    trained for as many epochs as it ran."""

    def test_a_stopped_network_equals_one_trained_to_its_stop_epoch(self, appendix_dgp):
        nde = builtin_spec("nde").instantiate(1.0).stage(3)
        data = simulate(appendix_dgp, 1000, 4)
        weights = substream(4, 2).uniform(0.5, 1.5, size=data.n)
        fit = fit_mlp(nde.fmap, data, MlpConfig(), weights=weights, columns=nde.given)
        stop = len(fit.loss_curve) - 1
        assert net.STOP_PATIENCE <= stop < 400 and fit.fitted_loss == fit.loss_curve[-1]
        again = fit_mlp(nde.fmap, data, MlpConfig(epochs=stop), weights=weights,
                        columns=nde.given)
        assert _same_fit(fit, again)

    @pytest.mark.parametrize("layers, width", [(3, 1), (2, 4)])
    def test_networks_stopping_at_other_epochs_each_equal_it_alone(self, appendix_dgp,
                                                                    layers, width):
        """One batch on one input set with other weights: the width-1 networks
        go flat within about 60 epochs, the width-4 ones stop at other epochs
        or run to the cap. Each equals itself trained alone, and trained for
        its stop epoch."""
        nde = builtin_spec("nde").instantiate(1.0).stage(3)
        data = simulate(appendix_dgp, 300, 6)
        problems = [(nde.fmap, data, substream(6, k).uniform(0.5, 1.5, size=data.n), nde.given)
                    for k in range(4)]
        config = MlpConfig(hidden_layers=layers, width=width, epochs=300)
        batched = fit_mlps(problems, config)
        stops = [len(fit.loss_curve) - 1 for fit in batched]
        assert len(set(stops)) >= 3
        for problem, fit, stop in zip(problems, batched, stops):
            assert _same_fit(fit, fit_mlps([problem], config)[0])
            assert _same_fit(fit, fit_mlps([problem], replace(config, epochs=stop))[0])

    def test_the_default_nde_networks_of_a_benchmark_fold_stop_early(self, appendix_dgp):
        """Fold 0 of the first input of the network benchmark workload: its
        stage-2 and stage-3 networks stop before the 500-epoch cap."""
        seed = replicate_seed(1, 0)
        data = simulate(appendix_dgp, 1000, seed)
        spec = builtin_spec("nde").instantiate(1.0)
        designs = FoldDesigns(data, *_fold_order(spec, data, 5, seed, 50))
        fits = fit_sequential(spec, designs.fold(0), method="mlp")
        assert [len(fit.loss_curve) - 1 < 500 for fit in fits[1:]] == [True, True]


class TestDistinctColumns:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rows=st.lists(st.one_of(st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=4),
                                   st.lists(st.floats(-2.0, 2.0).map(lambda v: v + 0.0),
                                            min_size=1, max_size=4)),
                         min_size=1, max_size=4),
           repeats=st.integers(1, 3), data=st.data())
    def test_values_and_inverse_equal_numpy_unique(self, rows, repeats, data):
        """On matrices of binary and real rows (the sum drops -0.0, which
        ``np.unique`` keeps or drops by its unstable sort), columns repeated."""
        width = min(len(row) for row in rows)
        matrix = np.tile(np.array([row[:width] for row in rows]), repeats)
        matrix = matrix[:, data.draw(st.permutations(range(matrix.shape[1])))]
        values, inverse = riesz._distinct_columns(matrix)
        want, want_inverse = np.unique(matrix, axis=1, return_inverse=True)
        assert np.array_equal(values, want) and np.array_equal(inverse, want_inverse.ravel())


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
    b1, b2, t = 0.9, 0.999, state["t"]  # not read from mlp: the reference stays independent
    lr_t = config.learning_rate * np.sqrt(1 - b2 ** t) / (1 - b1 ** t)
    new_params = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state["m"][i] = [b1 * m + (1 - b1) * gi for m, gi in zip(state["m"][i], g)]
        state["v"][i] = [b2 * v + (1 - b2) * gi ** 2 for v, gi in zip(state["v"][i], g)]
        new_params.append(tuple(
            pi - lr_t * m / (np.sqrt(v) + 1e-8)
            for pi, m, v in zip(p, state["m"][i], state["v"][i])))
    return new_params


def _reference_stop(curve, tol=1e-5, patience=20):
    """The epoch at which the stop rule fires on a loss curve, or None: an
    epoch improves when its loss is finite and at most best - tol * |best|,
    the first finite one always."""
    best, stalls = math.inf, 0
    for epoch, loss in enumerate(curve):
        improved = math.isfinite(loss) and (best == math.inf or loss <= best - tol * abs(best))
        stalls = 0 if improved else stalls + 1
        best = min(best, loss) if math.isfinite(loss) else best
        if stalls >= patience:
            return epoch
    return None


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
        _check_parity(problems[problem], MlpConfig(
            hidden_layers=hidden_layers, width=width, epochs=40, batch_size=batch_size,
            learning_rate=0.03, seed=width))

    def test_default_config_matches_reference_over_500_epochs(self, problems):
        """The benchmark's network and epoch cap, where rounding differences
        between the two kernels have the longest to grow."""
        _check_parity(problems["nde_stage3"], MlpConfig())


def _check_parity(problem, config):
    """The reference trains as many epochs as the fit ran; the stop rule,
    applied to its own curve, fires at that epoch and not before, or never
    when the fit ran to the cap."""
    fmap, data, columns, weights = problem
    fit = fit_mlp(fmap, data, config, weights=weights, columns=columns)
    epochs = len(fit.loss_curve) - 1
    params, curve = _reference_fit(fmap, data, replace(config, epochs=epochs), weights, columns)
    if epochs < config.epochs:
        assert _reference_stop(curve) == epochs
    else:
        assert _reference_stop(curve[:-1]) is None
    _close(fit.loss_curve, curve)
    for (w, b), (w_ref, b_ref) in zip(fit.params, params):
        _close(w, w_ref)
        _close(b, b_ref)
