"""The benchmark tracer patches rieszreg functions by name; each must exist.

``rrbench/tracer.py`` lists its patch sites in ``TARGETS`` as
``span name -> (module, attribute path)``. The table is read from the file's
source, not imported, so this test runs without the benchmark harness. A
``Class.method`` entry is patched through ``Class.__dict__``, so the method
must be defined on the class itself, not inherited.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

TRACER = Path(__file__).resolve().parents[1] / "rrbench" / "tracer.py"


def _targets() -> dict:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACER}")


TARGETS = _targets()


@pytest.mark.parametrize("span", sorted(TARGETS))
def test_tracer_target_exists(span):
    module_name, path = TARGETS[span]
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(module, cls_name)), f"{module_name}.{path}"
    else:
        assert hasattr(module, path), f"{module_name}.{path}"


def test_mlp_counters_count_one_full_batch_step_per_epoch(monkeypatch, discrete_data):
    """``mlp.rows`` sums ``forward_cached``'s ``x.shape[0]`` and
    ``riesz.mlp_epochs`` is ``len(loss_curve) - 1``: a full-batch fit makes
    one forward pass over its padded distinct rows, one ``backward`` and one
    Adam step per epoch."""
    from rieszreg import MlpConfig, builtin_spec, fit_mlp
    from rieszreg import mlp as net

    calls = {"forward_cached": [], "backward": 0, "step": 0}
    forward_cached, backward, step = net.forward_cached, net.backward, net.AdamState.step

    def counted_forward(params, x, *rest):
        calls["forward_cached"].append(x.shape[0])
        return forward_cached(params, x, *rest)

    def counted_backward(*args):
        calls["backward"] += 1
        return backward(*args)

    def counted_step(self, *args):
        calls["step"] += 1
        return step(self, *args)

    monkeypatch.setattr(net, "forward_cached", counted_forward)
    monkeypatch.setattr(net, "backward", counted_backward)
    monkeypatch.setattr(net.AdamState, "step", counted_step)
    fmap = builtin_spec("ate").stage(2).fmap
    data = discrete_data.subset(np.arange(120))
    fit = fit_mlp(fmap, data, MlpConfig(epochs=7, seed=3), columns=("A", "W"))
    # the 4 distinct (A, W) inputs of the observed and term rows, padded to 64 rows
    assert calls["forward_cached"] == [64] * 7
    assert calls["backward"] == calls["step"] == len(fit.loss_curve) - 1 == 7
