"""Span recorder that wraps rieszreg's public functions from outside.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces each target
function or method with a wrapper in every ``rieszreg`` module namespace that
holds it (``from .basis import make_basis`` copies the name, so patching the
defining module alone would miss callers), and ``uninstall`` puts the
originals back. While installed, each call appends one span
``[op, name, parent, start, end]`` to an in-memory list; spans of one
operation share ``op``. Nothing is written while a run is measured: the spans
are aggregated, or dumped by ``traced_cli.py``, after the work ends.

This module uses only the standard library, so the traced CLI child can
import it before timing ``import rieszreg.cli``.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

MIB = float(2 ** 20)

# span name -> (module, attribute path); "Class.method" patches the class.
TARGETS = {
    "cli.main": ("rieszreg.cli", "main"),
    "data.to_csv": ("rieszreg.data", "Dataset.to_csv"),
    "data.from_csv": ("rieszreg.data", "Dataset.from_csv"),
    "data.sha256": ("rieszreg.data", "Dataset.sha256"),
    "data.subset": ("rieszreg.data", "Dataset.subset"),
    "simulate.simulate": ("rieszreg.simulate", "simulate"),
    "basis.design": ("rieszreg.basis", "Basis.design"),
    "basis.make_basis": ("rieszreg.basis", "make_basis"),
    "estimands.apply_map": ("rieszreg.estimands", "apply_map"),
    "linalg.solve": ("rieszreg._linalg", "solve_normal_equations"),
    "nuisance.fit_logistic": ("rieszreg.nuisance", "fit_logistic"),
    "nuisance.fit_least_squares": ("rieszreg.nuisance", "fit_least_squares"),
    "nuisance.predict": ("rieszreg.nuisance", "NuisanceFit.__call__"),
    "riesz.fit_sieve": ("rieszreg.riesz", "fit_sieve"),
    "riesz.fit_mlp": ("rieszreg.riesz", "fit_mlp"),
    "riesz.predict": ("rieszreg.riesz", "SieveRieszFit.__call__"),
    "riesz.predict_mlp": ("rieszreg.riesz", "MlpRieszFit.__call__"),
    "riesz.predict_closed_form": ("rieszreg.riesz", "ClosedFormRieszFit.__call__"),
    "mlp.forward_cached": ("rieszreg.mlp", "forward_cached"),
    "mlp.backward": ("rieszreg.mlp", "backward"),
    "mlp.adam_step": ("rieszreg.mlp", "AdamState.step"),
    "estimator.one_step_estimate": ("rieszreg.estimator", "one_step_estimate"),
    "estimator.to_dict": ("rieszreg.estimator", "EstimateReport.to_dict"),
}

# Spans whose self time is reported under another layer's metric name.
SELF_TIME_METRIC = {
    "cli.main": "cli.self_s",
    "cli.import": "cli.import_s",
    "riesz.predict_mlp": "riesz.predict_s",
    "riesz.predict_closed_form": "riesz.predict_s",
    "estimator.one_step_estimate": "estimator.self_s",
}

# Spans whose call count is a per-layer metric.
CALL_METRICS = ("data.subset", "basis.design", "basis.make_basis", "estimands.apply_map",
                "linalg.solve", "nuisance.fit_logistic", "nuisance.fit_least_squares",
                "riesz.fit_sieve", "riesz.fit_mlp")


def _counters(name, args, result):
    """Exact work counts taken from a call's arguments or result."""
    if name == "basis.design":
        return (("basis.design_mb", result.nbytes),)  # bytes; MiB in layer_metrics
    if name == "nuisance.fit_logistic":
        return (("nuisance.newton_iters", result.newton_iterations),)
    if name == "riesz.fit_mlp":
        # one loss-curve entry per epoch plus the final (or initial) loss
        return (("riesz.mlp_epochs", len(result.loss_curve) - 1),)
    if name == "mlp.forward_cached":
        return (("mlp.rows", args[1].shape[0]),)
    return ()


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []      # [op, name, parent index or -1, start, end]
        self.counts = []     # (op, counter name, value)
        self.op = -1
        self._stack = []
        self._patches = None

    def record(self, name, start, end):
        """Add a span timed by the caller (e.g. an import)."""
        self.spans.append([self.op, name, -1, start, end])

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            record = [self.op, name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()
            for key, value in _counters(name, args, result):
                counts.append((self.op, key, value))
            return result

        return functools.update_wrapper(wrapper, fn)

    def _plan(self):
        """(owner, attribute, original, replacement) for every patch site."""
        plan = []
        for name, (module_name, path) in TARGETS.items():
            module = sys.modules.get(module_name)
            if module is None:  # e.g. rieszreg.cli outside the CLI workload
                continue
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    plan.append((cls, attr, raw, staticmethod(self._wrap(name, raw.__func__))))
                else:
                    plan.append((cls, attr, raw, self._wrap(name, raw)))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "rieszreg" or mod_name.startswith("rieszreg.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        plan.append((mod, attr, original, wrapper))
        return plan

    def install(self):
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)


def aggregate(spans, counts, ops):
    """Per-operation sums over the given op ids: self seconds by span name,
    call counts by span name, and counter totals. ``spans`` index parents
    within the same list."""
    ops = set(ops)
    child = [0.0] * len(spans)
    for op, _, parent, start, end in spans:
        if parent >= 0 and op in ops:
            child[parent] += end - start
    self_s, calls, totals = {}, {}, {}
    for index, (op, name, _, start, end) in enumerate(spans):
        if op not in ops:
            continue
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[index]
        calls[name] = calls.get(name, 0) + 1
    for op, key, value in counts:
        if op in ops:
            totals[key] = totals.get(key, 0) + value
    return self_s, calls, totals


def layer_metrics(self_s, calls, totals, n_ops):
    """Per-layer metric values per operation (zero where a layer never ran)."""
    values = {}
    for name in TARGETS.keys() | {"cli.import"}:
        metric = SELF_TIME_METRIC.get(name, name + "_s")
        values[metric] = values.get(metric, 0.0) + self_s.get(name, 0.0) / n_ops
    for name in CALL_METRICS:
        values[name + "_calls"] = calls.get(name, 0) / n_ops
    for key in ("nuisance.newton_iters", "riesz.mlp_epochs", "mlp.rows"):
        values[key] = totals.get(key, 0) / n_ops
    for key in ("basis.design_mb", "data.csv_mb", "cli.report_mb"):
        values[key] = totals.get(key, 0) / MIB / n_ops
    return values
