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
