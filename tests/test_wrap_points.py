"""The benchmark harness (`perfbench/child.py`) wraps driftlab functions by
module and attribute name; a traced run fails on the first name that no
longer resolves. Read the harness's WRAP_POINTS with `ast`, without
importing it, and check that each one resolves."""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def wrap_points() -> list[tuple[str, str]]:
    for node in ast.parse(CHILD.read_text("utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAP_POINTS" for t in node.targets):
            return [(module, attr) for module, attr, _name in ast.literal_eval(node.value)]
    raise AssertionError(f"no WRAP_POINTS in {CHILD}")


def test_every_wrap_point_resolves():
    points = wrap_points()
    assert points
    missing = [f"driftlab.{module}.{attr}" for module, attr in points
               if not callable(getattr(importlib.import_module(f"driftlab.{module}"), attr, None))]
    assert not missing, f"wrap points that no longer resolve: {missing}"
