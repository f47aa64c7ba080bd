"""The benchmark harness (`perfbench/child.py`) wraps driftlab functions by
module and attribute name; a traced run fails on the first name that no
longer resolves. Read the harness's WRAP_POINTS with `ast`, without
importing it, and check that each one resolves. Its COUNTERS read the
arguments and result of a wrapped call, so check each on a real call."""

import ast
import importlib
import importlib.util
from pathlib import Path

from driftlab import controller, core, pareto, scorer, simulator

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


def load_child(monkeypatch):
    monkeypatch.syspath_prepend(str(CHILD.parent))  # for its `import calibrate`
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def counted_calls() -> dict[str, tuple[tuple, object]]:
    """The args and result of one real call of each function a counter reads."""
    trajs = list(simulator.simulate_set(simulator.SimConfig(simulator.preset("SF"),
                                                            sessions=2, iterations=5)))
    points = trajs[0].values_matrix
    run = (simulator.SimConfig(simulator.preset("AI"), iterations=20),
           controller.ControllerConfig())
    src = "def f(x):\n    return x\n"
    return {
        "core.dumps_trajectories": ((trajs,), core.dumps_trajectories(trajs)),
        "pareto.non_dominated_mask": ((points,), pareto.non_dominated_mask(points)),
        "controller.run_controlled": (run, controller.run_controlled(*run)),
        "scorer.score_all": ((src, 10), scorer.score_all(src, 10)),
    }


def test_every_counter_reads_a_real_call(monkeypatch):
    counters = load_child(monkeypatch).COUNTERS
    calls = counted_calls()
    assert sorted(calls) == sorted(counters)
    for name, (args, result) in calls.items():
        _key, counter = counters[name]
        value = counter(args, result)
        assert type(value) is int and value >= 0, (name, value)
