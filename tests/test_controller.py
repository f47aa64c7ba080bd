import json
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import controller, inference, simulator, spectral
from driftlab.controller import (
    ControlEvent,
    ControllerConfig,
    EventKind,
    Phase,
    check_interventions,
    phased_schedule_default,
    run_controlled,
)
from driftlab.core import (
    DimensionMismatch,
    NonFinite,
    RankDeficientDesign,
    StrategySpec,
    Trajectory,
    dumps_trajectories,
)

import oracles
from oracles import (
    contraction_trajectory,
    fresh_generator,
    reference_check_interventions,
    reference_dumps_events,
    reference_fit_affine,
    reference_fit_windows,
    reference_run_controlled,
)


def traj(points):
    return Trajectory("s000", "X", points)


CFG = ControllerConfig()


# ---------------------------------------------------------------------------
# phased_schedule_default
# ---------------------------------------------------------------------------

def test_default_schedule_order():
    phases = phased_schedule_default()
    assert [p.strategy_id for p in phases] == ["FF", "SF", "EF", "AI"]


def test_default_schedule_third_phase_is_ef():
    assert phased_schedule_default()[2] == Phase("EF", 2, 3)


def test_default_schedule_final_phase_open_ended():
    last = phased_schedule_default()[-1]
    assert last.strategy_id == "AI" and last.max_iters is None


# ---------------------------------------------------------------------------
# check_interventions
# ---------------------------------------------------------------------------

def test_security_dip_fires_at_iteration():
    pts = [[5, 5, 5], [4, 5, 5], [3, 5, 5], [2.5, 5, 5], [1.9, 5, 5], [2.5, 5, 5]]
    events = check_interventions(traj(pts), CFG)
    assert len(events) == 1
    e = events[0]
    assert e.kind is EventKind.INTERVENTION
    assert e.detail == "security_floor"
    assert e.iteration == 4
    assert e.triggering_value == pytest.approx(1.9)


def test_efficiency_drop_over_threshold_fires():
    events = check_interventions(traj([[5, 5.0, 5], [5, 3.4, 5]]), CFG)
    assert [e.detail for e in events] == ["efficiency_drop"]
    assert events[0].triggering_value == pytest.approx(0.32)


def test_efficiency_drop_under_threshold_silent():
    assert check_interventions(traj([[5, 5.0, 5], [5, 3.6, 5]]), CFG) == []


def test_windowed_rate_above_ceiling_fires_once():
    pts = contraction_trajectory([-1.6, -1.7, -1.8], [5, 5, 5], [2.0, 0.3, 1.0], steps=5)
    events = check_interventions(traj(pts), CFG)
    assert [e.detail for e in events] == ["rate_ceiling"]
    assert events[0].iteration == 5
    assert events[0].triggering_value == pytest.approx(1.6, abs=1e-9)


def test_windowed_rate_below_ceiling_silent():
    pts = contraction_trajectory([-1.4, -1.45, -1.5], [5, 5, 5], [2.0, 0.3, 1.0], steps=5)
    assert check_interventions(traj(pts), CFG) == []


def test_multiple_triggers_same_iteration():
    # security and efficiency both break at t = 1
    events = check_interventions(traj([[5, 5, 5], [1.0, 3.0, 5]]), CFG)
    assert [e.detail for e in events] == ["security_floor", "efficiency_drop"]
    assert all(e.iteration == 1 for e in events)


def test_quiet_trajectory_yields_no_events():
    rng = np.random.default_rng(71)
    pts = 5.0 + 0.1 * rng.standard_normal((12, 3))
    assert check_interventions(traj(pts), CFG) == []


# ---------------------------------------------------------------------------
# run_controlled
# ---------------------------------------------------------------------------

def test_zero_diffusion_ai_run_is_quiet():
    sim = simulator.SimConfig(strategy=simulator.preset("AI", sigma=0.0),
                              iterations=10, base_seed=1)
    _traj, events = run_controlled(sim, ControllerConfig())
    assert events == []


def test_default_schedule_switch_timing():
    sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=10,
                              base_seed=5)
    cfg = ControllerConfig(phase_schedule=phased_schedule_default())
    _traj, events = run_controlled(sim, cfg)
    switches = [e for e in events if e.kind is EventKind.PHASE_SWITCH]
    assert len(switches) >= 2
    assert switches[0].iteration in (2, 3)
    assert switches[0].detail.startswith("FF->SF")


def test_phase_switches_respect_min_max_bounds():
    schedule = phased_schedule_default()
    for seed in range(20):
        sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=12,
                                  base_seed=seed)
        cfg = ControllerConfig(phase_schedule=schedule)
        _t, events = run_controlled(sim, cfg)
        switches = [e for e in events if e.kind is EventKind.PHASE_SWITCH]
        prev = 0
        for phase, sw in zip(schedule, switches):
            span = sw.iteration - prev
            assert span >= phase.min_iters
            if phase.max_iters is not None:
                assert span <= phase.max_iters
            prev = sw.iteration


@pytest.mark.parametrize("schedule", [phased_schedule_default(),
                                      (Phase("FF", 2, 3), Phase("SF", 1, 2))])
def test_a_phase_is_ruled_one_step_at_a_time_only_from_its_min_iters(monkeypatch, schedule):
    # a phase's switch is found as a mask over its segment's rows: the
    # switch function runs once per PhaseSwitch event, at its step, and at
    # no other step
    calls = []
    switch = controller._switch

    def spy(state, now, *args):
        calls.append(now)
        return switch(state, now, *args)

    monkeypatch.setattr(controller, "_switch", spy)
    for seed in range(6):
        calls.clear()
        sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=40, base_seed=seed)
        _t, events = run_controlled(sim, ControllerConfig(phase_schedule=schedule))
        began = [e.iteration for e in events if e.kind is EventKind.PHASE_SWITCH]
        bounded = schedule[-1].max_iters is not None  # then the last phase falls back
        assert len(began) == len(schedule) - 1 + bounded
        assert calls == began


def switch_steps(schedule, phase_index, rows, steps, intervened=()):
    """The steps at which `controller._switches` switches a phase of
    `schedule` that began at step 10, over a segment ruling steps 11 ..
    10 + rows of a `steps`-step run, with interventions at the given steps."""
    fires = np.zeros((rows, len(controller._RULES)), dtype=bool)
    fires[[t - 11 for t in intervened], 0] = True
    ruled = controller._Ruled(11, fires, np.zeros(fires.shape))
    state = controller._LoopState(simulator.preset("AI"), phase_index=phase_index,
                                  phase_start=10)
    mask = controller._switches(state, schedule, ruled, fires[:, :3].any(axis=1), steps)
    return (11 + np.flatnonzero(mask)).tolist()


def test_the_phase_switch_mask_at_its_thresholds():
    schedule = (Phase("FF", 3, 5), Phase("SF", 2, 4))
    # a phase with a next phase: age min_iters - 1 holds, min_iters switches
    assert switch_steps(schedule, 0, 10, 100) == list(range(13, 21))
    # an intervention defers the switch, until max_iters
    assert switch_steps(schedule, 0, 10, 100, [13, 14]) == list(range(15, 21))
    assert switch_steps(schedule, 0, 10, 100, range(13, 21)) == list(range(15, 21))
    # a bounded last phase falls back at max_iters, an intervention or not,
    # only if a step is left after it
    assert switch_steps(schedule, 1, 10, 100) == list(range(14, 21))
    assert switch_steps(schedule, 1, 10, 100, [14]) == list(range(14, 21))
    assert switch_steps(schedule, 1, 5, 15) == [14]
    assert switch_steps(schedule, 1, 4, 14) == []
    # an open last phase never switches, and a finished schedule neither
    assert switch_steps(schedule[:1] + (Phase("SF", 2, None),), 1, 500, 1000) == []
    assert switch_steps(schedule, 2, 10, 100) == []


def test_ff_run_triggers_security_intervention_in_majority_of_seeds():
    hits = 0
    for seed in range(100):
        sim = simulator.SimConfig(strategy=simulator.preset("FF", sigma=0.5),
                                  iterations=10, base_seed=seed)
        _t, events = run_controlled(sim, ControllerConfig())
        if any(e.detail == "security_floor" and e.triggering_value < 2.0
               and e.iteration < 10 for e in events):
            hits += 1
    assert hits > 50


def test_run_controlled_deterministic():
    sim = simulator.SimConfig(strategy=simulator.preset("FF"), iterations=10,
                              base_seed=9)
    cfg = ControllerConfig(phase_schedule=phased_schedule_default())
    t1, e1 = run_controlled(sim, cfg)
    t2, e2 = run_controlled(sim, cfg)
    assert t1 == t2
    assert e1 == e2


@pytest.mark.parametrize("sigma", [0.5, 2.0])
@pytest.mark.parametrize("schedule", ["default", "none"])
@pytest.mark.parametrize("halt", [False, True])
@pytest.mark.parametrize("start", ["center", "init-box"])
def test_run_controlled_draws_the_step_noise_stream(monkeypatch, sigma, schedule, halt, start):
    seed = 41
    sim = simulator.SimConfig(strategy=simulator.preset("AI", sigma),
                              iterations=300, base_seed=seed,
                              init_box=(3.0, 7.0) if start == "init-box" else None)
    cfg = ControllerConfig(
        phase_schedule=phased_schedule_default() if schedule == "default" else None
    )
    got_traj, got_events = run_controlled(sim, cfg, halt_on_intervention=halt)

    # reference: a generator built afresh for every row of session 0, the
    # k-th row drawn being the noise of step k; the tags asked for must run
    # 1, 2, 3, ...
    tags = []

    def normals(keys, want_tags, n):
        rows = [fresh_generator(seed, 0, len(tags) + k + 1).standard_normal(n)
                for k in range(len(want_tags))]
        tags.extend(want_tags)
        return np.array(rows)[:, None]

    def uniform_starts(keys, low, high, n):
        return fresh_generator(seed, 0, 0).uniform(low, high, size=(1, n))

    monkeypatch.setattr(simulator, "_normals", normals)
    monkeypatch.setattr(simulator, "_uniform_starts", uniform_starts)
    want_traj, want_events = run_controlled(sim, cfg, halt_on_intervention=halt)
    assert got_events
    assert tags == list(range(1, len(tags) + 1))
    assert len(want_traj) - 1 <= len(tags) <= sim.iterations
    assert dumps_trajectories([got_traj]) == dumps_trajectories([want_traj])
    assert controller.dumps_events(got_events) == controller.dumps_events(want_events)


@pytest.mark.parametrize("sigma", [0.5, 2.0, 4.0])
@pytest.mark.parametrize("schedule", ["default", "none"])
@pytest.mark.parametrize("halt", [False, True])
def test_controller_bytes_match_the_rank_oracle_fit(monkeypatch, sigma, schedule, halt):
    # the stacked window fit, one lstsq per window, must steer the loop
    # exactly as matrix_rank-then-lstsq on each window did: same
    # trajectory bytes, same events
    cfg = ControllerConfig(
        phase_schedule=phased_schedule_default() if schedule == "default" else None
    )
    runs = []
    calls = []
    for fit in (inference.fit_windows, partial(reference_fit_windows, fit=reference_fit_affine)):
        def counted(*args, fit=fit):
            calls.append(fit)
            return fit(*args)
        monkeypatch.setattr(inference, "fit_windows", counted)
        for seed in (5, 6):
            sim = simulator.SimConfig(strategy=simulator.preset("AI", sigma),
                                      iterations=400, base_seed=seed)
            t, events = run_controlled(sim, cfg, halt_on_intervention=halt)
            runs.append((dumps_trajectories([t]), controller.dumps_events(events),
                         check_interventions(t, cfg)))
    assert runs[:2] == runs[2:]
    assert all(events for _, events, _ in runs)
    assert len(set(calls)) == 2


def test_halt_on_intervention_truncates_run():
    sim = simulator.SimConfig(strategy=simulator.preset("FF", sigma=0.5),
                              iterations=10, base_seed=3)
    t, events = run_controlled(sim, ControllerConfig(), halt_on_intervention=True)
    interventions = [e for e in events if e.kind is EventKind.INTERVENTION]
    assert interventions
    first = min(e.iteration for e in interventions)
    assert len(t.points) - 1 == first
    assert all(e.iteration <= first for e in events)


def test_controlled_trajectory_respects_clip_box():
    for seed in (0, 1, 2):
        sim = simulator.SimConfig(strategy=simulator.preset("FF"), iterations=12,
                                  base_seed=seed)
        cfg = ControllerConfig(phase_schedule=phased_schedule_default())
        t, _e = run_controlled(sim, cfg)
        m = t.values_matrix
        assert np.all(m >= 0.0) and np.all(m <= 10.0)


def test_exhausted_schedule_falls_back():
    schedule = (Phase("FF", 1, 1), Phase("SF", 1, 1))
    sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=8,
                              base_seed=2)
    cfg = ControllerConfig(phase_schedule=schedule)  # fallback AI
    _t, events = run_controlled(sim, cfg)
    fallbacks = [e for e in events if "fallback" in e.detail]
    assert len(fallbacks) == 1


def test_bounded_schedule_ending_on_the_last_step_is_not_exhausted():
    # SF reaches its max at step 5 of 5: no step is left to fall back for
    schedule = (Phase("FF", 2, 2), Phase("SF", 3, 3))
    sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=5, base_seed=2)
    cfg = ControllerConfig(phase_schedule=schedule)
    _t, events = run_controlled(sim, cfg)
    switches = [(e.iteration, e.detail) for e in events if e.kind is EventKind.PHASE_SWITCH]
    assert switches == [(2, "FF->SF")]


def test_catalog_must_cover_schedule():
    sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=8)
    cfg = ControllerConfig(phase_schedule=(Phase("ZZ", 1, None),))
    with pytest.raises(KeyError):
        run_controlled(sim, cfg)


def test_catalog_must_hold_the_fallback():
    # checked before the run, not at the first switch that needs it
    catalog = {k: v for k, v in simulator.preset_catalog().items() if k != "AI"}
    sim = simulator.SimConfig(strategy=simulator.preset("SF"), iterations=8)
    for schedule in (None, (Phase("SF", 1, 2),)):
        cfg = ControllerConfig(phase_schedule=schedule)
        with mock.patch.object(simulator, "_advance", side_effect=AssertionError("ran")):
            with pytest.raises(KeyError, match="fallback strategy missing from catalog: 'AI'"):
                run_controlled(sim, cfg, catalog=catalog)


@pytest.mark.parametrize("window", [4.5, 4.0, True, np.float64(3)])
def test_window_must_be_an_integer(window):
    with pytest.raises(TypeError, match="^window must be an integer, got "):
        ControllerConfig(window=window)


def test_a_numpy_integer_window_runs_as_its_value():
    sim = simulator.SimConfig(strategy=simulator.preset("SF", 3.0), iterations=40, base_seed=7)
    traj, events = run_controlled(sim, ControllerConfig(window=np.int64(4)))
    again, again_events = run_controlled(sim, ControllerConfig(window=4))
    assert traj == again and events == again_events


def test_window_cannot_exceed_iterations():
    sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=3)
    with pytest.raises(ValueError):
        run_controlled(sim, ControllerConfig(window=5))


def test_boundary_avoid_switch_on_near_zero_spectrum():
    # a strategy with a near-zero drift eigenvalue: windowed fits land
    # near zero and the controller swaps to the fallback
    lazy = StrategySpec("LZ", np.diag([-0.001, -0.5, -0.6]), np.zeros(3),
                        0.4 * np.eye(3))
    catalog = dict(simulator.preset_catalog())
    catalog["LZ"] = lazy
    found = None
    for seed in range(30):
        sim = simulator.SimConfig(strategy=lazy, iterations=12, base_seed=seed)
        _t, events = run_controlled(sim, ControllerConfig(), catalog=catalog)
        boundary = [e for e in events if e.kind is EventKind.BOUNDARY_AVOID_SWITCH]
        if boundary:
            found = boundary[0]
            break
    assert found is not None
    assert found.triggering_value < controller.ZERO_MARGIN
    assert "LZ->AI" in found.detail


def test_switch_to_strategy_of_other_width_is_dimension_mismatch():
    # a 2-D strategy near the boundary switches to the 3-D fallback preset
    lazy = StrategySpec("LZ", np.diag([-0.001, -0.5]), np.zeros(2), 0.4 * np.eye(2))
    raised = 0
    for seed in range(30):
        sim = simulator.SimConfig(strategy=lazy, iterations=12, base_seed=seed)
        try:
            run_controlled(sim, ControllerConfig())
        except DimensionMismatch:
            raised += 1
    assert raised


def test_exploration_to_exploitation_transition_logged():
    # noisy windowed fits flip between complex and real spectra; the
    # complex->real edge must be logged
    found = False
    for seed in range(40):
        sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=14,
                                  base_seed=seed)
        _t, events = run_controlled(sim, ControllerConfig())
        if any(e.kind is EventKind.EXPLORATION_TO_EXPLOITATION for e in events):
            found = True
            break
    assert found


def test_events_serialize_to_jsonl():
    sim = simulator.SimConfig(strategy=simulator.preset("FF"), iterations=10,
                              base_seed=3)
    _t, events = run_controlled(sim, ControllerConfig(phase_schedule=phased_schedule_default()))
    text = controller.dumps_events(events)
    assert len(text.splitlines()) == len(events) > 0
    assert text == reference_dumps_events(events)


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7,
    3.0, -2.0, 1.9, 1.7976931348623157e308, 7, np.float64(0.1), np.float64("nan"),
    np.float64("-inf"),
], ids=repr)
def test_dumps_events_matches_the_per_event_writer_on_odd_values(value):
    # a finite float is written as float.__repr__; anything else as json.dumps,
    # and an iteration that is not an int (a bool, a float) as json.dumps too
    events = [ControlEvent(t, kind, detail, value) for t, kind, detail in (
        (0, EventKind.INTERVENTION, "security_floor"),
        (3, EventKind.PHASE_SWITCH, "FF->SF"),
        (3, EventKind.INTERVENTION, "security_floor"),
        (True, EventKind.INTERVENTION, "security_floor"),
        (3.0, EventKind.PHASE_SWITCH, "FF->SF"))]
    assert controller.dumps_events(events) == reference_dumps_events(events)


def test_boundary_switch_from_an_oddly_named_strategy_writes_its_bytes(monkeypatch):
    # the detail names the strategy: a quote, a backslash, a control
    # character and non-ASCII text must be escaped as json.dumps escapes them
    odd = 'L"Z\\\x01\u00e9\u2192\U0001f600'
    lazy = StrategySpec(odd, np.diag([-0.001, -0.5, -0.6]), np.zeros(3), 0.4 * np.eye(3))
    catalog = {**simulator.preset_catalog(), odd: lazy}
    for seed in range(30):
        sim = simulator.SimConfig(strategy=lazy, iterations=12, base_seed=seed)
        _t, events = run_controlled(sim, ControllerConfig(), catalog=catalog)
        switches = [e for e in events if e.kind is EventKind.BOUNDARY_AVOID_SWITCH]
        if switches:
            break
    assert switches[0].detail == f"eigenvalue near zero; switching {odd}->AI"
    text = controller.dumps_events(events)
    assert text == reference_dumps_events(events)
    assert text.isascii()
    assert [json.loads(line)["detail"] for line in text.splitlines()] == [e.detail for e in events]
    assert_matches_reference(monkeypatch, sim, ControllerConfig(), catalog=catalog)


_ROW = "expected [str, int, int or null]"


@pytest.mark.parametrize("schedule, message", [
    ([["FF", 0, 3]], "phase 'FF': min_iters must be >= 1"),
    ([["FF", 3, 2]], "phase 'FF': max_iters < min_iters"),
    ("FF", "schedule must be a non-empty list"),
    ((), "schedule must be a non-empty list"),
    ([], "schedule must be a non-empty list"),
    ({"FF": [1, None]}, "schedule must be a non-empty list"),
    ([["FF", 2.5, 3.5]], f"malformed schedule row ['FF', 2.5, 3.5]: {_ROW}"),
    ([["FF", 2, True]], f"malformed schedule row ['FF', 2, True]: {_ROW}"),
    ([[1, 2, 3]], f"malformed schedule row [1, 2, 3]: {_ROW}"),
    ([["FF", 2]], f"malformed schedule row ['FF', 2]: {_ROW}"),
    ([["FF", 2, 3, 4]], f"malformed schedule row ['FF', 2, 3, 4]: {_ROW}"),
    ([("FF", 2, 3)], f"malformed schedule row ('FF', 2, 3): {_ROW}"),
    ((Phase("FF", 2.5, 3.5),), None),
    ((Phase("FF", True, True),), None),
    ((Phase("FF", 3, 1),), "phase 'FF': max_iters < min_iters"),
    ((Phase("FF", 0, None),), "phase 'FF': min_iters must be >= 1"),
    ((Phase(7, 1, None),), None),
    ((Phase("FF", 2, 3), Phase("SF", np.float64(1.0), None)), None),
])
def test_config_rejects_a_malformed_schedule(schedule, message):
    # the rules and messages of a `control --schedule` file hold for a
    # library schedule too, a count being an integer and never a bool; a
    # None message is the malformed-row one, its last row cut by `_shown`
    from driftlab.core import DomainError, _shown
    message = message or f"malformed schedule row {_shown(schedule[-1])}: {_ROW}"
    with pytest.raises(DomainError) as info:
        ControllerConfig(phase_schedule=schedule)
    assert str(info.value) == message


def test_config_keeps_a_schedule_as_phases():
    good = ControllerConfig(phase_schedule=[["FF", 2, 3], Phase("SF", 1, 1), ["AI", 1, None]])
    assert good.phase_schedule == (Phase("FF", 2, 3), Phase("SF", 1, 1), Phase("AI", 1, None))
    assert type(good.phase_schedule) is tuple
    assert all(type(p) is Phase for p in good.phase_schedule)
    assert ControllerConfig().phase_schedule is None


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32])
def test_numpy_integer_phases_give_the_bytes_of_python_ints(dtype):
    sim = simulator.SimConfig(strategy=simulator.preset("FF"), iterations=60, base_seed=5)
    rows = [("FF", 2, 3), ("SF", 3, 9), ("EF", 2, None)]
    want = run_controlled(sim, ControllerConfig(phase_schedule=[Phase(*r) for r in rows]))
    got = run_controlled(sim, ControllerConfig(phase_schedule=[
        Phase(sid, dtype(lo), None if hi is None else dtype(hi)) for sid, lo, hi in rows]))
    assert dumps_trajectories([got[0]]) == dumps_trajectories([want[0]])
    assert controller.dumps_events(got[1]) == controller.dumps_events(want[1])
    assert any(e.kind is EventKind.PHASE_SWITCH for e in want[1])


def test_online_interventions_match_offline_scan():
    # run_controlled and check_interventions share one rule engine; with
    # halting off they must agree on every iteration after the start
    seen = set()
    for sigma in (0.5, 2.0, 4.0):
        for schedule in (phased_schedule_default(), None):
            cfg = ControllerConfig(phase_schedule=schedule)
            for seed in range(8):
                sim = simulator.SimConfig(strategy=simulator.preset("FF", sigma=sigma),
                                          iterations=30, base_seed=seed)
                t, events = run_controlled(sim, cfg, catalog=simulator.preset_catalog(sigma))
                online = [e for e in events if e.kind is EventKind.INTERVENTION]
                offline = [e for e in check_interventions(t, cfg) if e.iteration >= 1]
                assert online == offline
                seen.update(e.detail for e in online)
    assert seen == {"security_floor", "efficiency_drop", "rate_ceiling"}


# ---------------------------------------------------------------------------
# segmented run_controlled against the step-by-step reference loop
# ---------------------------------------------------------------------------

def outcome(monkeypatch, run, *args, **kwargs):
    """What a run gives: its trajectory and event bytes, or the type and
    message of what it raises; with the iterations whose rule events the
    run took, in order, which places a raise at its step. The controller
    takes a span of steps at a time (`_rule_events`), the reference loop
    one step at a time (`_interventions_at`)."""
    seen = []
    if run is run_controlled:
        module, name = controller, "_rule_events"

        def spy(ruled, lo, hi):
            seen.extend(range(lo, hi))
            return rules(ruled, lo, hi)
    else:
        module, name = oracles, "_interventions_at"

        def spy(m, t, rate):
            seen.append(t)
            return rules(m, t, rate)
    rules = getattr(module, name)
    monkeypatch.setattr(module, name, spy)
    try:
        traj, events = run(*args, **kwargs)
        result = (dumps_trajectories([traj]), controller.dumps_events(events))
    except Exception as exc:  # compared with the reference's, whatever it is
        result = (type(exc), str(exc))
    finally:
        monkeypatch.setattr(module, name, rules)
    return result + (seen,)


def assert_matches_reference(monkeypatch, sim, cfg, **kwargs):
    got = outcome(monkeypatch, run_controlled, sim, cfg, **kwargs)
    want = outcome(monkeypatch, reference_run_controlled, sim, cfg, **kwargs)
    assert got[:2] == want[:2]
    assert got[2] == want[2]
    return got


def raised(result):
    return result[0] if isinstance(result[0], type) else None


@pytest.mark.parametrize("sigma", [0.5, 2.0, 4.0])
@pytest.mark.parametrize("schedule", ["default", "none"])
@pytest.mark.parametrize("halt", [False, True])
def test_run_controlled_matches_reference_on_presets(monkeypatch, sigma, schedule, halt):
    cfg = ControllerConfig(
        phase_schedule=phased_schedule_default() if schedule == "default" else None
    )
    for strategy in ("AI", "FF", "SF", "EF"):
        for box in (None, (3.0, 7.0)):
            sim = simulator.SimConfig(strategy=simulator.preset(strategy, sigma),
                                      iterations=150, base_seed=17, init_box=box)
            assert_matches_reference(monkeypatch, sim, cfg, halt_on_intervention=halt)


def switching_schedule(seed, phases, last_open):
    """A schedule whose phases last 1 or 2 steps, over the presets."""
    rng = np.random.default_rng(seed)
    ids = ["AI", "FF", "SF", "EF"]
    rows = [Phase(ids[rng.integers(4)], 1, int(rng.integers(1, 3))) for _ in range(phases)]
    if last_open:
        rows[-1] = Phase(rows[-1].strategy_id, 1, None)
    return tuple(rows)


@pytest.mark.parametrize("halt", [False, True])
def test_run_controlled_matches_reference_on_fast_switching_schedules(monkeypatch, halt):
    # a switch every step or two restarts the segment every step or two
    switches = 0
    for seed in range(4):
        cfg = ControllerConfig(phase_schedule=switching_schedule(seed, 90, last_open=True))
        sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=160,
                                  base_seed=seed, init_box=(2.0, 8.0))
        result = assert_matches_reference(monkeypatch, sim, cfg, halt_on_intervention=halt)
        switches += result[1].count("PhaseSwitch") if raised(result) is None else 0
    assert switches > (0 if halt else 100)


def test_run_controlled_matches_reference_when_a_bounded_schedule_runs_out(monkeypatch):
    for seed in range(3):
        cfg = ControllerConfig(phase_schedule=switching_schedule(seed, 12, last_open=False))
        sim = simulator.SimConfig(strategy=simulator.preset("AI", 2.0), iterations=60,
                                  base_seed=seed)
        result = assert_matches_reference(monkeypatch, sim, cfg)
        assert raised(result) is None and "(fallback)" in result[1]


@pytest.mark.parametrize("window", [2, 3, 8])
@pytest.mark.parametrize("dt", [1.0, 0.5])
def test_run_controlled_matches_reference_across_windows_and_dt(monkeypatch, window, dt):
    for schedule in (phased_schedule_default(), None):
        cfg = ControllerConfig(window=window, phase_schedule=schedule)
        for strategy in ("AI", "FF"):
            sim = simulator.SimConfig(strategy=simulator.preset(strategy, 2.0),
                                      iterations=200, dt=dt, base_seed=window)
            assert_matches_reference(monkeypatch, sim, cfg)


def dense_catalog(n, seed):
    """Three dense n-dimensional strategies P, Q and AI (the fallback) with
    drifts near -0.3 I."""
    rng = np.random.default_rng(seed)
    return {sid: StrategySpec(sid, -0.3 * np.eye(n) + 0.15 * rng.standard_normal((n, n)),
                              rng.normal(1.5, 0.5, n), 0.8 * np.eye(n) + 0.1 * rng.random((n, n)))
            for sid in ("P", "Q", "AI")}


@pytest.mark.parametrize("n", [2, 4])
def test_run_controlled_matches_reference_on_custom_catalogs(monkeypatch, n):
    catalog = dense_catalog(n, n)
    schedules = (None, (Phase("P", 2, 3), Phase("Q", 1, 2), Phase("AI", 3, 5), Phase("P", 1, None)))
    for schedule in schedules:
        for window in (n + 1, n + 3):
            cfg = ControllerConfig(window=window, phase_schedule=schedule)
            for seed in (1, 2):
                sim = simulator.SimConfig(strategy=catalog["Q"], iterations=200,
                                          base_seed=seed, init_box=(2.0, 8.0))
                for halt in (False, True):
                    assert_matches_reference(monkeypatch, sim, cfg, catalog=catalog,
                                             halt_on_intervention=halt)


@pytest.mark.parametrize("box", [None, (3.0, 7.0)])
def test_scheduled_run_starts_at_its_first_phase_width(monkeypatch, box):
    # sim.strategy is 2-D, but a scheduled run starts with the 3-D FF
    two_d = StrategySpec("TD", np.diag([-0.5, -0.3]), np.ones(2), 0.5 * np.eye(2))
    sim = simulator.SimConfig(strategy=two_d, iterations=40, base_seed=9, init_box=box)
    result = assert_matches_reference(
        monkeypatch, sim, ControllerConfig(phase_schedule=phased_schedule_default()))
    assert raised(result) is None
    assert len(json.loads(result[0].splitlines()[0])["objectives"]) == 3


def test_a_fallback_of_another_id_notes_every_boundary_switch(monkeypatch):
    # the catalog's fallback is the run's own strategy under another id, so
    # each boundary edge switches to the same spec; every one is noted, not
    # only the first of its segment
    ai = simulator.preset("AI", 2.0)
    alias = StrategySpec("Q", ai.drift_matrix, ai.drift_intercept, ai.diffusion)
    catalog = {**simulator.preset_catalog(2.0), "AI": alias}
    sim = simulator.SimConfig(strategy=alias, iterations=3000, base_seed=5)
    result = assert_matches_reference(monkeypatch, sim, ControllerConfig(), catalog=catalog)
    assert result[1].count("switching Q->AI") == result[1].count("BoundaryAvoidSwitch") > 50


def test_run_controlled_matches_reference_on_a_switch_to_another_width(monkeypatch):
    lazy = StrategySpec("LZ", np.diag([-0.001, -0.5]), np.zeros(2), 0.4 * np.eye(2))
    outcomes = set()
    for seed in range(12):
        sim = simulator.SimConfig(strategy=lazy, iterations=30, base_seed=seed)
        outcomes.add(raised(assert_matches_reference(monkeypatch, sim, ControllerConfig(window=3))))
    assert outcomes == {None, DimensionMismatch}


@pytest.mark.parametrize("window", [2, 5, 8])
@pytest.mark.parametrize("halt", [False, True])
def test_unclipped_overflow_raises_or_halts_as_the_reference_does(monkeypatch, window, halt):
    # AI drift grows the state by 2.6x a step at dt = 20 until a step
    # overflows, which raises NonFinite naming that step, after the rules
    # at its start row. A start below the security floor halts the run at
    # step 1 before anything overflows.
    outcomes = set()
    for seed, box in ((1, (4.0, 6.0)), (2, (4.0, 6.0)), (3, (-3.0, -1.0))):
        sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=900, dt=20.0,
                                  base_seed=seed, clip=False, init_box=box)
        result = assert_matches_reference(monkeypatch, sim, ControllerConfig(window=window),
                                          halt_on_intervention=halt)
        outcomes.add(raised(result))
        if raised(result) is NonFinite:
            assert result[1] == f"step {result[2][-1]} gives a non-finite state"
    assert NonFinite in outcomes
    assert (None in outcomes) == halt


@pytest.mark.parametrize("window", [2, 3, 5])
def test_an_overflow_raises_only_where_the_rules_reach_it(monkeypatch, window):
    # BOOM's steps from 5 reach 5e150, then 5e300, then overflow; CALM
    # holds the state where it is, and so does the fallback AI
    zero = np.zeros((2, 2))
    catalog = {sid: StrategySpec(sid, zero, np.zeros(2), zero) for sid in ("CALM", "AI")}
    catalog["BOOM"] = StrategySpec("BOOM", 1e150 * np.eye(2), np.zeros(2), zero)
    sim = simulator.SimConfig(strategy=catalog["BOOM"], iterations=12, clip=False)
    # the segment steps ahead with BOOM past its switch at step 1, into the
    # overflow of step 2, which the step-by-step loop never takes
    cfg = ControllerConfig(window=window,
                           phase_schedule=(Phase("BOOM", 1, 1), Phase("CALM", 1, None)))
    result = assert_matches_reference(monkeypatch, sim, cfg, catalog=catalog)
    assert raised(result) is None and '"detail": "BOOM->CALM"' in result[1]
    # with no switch the rules at step 2 run, then step 2 raises
    cfg = ControllerConfig(window=window, phase_schedule=(Phase("BOOM", 1, None),))
    result = assert_matches_reference(monkeypatch, sim, cfg, catalog=catalog)
    assert result == (NonFinite, "step 2 gives a non-finite state", [1, 2])


@pytest.mark.parametrize("window", [2, 5])
@pytest.mark.parametrize("halt", [False, True])
def test_a_noise_overflow_raises_only_where_the_rules_reach_it(monkeypatch, window, halt):
    # zero drift and a 1e308 I diffusion: a step's noise term or its sum
    # overflows within a few steps. With halting on, a run halts before its
    # overflow although its segment has stepped into it; only an overflow
    # at step 0 comes first.
    noisy = StrategySpec("NOISY", np.zeros((3, 3)), np.zeros(3), 1e308 * np.eye(3))
    steps = [None, None, 0, None, None, None] if halt else [2, 4, 0, 1, 1, 4]
    for seed, step in enumerate(steps):
        sim = simulator.SimConfig(strategy=noisy, iterations=50, base_seed=seed, clip=False)
        result = assert_matches_reference(monkeypatch, sim, ControllerConfig(window=window),
                                          halt_on_intervention=halt)
        if step is None:
            assert raised(result) is None
        else:
            assert result[:2] == (NonFinite, f"step {step} gives a non-finite state")


def drawn_schedule(rows, last_open):
    """The schedule of (strategy_id, min_iters, max_iters - min_iters) rows,
    its last phase open when last_open."""
    phases = [Phase(sid, lo, lo + extra) for sid, lo, extra in rows]
    if last_open:
        phases[-1] = phases[-1]._replace(max_iters=None)
    return tuple(phases)


# 1 to 12 phases over the presets, of 1 to 6 steps each and up to 6 more
# (0: min == max), the last one bounded or open
random_schedules = st.builds(
    drawn_schedule,
    st.lists(st.tuples(st.sampled_from(["AI", "FF", "SF", "EF"]), st.integers(1, 6),
                       st.integers(0, 6)), min_size=1, max_size=12),
    st.booleans())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), iterations=st.integers(8, 120),
       window=st.integers(2, 8), sigma=st.sampled_from([0.3, 1.0, 2.0, 4.0]),
       strategy=st.sampled_from(["AI", "FF", "SF", "EF"]),
       schedule=st.one_of(st.none(), st.just(phased_schedule_default()), random_schedules),
       halt=st.booleans())
def test_run_controlled_matches_reference_property(seed, iterations, window, sigma, strategy,
                                                   schedule, halt):
    sim = simulator.SimConfig(strategy=simulator.preset(strategy, sigma),
                              iterations=max(iterations, window), base_seed=seed)
    cfg = ControllerConfig(window=window, phase_schedule=schedule)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_reference(monkeypatch, sim, cfg, halt_on_intervention=halt)


@pytest.mark.parametrize("window", [5, 8])
def test_check_interventions_matches_per_window_reference(window):
    cfg = ControllerConfig(window=window)
    seen = set()
    for strategy in ("AI", "FF"):
        sim = simulator.SimConfig(strategy=simulator.preset(strategy, 2.0), iterations=2000,
                                  base_seed=window)
        t = simulator.simulate_session(sim, 0)
        got = check_interventions(t, cfg)
        assert controller.dumps_events(got) == \
            controller.dumps_events(reference_check_interventions(t, cfg))
        seen.update(e.detail for e in got)
    assert {"security_floor", "efficiency_drop"} <= seen


def per_matrix_signals(A, zero_tol):
    report = spectral.classify_regime(spectral.eigen_spectrum(A), 1.0, zero_tol)
    lams = report.eigenvalues
    return (report.convergence_rate, any(abs(lam.imag) > zero_tol for lam in lams),
            min(abs(lam.real) for lam in lams))


def columns_repr(sig):
    """The fitted windows' signals of a `controller._Signals` as lists, so
    that repr tells -0.0 from 0.0."""
    return repr([sig.rate.tolist(), sig.has_complex.tolist(), sig.min_abs_re.tolist()])


def test_window_signals_match_per_matrix_reports(monkeypatch):
    # signed zeros, where a stacked max may pick another zero than the
    # scan over the sorted spectrum, and a non-finite matrix mid-stack,
    # which raises at its own window
    rng = np.random.default_rng(5)
    stack = [np.diag([-0.0, 0.0, -1.0]), np.diag([0.0, -0.0, -1.0]), np.zeros((3, 3)),
             np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -0.0]]),
             rng.standard_normal((3, 3)), np.full((3, 3), np.inf), rng.standard_normal((3, 3))]
    full = np.array([True, False, True, True, True, True, False, True, True])
    fits = inference.WindowFits(full, np.array(stack), None)
    monkeypatch.setattr(inference, "fit_windows", lambda rows, window: fits)
    sig = controller._window_signals(None, 5)
    want = [per_matrix_signals(a, 0.01) for a in stack[:5]]
    # the inf matrix is window 7's fit: the windows before it stay
    assert sig.full.tolist() == full[:7].tolist()
    assert columns_repr(sig) == repr([list(column) for column in zip(*want)])
    assert repr(sig.rate.tolist()[:2]) == "[0.0, -0.0]"
    assert isinstance(sig.error, NonFinite) and str(sig.error) == "matrix has non-finite entries"
    # signed zeros alone
    fits = inference.WindowFits(np.ones(4, dtype=bool), np.array(stack[:4]), None)
    sig = controller._window_signals(None, 5)
    assert sig.error is None and sig.full.all()
    assert columns_repr(sig) == repr([list(column) for column in zip(*want[:4])])
    # without the bad matrix the stacked path serves every window
    fits = inference.WindowFits(full[:6], np.array(stack[4:5] * 5), None)
    sig = controller._window_signals(None, 5)
    assert sig.error is None and sig.full.tolist() == full[:6].tolist()
    assert sig.has_complex.dtype == bool
    assert columns_repr(sig) == repr([list(column) for column in
                                      zip(*[per_matrix_signals(stack[4], 0.01)] * 5)])


# ---------------------------------------------------------------------------
# the array triggers at their thresholds, against the per-step rules
# ---------------------------------------------------------------------------

# A scripted run: drift 0, diffusion I and dt 1, so each step adds its noise
# row exactly, and the noise is the differences of the wanted rows. Axis 2
# counts the steps in 64ths from 5, which names the row a window ends
# after, so that a scripted drift can be fitted on the window ending at
# each iteration. All values are exact in binary.
STEPS = 64
SCRIPTED_CATALOG = {sid: StrategySpec(sid, np.zeros((3, 3)), np.zeros(3), np.eye(3))
                    for sid in ("S", "AI")}
SCRIPTED = SCRIPTED_CATALOG["S"]
REAL = np.diag([-1.0, -2.0, -3.0])
COMPLEX = np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.0], [0.0, 0.0, -3.0]])
AT_CEILING = np.diag([-controller.RATE_CEILING, -2.0, -3.0])
ABOVE_CEILING = np.diag([-np.nextafter(controller.RATE_CEILING, 2.0), -2.0, -3.0])


def scripted_rows(security=(), efficiency=()):
    """The rows of a STEPS-step run from the box centre, with the security
    and efficiency values `{iteration: value}` given; a value below the
    box is clipped to 0 there and stays clipped while it is unchanged."""
    rows = np.full((STEPS + 1, 3), 5.0)
    rows[:, 2] += np.arange(STEPS + 1) / 64
    for axis, values in ((0, security), (1, efficiency)):
        for t, value in sorted(dict(values).items()):
            rows[t:, axis] = value
    return rows


def walked(rows):
    """The rows a scripted run gives: each step adds the next difference of
    `rows` and clips to the box."""
    out = rows.copy()
    for t, step in enumerate(np.diff(rows, axis=0)):
        out[t + 1] = np.clip(out[t] + step, 0.0, 10.0)
    return out


def script(monkeypatch, rows, drifts):
    """Patch the noise and the window fits of `run_controlled`,
    `check_interventions` and their references so that a run of SCRIPTED
    walks through `walked(rows)` and the drift fitted on the window ending
    at iteration t is drifts[t]: no fit where t is absent, and where
    drifts[t] is an exception the fit raises it."""
    noise = np.diff(rows, axis=0)

    def ends(states):
        return np.rint((states[:, 2] - 5.0) * 64).astype(int) + 1

    def fit_windows(m, window):
        keys = ends(np.asarray(m)[window - 1:-1]).tolist()
        raising = [k for k in keys if isinstance(drifts.get(k), Exception)]
        if raising:
            keys = keys[:keys.index(raising[0])]
        A = np.array([drifts[k] for k in keys if k in drifts]).reshape(-1, 3, 3)
        return inference.WindowFits(np.array([k in drifts for k in keys], dtype=bool), A,
                                    drifts[raising[0]] if raising else None)

    def unchecked_fit_affine(states, deltas):
        end = int(ends(states[-1:])[0])
        if end not in drifts:
            raise RankDeficientDesign("scripted: no fit")
        if isinstance(drifts[end], Exception):
            raise drifts[end]
        return drifts[end], None, None, len(states)

    class Generator:
        def __init__(self, tag):
            self.tag = tag

        def standard_normal(self, n):
            return noise[self.tag - 1].copy()

    def normals(keys, tags, n):
        return noise[np.array(tags) - 1][:, None]

    monkeypatch.setattr(simulator, "_normals", normals)
    monkeypatch.setattr(oracles, "fresh_generator", lambda seed, index, tag: Generator(tag))
    monkeypatch.setattr(inference, "fit_windows", fit_windows)
    monkeypatch.setattr(oracles, "unchecked_fit_affine", unchecked_fit_affine)


EDGE_CASES = {
    # exactly at the floor is not below it: 16 is quiet, 17 and 48 fire
    "security-at-floor": (dict(security={16: 2.0, 17: 1.5, 18: 5.0, 47: 2.0, 48: 1.0, 49: 5.0}),
                          {}, {"security_floor": [17, 48]}),
    # (1 - 0.3) * 10 is 7.0 exactly, so 10 -> 7 is no drop; 10 -> 6.5 is
    "efficiency-at-drop": (dict(efficiency={15: 10.0, 16: 7.0, 47: 10.0, 48: 6.5}),
                           {}, {"efficiency_drop": [48]}),
    # a drop to the box floor fires once, and a base of 0 drops no further:
    # the step to -1 is clipped to 0, and 4 at 48 (0 + 3 - -1) is no drop
    "efficiency-at-box-floor": (dict(efficiency={16: 0.0, 17: -1.0, 48: 3.0, 49: 0.0}),
                                {}, {"efficiency_drop": [16, 49]}),
    # a rate of exactly 1.5 is not above the ceiling
    "rate-at-ceiling": (dict(), {**{t: REAL for t in range(5, STEPS + 1)}, 16: AT_CEILING,
                                 17: ABOVE_CEILING, 47: AT_CEILING, 48: ABOVE_CEILING},
                        {"rate_ceiling": [17, 48]}),
    # signed zero rates take the per-matrix spectra; the edges carry them
    "signed-zero-rates": (dict(), {15: COMPLEX, 16: np.diag([-0.0, 0.0, -1.0]),
                                   17: np.diag([0.0, -0.0, -1.0]), 18: REAL,
                                   47: COMPLEX, 48: np.diag([0.0, -0.0, -1.0]), 49: REAL},
                          {"local spectrum turned real": [16, 48],
                           "eigenvalue near zero; switching S->AI": [16],
                           "eigenvalue near zero": [48]}),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_check_interventions_at_the_thresholds(monkeypatch, case):
    paths, drifts, want = EDGE_CASES[case]
    rows = scripted_rows(**paths)
    script(monkeypatch, rows, drifts)
    t = traj(walked(rows))
    got = check_interventions(t, ControllerConfig(window=3))
    assert controller.dumps_events(got) == \
        controller.dumps_events(reference_check_interventions(t, ControllerConfig(window=3)))
    # only the triggers are scanned offline
    triggers = ("security_floor", "efficiency_drop", "rate_ceiling")
    assert {d: [e.iteration for e in got if e.detail == d] for d in triggers} == \
        {d: want.get(d, []) for d in triggers}


@pytest.mark.parametrize("case", EDGE_CASES)
@pytest.mark.parametrize("halt", [False, True])
@pytest.mark.parametrize("schedule", [None, (Phase("S", 20, 40), Phase("AI", 1, None))],
                         ids=["none", "phased"])
def test_run_controlled_at_the_thresholds(monkeypatch, case, halt, schedule):
    paths, drifts, want = EDGE_CASES[case]
    rows = scripted_rows(**paths)
    script(monkeypatch, rows, drifts)
    sim = simulator.SimConfig(strategy=SCRIPTED, iterations=STEPS, base_seed=1)
    cfg = ControllerConfig(window=3, phase_schedule=schedule)
    result = assert_matches_reference(monkeypatch, sim, cfg, catalog=SCRIPTED_CATALOG,
                                      halt_on_intervention=halt)
    assert raised(result) is None
    got = [json.loads(line) for line in result[1].splitlines()]
    assert result[0] == dumps_trajectories([Trajectory(
        "s000", "controlled", walked(rows)[:len(result[0].splitlines())])])
    if not halt:
        want = dict(want)
        if schedule is not None and "eigenvalue near zero" in want:
            # a scheduled run does not switch at a boundary edge
            want["eigenvalue near zero"] = sorted(
                want.pop("eigenvalue near zero; switching S->AI") + want["eigenvalue near zero"])
        assert {d: [e["iteration"] for e in got if e["detail"] == d] for d in want} == want
    if case == "signed-zero-rates":
        turned = [repr(e["value"]) for e in got if e["kind"] == "ExplorationToExploitation"]
        assert turned == ["0.0", "-0.0"]


def test_efficiency_from_a_zero_base_never_drops(monkeypatch):
    # unclipped, a drop from 0 to -1 is still no drop: the base must be > 0
    rows = [[5.0, 0.0, 5.0], [5.0, -1.0, 5.0], [5.0, 0.0, 5.0]]
    assert check_interventions(traj(rows), CFG) == []
    assert reference_check_interventions(traj(rows), CFG) == []
    script(monkeypatch, scripted_rows(efficiency={10: 0.0, 11: -1.0, 12: -2.0}), {})
    sim = simulator.SimConfig(strategy=SCRIPTED, iterations=STEPS, clip=False)
    result = assert_matches_reference(monkeypatch, sim, ControllerConfig(window=3),
                                      catalog=SCRIPTED_CATALOG)
    assert [json.loads(line)["iteration"] for line in result[1].splitlines()] == [10]


@pytest.mark.parametrize("halt", [False, True])
def test_a_fit_that_raises_after_a_switch_raises_where_the_rules_reach_it(monkeypatch, halt):
    # the boundary edge at 10 switches S to AI in the segment whose window
    # ending at 14 raises; the next segment refits that window and raises
    # there, after the rules at 11..13
    drifts = {t: REAL for t in range(3, STEPS + 1)}
    drifts.update({10: np.diag([0.0, -1.0, -2.0]), 14: NonFinite("scripted fit failure")})
    script(monkeypatch, scripted_rows(), drifts)
    sim = simulator.SimConfig(strategy=SCRIPTED, iterations=STEPS)
    result = assert_matches_reference(monkeypatch, sim, ControllerConfig(window=3),
                                      catalog=SCRIPTED_CATALOG, halt_on_intervention=halt)
    assert result == (NonFinite, "scripted fit failure", list(range(1, 14)))


def test_an_unscheduled_fallback_run_applies_no_per_step_rule(monkeypatch):
    # control_long's configuration: no schedule, the run starts at the
    # fallback and does not halt, so no rule can change the state. Every
    # segment's rule events are taken as one span, and no switch is made.
    calls, spans = [], []
    switch, rule_events = controller._switch, controller._rule_events

    def spy_switch(state, now, *args):
        calls.append(now)
        return switch(state, now, *args)

    def spy_spans(ruled, lo, hi):
        spans.append((lo, hi))
        return rule_events(ruled, lo, hi)

    monkeypatch.setattr(controller, "_switch", spy_switch)
    monkeypatch.setattr(controller, "_rule_events", spy_spans)
    sim = simulator.SimConfig(strategy=simulator.preset("AI", 2.0), iterations=3000,
                              base_seed=33002)
    _t, events = run_controlled(sim, ControllerConfig(), simulator.preset_catalog(2.0))
    assert calls == []
    assert len(events) > 500 and {e.kind for e in events} == {
        EventKind.INTERVENTION, EventKind.EXPLORATION_TO_EXPLOITATION,
        EventKind.BOUNDARY_AVOID_SWITCH}
    bounds = [0, 16, 48, 112, 240, 496, 1008, 2032, 3000]
    assert spans == [(lo + 1, hi + 1) for lo, hi in zip(bounds, bounds[1:])]
    # halting ends the run at its first intervention with no switch; a
    # schedule or a start away from the fallback do switch
    spans.clear()
    _t, events = run_controlled(sim, ControllerConfig(), simulator.preset_catalog(2.0),
                                halt_on_intervention=True)
    assert calls == [] and events[-1].kind is EventKind.INTERVENTION
    assert spans[-1][1] == events[-1].iteration + 1
    for kwargs in (dict(cfg=ControllerConfig(phase_schedule=phased_schedule_default())),
                   dict(sim=simulator.SimConfig(strategy=simulator.preset("SF", 2.0),
                                                iterations=3000, base_seed=33002))):
        run_controlled(kwargs.pop("sim", sim), kwargs.pop("cfg", ControllerConfig()),
                       simulator.preset_catalog(2.0), **kwargs)
        assert calls
        calls.clear()
