from unittest import mock

import numpy as np
import pytest

from driftlab import controller, inference, simulator
from driftlab.controller import (
    ControllerConfig,
    EventKind,
    Phase,
    check_interventions,
    phased_schedule_default,
    run_controlled,
)
from driftlab.core import (
    DimensionMismatch,
    ScheduleExhausted,
    StrategySpec,
    Trajectory,
    dumps_trajectories,
)

from oracles import contraction_trajectory, fresh_generator, reference_fit_affine


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
    seed, session = 41, 2
    sim = simulator.SimConfig(strategy=simulator.preset("AI", sigma), sessions=3,
                              iterations=300, base_seed=seed,
                              init_box=(3.0, 7.0) if start == "init-box" else None)
    cfg = ControllerConfig(
        phase_schedule=phased_schedule_default() if schedule == "default" else None
    )
    got_traj, got_events = run_controlled(sim, cfg, halt_on_intervention=halt,
                                          session_index=session)

    # reference: a generator built afresh for every draw, the k-th draw
    # being the noise of step k
    steps = iter(range(sim.iterations))

    def step_noise(self, iteration, out):
        out[:] = simulator.step_noise(seed, session, next(steps), len(out))
        return out

    def start_draw(self, low, high, n):
        return fresh_generator(seed, session, 0).uniform(low, high, size=n)

    monkeypatch.setattr(simulator._SessionStream, "normal", step_noise)
    monkeypatch.setattr(simulator._SessionStream, "uniform", start_draw)
    want_traj, want_events = run_controlled(sim, cfg, halt_on_intervention=halt,
                                            session_index=session)
    assert got_events
    assert dumps_trajectories([got_traj]) == dumps_trajectories([want_traj])
    assert controller.dumps_events(got_events) == controller.dumps_events(want_events)


@pytest.mark.parametrize("sigma", [0.5, 2.0, 4.0])
@pytest.mark.parametrize("schedule", ["default", "none"])
@pytest.mark.parametrize("halt", [False, True])
def test_controller_bytes_match_the_rank_oracle_fit(monkeypatch, sigma, schedule, halt):
    # fit_affine's single decomposition must steer the loop exactly as
    # matrix_rank-then-lstsq did: same trajectory bytes, same events
    cfg = ControllerConfig(
        phase_schedule=phased_schedule_default() if schedule == "default" else None
    )
    runs = []
    for fit in (inference.fit_affine, reference_fit_affine):
        monkeypatch.setattr(inference, "fit_affine", fit)
        for seed in (5, 6):
            sim = simulator.SimConfig(strategy=simulator.preset("AI", sigma),
                                      iterations=400, base_seed=seed)
            t, events = run_controlled(sim, cfg, halt_on_intervention=halt)
            runs.append((dumps_trajectories([t]), controller.dumps_events(events),
                         check_interventions(t, cfg)))
    assert runs[:2] == runs[2:]
    assert all(events for _, events, _ in runs)


def test_halt_on_intervention_truncates_run():
    sim = simulator.SimConfig(strategy=simulator.preset("FF", sigma=0.5),
                              iterations=10, base_seed=3)
    t, events = run_controlled(sim, ControllerConfig(), halt_on_intervention=True)
    interventions = [e for e in events if e.kind is EventKind.INTERVENTION]
    assert interventions
    first = min(e.iteration for e in interventions)
    assert len(t.points) - 1 == first
    assert all(e.iteration <= first for e in events)


def test_run_controlled_rejects_negative_session_index():
    sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=10)
    for index in (-1, -3):
        with pytest.raises(ValueError, match="session index"):
            run_controlled(sim, ControllerConfig(), session_index=index)


def test_controlled_trajectory_respects_clip_box():
    for seed in (0, 1, 2):
        sim = simulator.SimConfig(strategy=simulator.preset("FF"), iterations=12,
                                  base_seed=seed)
        cfg = ControllerConfig(phase_schedule=phased_schedule_default())
        t, _e = run_controlled(sim, cfg)
        m = t.values_matrix
        assert np.all(m >= 0.0) and np.all(m <= 10.0)


def test_schedule_exhausted_without_fallback():
    schedule = (Phase("FF", 1, 1), Phase("SF", 1, 1))
    sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=8,
                              base_seed=2)
    cfg = ControllerConfig(phase_schedule=schedule, fallback_strategy_id=None)
    with pytest.raises(ScheduleExhausted):
        run_controlled(sim, cfg)


def test_exhausted_schedule_falls_back():
    schedule = (Phase("FF", 1, 1), Phase("SF", 1, 1))
    sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=8,
                              base_seed=2)
    cfg = ControllerConfig(phase_schedule=schedule)  # fallback AI
    _t, events = run_controlled(sim, cfg)
    fallbacks = [e for e in events if "fallback" in e.detail]
    assert len(fallbacks) == 1


def test_catalog_must_cover_schedule():
    sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=8)
    cfg = ControllerConfig(phase_schedule=(Phase("ZZ", 1, None),))
    with pytest.raises(KeyError):
        run_controlled(sim, cfg)


def test_catalog_must_hold_the_fallback():
    # checked before the run, not at the first switch that needs it
    sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=8)
    for schedule in (None, (Phase("SF", 1, 2),)):
        cfg = ControllerConfig(phase_schedule=schedule, fallback_strategy_id="ZZ")
        with mock.patch.object(simulator, "_step", side_effect=AssertionError("ran")):
            with pytest.raises(KeyError, match="fallback strategy missing from catalog: 'ZZ'"):
                run_controlled(sim, cfg)
    catalog = {k: v for k, v in simulator.preset_catalog().items() if k != "AI"}
    with pytest.raises(KeyError, match="'AI'"):
        run_controlled(simulator.SimConfig(strategy=simulator.preset("SF"), iterations=8),
                       ControllerConfig(), catalog=catalog)
    run_controlled(simulator.SimConfig(strategy=simulator.preset("SF"), iterations=8),
                   ControllerConfig(fallback_strategy_id=None), catalog=catalog)


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
    assert found.triggering_value < ControllerConfig().zero_margin
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
    lines = [line for line in text.splitlines() if line]
    assert len(lines) == len(events)
    import json
    rec = json.loads(lines[0])
    assert set(rec) == {"iteration", "kind", "detail", "value"}


def test_parse_schedule_rejects_malformed():
    from driftlab.core import DomainError
    with pytest.raises(DomainError):
        controller.parse_schedule([["FF", 0, 3]])
    with pytest.raises(DomainError):
        controller.parse_schedule([["FF", 3, 2]])
    with pytest.raises(DomainError):
        controller.parse_schedule("FF")
    good = controller.parse_schedule([["FF", 2, 3], ["AI", 1, None]])
    assert good == (Phase("FF", 2, 3), Phase("AI", 1, None))


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
                t, events = run_controlled(sim, cfg)
                online = [e for e in events if e.kind is EventKind.INTERVENTION]
                offline = [e for e in check_interventions(t, cfg) if e.iteration >= 1]
                assert online == offline
                seen.update(e.detail for e in online)
    assert seen == {"security_floor", "efficiency_drop", "rate_ceiling"}
