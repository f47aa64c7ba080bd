from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import controller, inference, simulator, spectral
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
    NonFinite,
    ScheduleExhausted,
    StrategySpec,
    Trajectory,
    dumps_trajectories,
)

import oracles
from oracles import (
    contraction_trajectory,
    fresh_generator,
    reference_check_interventions,
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
        out[:] = fresh_generator(seed, session, next(steps) + 1).standard_normal(len(out))
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


@pytest.mark.parametrize("fallback", ["AI", None])
def test_bounded_schedule_ending_on_the_last_step_is_not_exhausted(fallback):
    # SF reaches its max at step 5 of 5: no step is left to fall back for
    schedule = (Phase("FF", 2, 2), Phase("SF", 3, 3))
    sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=5, base_seed=2)
    cfg = ControllerConfig(phase_schedule=schedule, fallback_strategy_id=fallback)
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


# ---------------------------------------------------------------------------
# segmented run_controlled against the step-by-step reference loop
# ---------------------------------------------------------------------------

def outcome(monkeypatch, module, run, *args, **kwargs):
    """What a run gives: its trajectory and event bytes, or the type and
    message of what it raises; with the iterations whose trigger rules ran,
    in order, which places a raise at its step."""
    rules = module._interventions_at
    seen = []

    def spy(m, t, rate):
        seen.append(t)
        return rules(m, t, rate)

    monkeypatch.setattr(module, "_interventions_at", spy)
    try:
        traj, events = run(*args, **kwargs)
        result = (dumps_trajectories([traj]), controller.dumps_events(events))
    except Exception as exc:  # compared with the reference's, whatever it is
        result = (type(exc), str(exc))
    finally:
        monkeypatch.setattr(module, "_interventions_at", rules)
    return result + (seen,)


def assert_matches_reference(monkeypatch, sim, cfg, **kwargs):
    got = outcome(monkeypatch, controller, run_controlled, sim, cfg, **kwargs)
    want = outcome(monkeypatch, oracles, reference_run_controlled, sim, cfg, **kwargs)
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


@pytest.mark.parametrize("fallback", ["AI", None])
@pytest.mark.parametrize("halt", [False, True])
def test_run_controlled_matches_reference_on_fast_switching_schedules(monkeypatch, fallback, halt):
    # a switch every step or two restarts the segment every step or two
    switches = 0
    for seed in range(4):
        cfg = ControllerConfig(phase_schedule=switching_schedule(seed, 90, last_open=True),
                               fallback_strategy_id=fallback)
        sim = simulator.SimConfig(strategy=simulator.preset("AI"), iterations=160,
                                  base_seed=seed, init_box=(2.0, 8.0))
        result = assert_matches_reference(monkeypatch, sim, cfg, halt_on_intervention=halt)
        switches += result[1].count("PhaseSwitch") if raised(result) is None else 0
    assert switches > (0 if halt else 100)


@pytest.mark.parametrize("fallback", ["AI", None])
def test_run_controlled_matches_reference_when_a_bounded_schedule_runs_out(monkeypatch, fallback):
    outcomes = set()
    for seed in range(3):
        cfg = ControllerConfig(phase_schedule=switching_schedule(seed, 12, last_open=False),
                               fallback_strategy_id=fallback)
        sim = simulator.SimConfig(strategy=simulator.preset("AI", 2.0), iterations=60,
                                  base_seed=seed)
        outcomes.add(raised(assert_matches_reference(monkeypatch, sim, cfg)))
    assert outcomes == ({None} if fallback else {ScheduleExhausted})


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
    """Three dense n-dimensional strategies P, Q, R with drifts near -0.3 I."""
    rng = np.random.default_rng(seed)
    return {sid: StrategySpec(sid, -0.3 * np.eye(n) + 0.15 * rng.standard_normal((n, n)),
                              rng.normal(1.5, 0.5, n), 0.8 * np.eye(n) + 0.1 * rng.random((n, n)))
            for sid in "PQR"}


@pytest.mark.parametrize("n", [2, 4])
def test_run_controlled_matches_reference_on_custom_catalogs(monkeypatch, n):
    catalog = dense_catalog(n, n)
    schedules = (None, (Phase("P", 2, 3), Phase("Q", 1, 2), Phase("R", 3, 5), Phase("P", 1, None)))
    for schedule in schedules:
        for window in (n + 1, n + 3):
            cfg = ControllerConfig(window=window, phase_schedule=schedule,
                                   fallback_strategy_id="R")
            for seed in (1, 2):
                sim = simulator.SimConfig(strategy=catalog["Q"], iterations=200,
                                          base_seed=seed, init_box=(2.0, 8.0))
                for halt in (False, True):
                    assert_matches_reference(monkeypatch, sim, cfg, catalog=catalog,
                                             halt_on_intervention=halt)


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
                                  base_seed=seed, clip_bounds=None, init_box=box)
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
    # holds the state where it is
    zero = np.zeros((2, 2))
    catalog = {"BOOM": StrategySpec("BOOM", 1e150 * np.eye(2), np.zeros(2), zero),
               "CALM": StrategySpec("CALM", zero, np.zeros(2), zero)}
    sim = simulator.SimConfig(strategy=catalog["BOOM"], iterations=12, clip_bounds=None)
    # the segment steps ahead with BOOM past its switch at step 1, into the
    # overflow of step 2, which the step-by-step loop never takes
    cfg = ControllerConfig(window=window, fallback_strategy_id=None,
                           phase_schedule=(Phase("BOOM", 1, 1), Phase("CALM", 1, None)))
    result = assert_matches_reference(monkeypatch, sim, cfg, catalog=catalog)
    assert raised(result) is None and '"detail": "BOOM->CALM"' in result[1]
    # with no switch the rules at step 2 run, then step 2 raises
    cfg = ControllerConfig(window=window, fallback_strategy_id=None,
                           phase_schedule=(Phase("BOOM", 1, None),))
    result = assert_matches_reference(monkeypatch, sim, cfg, catalog=catalog)
    assert result == (NonFinite, "step 2 gives a non-finite state", [1, 2])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), iterations=st.integers(8, 120),
       window=st.integers(2, 8), sigma=st.sampled_from([0.3, 1.0, 2.0, 4.0]),
       strategy=st.sampled_from(["AI", "FF", "SF", "EF"]), scheduled=st.booleans(),
       halt=st.booleans())
def test_run_controlled_matches_reference_property(seed, iterations, window, sigma, strategy,
                                                   scheduled, halt):
    sim = simulator.SimConfig(strategy=simulator.preset(strategy, sigma),
                              iterations=max(iterations, window), base_seed=seed)
    cfg = ControllerConfig(window=window,
                           phase_schedule=phased_schedule_default() if scheduled else None)
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
    signals, error = controller._window_signals(None, 5)
    want = [per_matrix_signals(a, 0.01) for a in stack[:5]]
    assert repr(signals) == repr([want[0], None, want[1], want[2], want[3], want[4], None])
    assert isinstance(error, NonFinite) and str(error) == "matrix has non-finite entries"
    # signed zeros alone
    fits = inference.WindowFits(np.ones(4, dtype=bool), np.array(stack[:4]), None)
    signals, error = controller._window_signals(None, 5)
    assert error is None and repr(signals) == repr(want[:4])
    # without the bad matrix the stacked path serves every window
    fits = inference.WindowFits(full[:6], np.array(stack[4:5] * 5), None)
    signals, error = controller._window_signals(None, 5)
    assert error is None and signals[1] is None
    assert repr([s for s in signals if s]) == repr([per_matrix_signals(stack[4], 0.01)] * 5)
