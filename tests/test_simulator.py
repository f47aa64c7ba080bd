import numpy as np
import pytest

from driftlab import core, simulator
from driftlab.core import DimensionMismatch, StrategySpec
from driftlab.simulator import SimConfig, drift, em_step, preset, simulate_session, simulate_set
from oracles import fresh_generator, sequential_sessions


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_preset_coefficients():
    assert np.array_equal(preset("EF").drift_matrix, np.diag([0.0, 0.16, 0.0]))
    assert np.array_equal(preset("SF").drift_matrix, np.diag([0.08, -0.75, 0.0]))
    assert np.array_equal(preset("FF").drift_matrix, np.diag([-0.82, -0.88, 0.9]))
    assert np.array_equal(preset("AI").drift_matrix, np.diag([0.08, 0.08, 0.08]))
    for sid in ("EF", "SF", "FF", "AI"):
        s = preset(sid)
        assert np.array_equal(s.drift_intercept, np.zeros(3))
        assert np.array_equal(s.diffusion, 0.5 * np.eye(3))


def test_unknown_preset():
    with pytest.raises(KeyError):
        preset("XX")


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------

def test_drift_ef_at_center():
    assert np.allclose(drift(preset("EF"), [5, 5, 5]), [0, 0.8, 0], atol=1e-12)


def test_drift_ff_at_ones():
    assert np.allclose(drift(preset("FF"), np.ones(3)), [-0.82, -0.88, 0.9], atol=1e-15)


def test_drift_zero_intercept_at_origin():
    for sid in ("EF", "SF", "FF", "AI"):
        assert np.array_equal(drift(preset(sid), np.zeros(3)), np.zeros(3))


def test_drift_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        drift(preset("AI"), np.zeros(4))


# ---------------------------------------------------------------------------
# em_step
# ---------------------------------------------------------------------------

def test_em_step_identity_case():
    still = StrategySpec("Z", np.zeros((3, 3)), np.zeros(3), np.zeros((3, 3)))
    out = em_step([5, 5, 5], still, 1.0, np.zeros(3))
    assert np.array_equal(out, [5, 5, 5])


def test_em_step_clips_at_boundary():
    push = StrategySpec("P", np.zeros((3, 3)), [1.0, 0.0, 0.0], np.zeros((3, 3)))
    out = em_step([9.5, 5, 5], push, 1.0, np.zeros(3))
    assert np.array_equal(out, [10.0, 5.0, 5.0])


def test_em_step_ai_hand_value():
    ai = preset("AI", sigma=0.0)
    out = em_step([5, 5, 5], ai, 1.0, np.zeros(3))
    assert np.allclose(out, [5.4, 5.4, 5.4], atol=1e-12)


def test_em_step_noise_shape_checked():
    with pytest.raises(DimensionMismatch):
        em_step([5, 5, 5], preset("AI"), 1.0, np.zeros(2))


def test_em_step_scales_noise_by_sqrt_dt():
    s = StrategySpec("N", np.zeros((3, 3)), np.zeros(3), np.eye(3))
    out = em_step(np.full(3, 5.0), s, 0.25, np.ones(3), bounds=None)
    assert np.allclose(out, 5.0 + 0.5, atol=1e-15)


# ---------------------------------------------------------------------------
# simulate_session / simulate_set
# ---------------------------------------------------------------------------

def test_simulate_session_deterministic_ef_growth():
    cfg = SimConfig(strategy=preset("EF", sigma=0.0), iterations=2)
    t = simulate_session(cfg, 0)
    assert np.allclose(
        t.values_matrix,
        [[5, 5, 5], [5, 5.8, 5], [5, 6.728, 5]],
        atol=1e-12,
    )


def test_simulate_session_length_contract():
    cfg = SimConfig(strategy=preset("AI"), iterations=1)
    assert len(simulate_session(cfg, 0).points) == 2


def test_simulate_session_repeatable():
    cfg = SimConfig(strategy=preset("AI"), sessions=3, iterations=6, base_seed=99)
    assert simulate_session(cfg, 2) == simulate_session(cfg, 2)


def test_simulate_set_cardinality():
    cfg = SimConfig(strategy=preset("AI"), sessions=12, iterations=10, base_seed=1)
    data = simulate_set(cfg)
    assert len(data) == 12
    assert all(len(t.points) == 11 for t in data)


def test_simulate_set_singleton_matches_session():
    cfg = SimConfig(strategy=preset("SF"), sessions=1, iterations=5, base_seed=4)
    assert simulate_set(cfg).trajectories[0] == simulate_session(cfg, 0)


def test_simulate_set_order_independent_assembly():
    cfg = SimConfig(strategy=preset("AI"), sessions=6, iterations=5, base_seed=21)
    whole = core.dumps_trajectories(simulate_set(cfg))
    # generating sessions out of order cannot change the assembled output
    reversed_runs = [simulate_session(cfg, i) for i in reversed(range(6))]
    assert core.dumps_trajectories(list(reversed(reversed_runs))) == whole


def test_session_streams_differ():
    cfg = SimConfig(strategy=preset("AI"), sessions=2, iterations=5, base_seed=0)
    a, b = simulate_set(cfg)
    assert a != b


# ---------------------------------------------------------------------------
# scheme properties
# ---------------------------------------------------------------------------

def test_moment_matching_small_n():
    # clipping disabled, fixed state: mean of one-step changes tends to
    # drift(x) * dt within 4 * |sigma| * sqrt(dt / N)
    ai = preset("AI", sigma=0.5)
    x = np.array([5.0, 5.0, 5.0])
    n_draws = 10_000
    rng = np.random.default_rng(17)
    eps = rng.standard_normal((n_draws, 3))
    deltas = np.stack([
        em_step(x, ai, 1.0, eps[i], bounds=None) - x for i in range(n_draws)
    ])
    bound = 4.0 * 0.5 * np.sqrt(1.0 / n_draws)
    assert np.all(np.abs(deltas.mean(axis=0) - drift(ai, x)) <= bound)
    sample_cov = np.cov(deltas.T, bias=True)
    assert np.max(np.abs(sample_cov - 0.25 * np.eye(3))) <= 0.05


def test_every_emitted_point_is_clipped():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rng.normal(0, 1, (3, 3))
        s = StrategySpec("R", A, rng.normal(0, 1, 3), rng.uniform(0, 2) * np.eye(3))
        cfg = SimConfig(strategy=s, sessions=3, iterations=15,
                        base_seed=int(rng.integers(0, 2**32)))
        for traj in simulate_set(cfg):
            m = traj.values_matrix
            assert np.all(m >= 0.0) and np.all(m <= 10.0)


def test_zero_diffusion_equals_affine_iteration():
    rng = np.random.default_rng(23)
    A = rng.normal(0, 0.3, (3, 3))
    b = rng.normal(0, 0.2, 3)
    s = StrategySpec("D", A, b, np.zeros((3, 3)))
    cfg = SimConfig(strategy=s, iterations=8, base_seed=5)
    got = simulate_session(cfg, 0).values_matrix
    x = np.full(3, 5.0)
    expect = [x.copy()]
    for _ in range(8):
        x = np.clip(x + (A @ x + b) * 1.0, 0.0, 10.0)
        expect.append(x.copy())
    assert np.array_equal(got, np.stack(expect))


def test_init_box_draws_are_seeded_and_in_box():
    cfg = SimConfig(strategy=preset("AI"), sessions=8, iterations=1,
                    base_seed=3, init_box=(3.0, 7.0))
    firsts = np.stack([t.values_matrix[0] for t in simulate_set(cfg)])
    assert np.all(firsts >= 3.0) and np.all(firsts <= 7.0)
    again = np.stack([t.values_matrix[0] for t in simulate_set(cfg)])
    assert np.array_equal(firsts, again)
    assert len(np.unique(firsts.round(6), axis=0)) == 8


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(strategy=preset("AI"), sessions=0)
    with pytest.raises(ValueError):
        SimConfig(strategy=preset("AI"), iterations=0)
    with pytest.raises(ValueError):
        SimConfig(strategy=preset("AI"), dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(strategy=preset("AI"), initial_state="somewhere")


@pytest.mark.parametrize("dt", [float("inf"), float("nan"), -1.0])
def test_config_rejects_non_finite_or_negative_dt(dt):
    with pytest.raises(ValueError, match="dt must be finite"):
        SimConfig(strategy=preset("AI"), dt=dt)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_config_rejects_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="base_seed"):
        SimConfig(strategy=preset("AI"), base_seed=seed)


def test_config_accepts_the_full_64_bit_seed_range():
    for seed in (0, 2**32, 2**64 - 1):
        SimConfig(strategy=preset("AI"), base_seed=seed)


@pytest.mark.parametrize("box", [(7.0, 3.0), (float("nan"), 7.0), (3.0, float("inf")),
                                 (float("-inf"), 7.0)])
def test_config_rejects_bad_init_box(box):
    for clip in ((0.0, 10.0), None):
        with pytest.raises(ValueError, match="init_box must be finite"):
            SimConfig(strategy=preset("AI"), init_box=box, clip_bounds=clip)


@pytest.mark.parametrize("box", [(-5.0, 20.0), (-0.5, 7.0), (3.0, 10.5)])
def test_config_rejects_init_box_outside_clip_box(box):
    with pytest.raises(ValueError, match="outside clip bounds"):
        SimConfig(strategy=preset("AI"), init_box=box)
    # without clipping any finite box is a valid start region
    SimConfig(strategy=preset("AI"), init_box=box, clip_bounds=None)


def test_config_rejects_initial_state_outside_clip_box():
    for state in ([12.0, 5.0, 5.0], [5.0, -0.1, 5.0]):
        with pytest.raises(ValueError, match="outside clip bounds"):
            SimConfig(strategy=preset("AI"), initial_state=state)
        SimConfig(strategy=preset("AI"), initial_state=state,
                  clip_bounds=None)


def test_config_accepts_start_states_on_the_clip_box():
    SimConfig(strategy=preset("AI"), init_box=(3.0, 7.0))
    SimConfig(strategy=preset("AI"), init_box=(0.0, 10.0))
    SimConfig(strategy=preset("AI"), init_box=(4.0, 4.0))
    SimConfig(strategy=preset("AI"), initial_state=[0.0, 10.0, 5.0])


def test_fixed_center_sentinel_and_explicit_start():
    ef = preset("EF", sigma=0.0)
    named = SimConfig(strategy=ef, iterations=1, initial_state=None)
    assert np.array_equal(simulate_session(named, 0).points[0], [5, 5, 5])
    explicit = SimConfig(strategy=ef, iterations=1,
                         initial_state=[2, 3, 4])
    assert np.array_equal(simulate_session(explicit, 0).points[0], [2, 3, 4])


def test_session_rows_are_chained_em_steps():
    s = StrategySpec("R", np.diag([0.4, -0.3, 0.2]), [0.5, 0.1, -0.2], 1.5 * np.eye(3))
    cfg = SimConfig(strategy=s, sessions=2, iterations=25, dt=0.5, base_seed=13)
    got = simulate_session(cfg, 1).values_matrix
    x = got[0]
    for t in range(cfg.iterations):
        x = em_step(x, s, cfg.dt, simulator.step_noise(13, 1, t, 3))
        assert np.array_equal(got[t + 1], x)


def test_em_step_checks_state_dimension():
    with pytest.raises(DimensionMismatch):
        em_step(np.zeros(4), preset("AI"), 1.0, np.zeros(4))


def test_em_step_rejects_a_non_finite_result():
    for bounds in ((0.0, 10.0), None):
        with pytest.raises(core.NonFinite):
            em_step([5, 5, 5], preset("AI"), 1.0, [float("nan"), 0.0, 0.0], bounds=bounds)


def test_run_too_large_for_memory_fails_before_building_streams(monkeypatch):
    built = []

    class CountingStream(simulator._SessionStream):
        def __init__(self, *args):
            built.append(args)
            if len(built) > 10:
                raise AssertionError("session streams built before the state allocation")
            super().__init__(*args)

    monkeypatch.setattr(simulator, "_SessionStream", CountingStream)
    with pytest.raises(MemoryError):
        simulate_set(SimConfig(strategy=preset("SF"), sessions=10**17, iterations=1))


# ---------------------------------------------------------------------------
# start state: None (the clip-box centre) or one finite state vector
# ---------------------------------------------------------------------------

def test_array_initial_state_is_the_first_row():
    cfg = SimConfig(strategy=preset("EF", 0.0), iterations=1,
                    initial_state=np.array([2.0, 3.0, 4.0]))
    assert cfg.initial_state == (2.0, 3.0, 4.0)
    assert cfg == SimConfig(strategy=cfg.strategy, iterations=1, initial_state=[2, 3, 4])
    assert simulate_session(cfg, 0).values_matrix[0].tolist() == [2.0, 3.0, 4.0]


@pytest.mark.parametrize("state", [[99.0, 3.0], [1.0, 2.0, 3.0, 4.0], 5.0, [[1.0, 2.0, 3.0]]])
def test_initial_state_of_wrong_length_is_rejected(state):
    with pytest.raises(DimensionMismatch):
        SimConfig(strategy=preset("EF", 0.0), initial_state=state)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_initial_state_is_rejected_without_clipping(bad):
    with pytest.raises(ValueError, match="finite"):
        SimConfig(strategy=preset("AI"), initial_state=[5.0, bad, 5.0], clip_bounds=None)


def test_string_initial_state_is_rejected():
    for state in ("somewhere", "center"):
        with pytest.raises(ValueError):
            SimConfig(strategy=preset("AI"), initial_state=state)


@pytest.mark.parametrize("state", [["1", "2", "3"], [b"1", b"2", b"3"], [5.0, "5", 5.0],
                                   [1.0, True, 5.0], [False, 0.0, 0.0],
                                   np.array([True, False, True])])
def test_initial_state_entries_must_be_real_numbers(state):
    with pytest.raises(ValueError, match="real numbers"):
        SimConfig(strategy=preset("AI"), initial_state=state)


def test_initial_state_takes_numpy_and_integer_entries():
    cfg = SimConfig(strategy=preset("AI"), initial_state=[np.float64(1.5), np.int32(2), 3])
    assert cfg.initial_state == (1.5, 2.0, 3.0)


def test_simulate_session_rejects_negative_index():
    cfg = SimConfig(strategy=preset("SF"), sessions=2, iterations=3)
    for index in (-1, -3, 2):
        with pytest.raises(ValueError, match="session index"):
            simulate_session(cfg, index)


# ---------------------------------------------------------------------------
# rewound streams and the batched kernel against the sequential oracle
# ---------------------------------------------------------------------------

def test_rewound_stream_matches_step_noise_in_order_and_out_of_order():
    seeds = (0, 13, 2**40 + 7, 2**64 - 1)
    draws = [(seed, i, t, n) for seed in seeds for i in (0, 1, 5, 1000)
             for t in range(50) for n in (3, 2, 4)]
    assert len(draws) == 2400
    streams = {}

    def rewound(seed, i, t, n):
        stream = streams.setdefault((seed, i), simulator._SessionStream(seed, i))
        return stream.normal(t, np.empty(n)).copy()

    def fresh(seed, i, t, n):
        return fresh_generator(seed, i, t + 1).standard_normal(n)

    for seed, i, t, n in draws:
        assert np.array_equal(rewound(seed, i, t, n), fresh(seed, i, t, n))
        assert np.array_equal(simulator.step_noise(seed, i, t, n), fresh(seed, i, t, n))
    order = np.random.default_rng(3).permutation(len(draws))
    for k in order:
        seed, i, t, n = draws[k]
        assert np.array_equal(rewound(seed, i, t, n), fresh(seed, i, t, n))


def test_rewound_stream_start_draw_is_tag_zero():
    for seed, i in ((0, 0), (7, 3), (2**33, 11), (2**64 - 1, 2)):
        stream = simulator._SessionStream(seed, i)
        stream.normal(4, np.empty(3))  # a step draw first must not shift the start draw
        got = stream.uniform(3.0, 7.0, 3)
        assert np.array_equal(got, fresh_generator(seed, i, 0).uniform(3.0, 7.0, size=3))
        after = stream.normal(4, np.empty(3))
        assert np.array_equal(after, fresh_generator(seed, i, 5).standard_normal(3))


def _dense(n, seed, intercept=True):
    rng = np.random.default_rng(seed)
    return StrategySpec(f"D{n}", rng.normal(0, 0.5, (n, n)),
                        rng.normal(0, 0.4, n) if intercept else np.zeros(n),
                        rng.normal(0, 0.8, (n, n)))


ORACLE_CONFIGS = {
    **{sid: SimConfig(strategy=preset(sid), sessions=30, iterations=20, base_seed=7)
       for sid in ("EF", "SF", "FF", "AI")},
    "dense3-dt0.7-init-box": SimConfig(strategy=_dense(3, 1), sessions=25, iterations=30,
                                       dt=0.7, base_seed=11, init_box=(3.0, 7.0)),
    "dense4-unclipped": SimConfig(strategy=_dense(4, 2), sessions=20, iterations=30,
                                  base_seed=5, clip_bounds=None),
    "dense2-dt0.3-big-seed": SimConfig(strategy=_dense(2, 3), sessions=20, iterations=30,
                                       dt=0.3, base_seed=2**40 + 123),
    "dense2-unclipped-init-box": SimConfig(strategy=_dense(2, 4), sessions=15, iterations=25,
                                           dt=1.7, base_seed=2**64 - 2, clip_bounds=None,
                                           init_box=(-3.0, 12.0)),
    "dense4-dt2.5-init-box": SimConfig(strategy=_dense(4, 5, intercept=False), sessions=15,
                                       iterations=25, dt=2.5, base_seed=99,
                                       init_box=(1.0, 9.0)),
    "dense3-explicit-start": SimConfig(strategy=_dense(3, 6), sessions=10, iterations=25,
                                       dt=0.45, base_seed=3,
                                       initial_state=[1.0, 9.0, 4.0]),
}


@pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
def test_simulation_matches_sequential_oracle(name):
    cfg = ORACLE_CONFIGS[name]
    want = [core.Trajectory(simulator.session_label(i), cfg.strategy.id, m)
            for i, m in enumerate(sequential_sessions(cfg))]
    assert core.dumps_trajectories(simulate_set(cfg)) == core.dumps_trajectories(want)
    for i in (0, cfg.sessions // 2, cfg.sessions - 1):
        assert core.dumps_trajectories([simulate_session(cfg, i)]) \
            == core.dumps_trajectories([want[i]])
