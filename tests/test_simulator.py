import numpy as np
import pytest

from driftlab import core, simulator
from driftlab.core import DimensionMismatch, ObjectiveVector, StrategySpec
from driftlab.simulator import SimConfig, drift, em_step, preset, simulate_session, simulate_set


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
    assert np.allclose(drift(preset("EF"), ObjectiveVector([5, 5, 5])), [0, 0.8, 0], atol=1e-12)


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
    out = em_step(ObjectiveVector([5, 5, 5]), still, 1.0, np.zeros(3))
    assert out == ObjectiveVector([5, 5, 5])


def test_em_step_clips_at_boundary():
    push = StrategySpec("P", np.zeros((3, 3)), [1.0, 0.0, 0.0], np.zeros((3, 3)))
    out = em_step(ObjectiveVector([9.5, 5, 5]), push, 1.0, np.zeros(3))
    assert out == ObjectiveVector([10.0, 5.0, 5.0])


def test_em_step_ai_hand_value():
    ai = preset("AI", sigma=0.0)
    out = em_step(ObjectiveVector([5, 5, 5]), ai, 1.0, np.zeros(3))
    assert np.allclose(out.values, [5.4, 5.4, 5.4], atol=1e-12)


def test_em_step_noise_shape_checked():
    with pytest.raises(DimensionMismatch):
        em_step(ObjectiveVector([5, 5, 5]), preset("AI"), 1.0, np.zeros(2))


def test_em_step_scales_noise_by_sqrt_dt():
    s = StrategySpec("N", np.zeros((3, 3)), np.zeros(3), np.eye(3))
    out = em_step(np.full(3, 5.0), s, 0.25, np.ones(3), bounds=None)
    assert np.allclose(out.values, 5.0 + 0.5, atol=1e-15)


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
        em_step(x, ai, 1.0, eps[i], bounds=None).values - x for i in range(n_draws)
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


def test_fixed_center_sentinel_and_explicit_start():
    ef = preset("EF", sigma=0.0)
    named = SimConfig(strategy=ef, iterations=1, initial_state="fixed-center")
    assert simulate_session(named, 0).points[0] == ObjectiveVector([5, 5, 5])
    explicit = SimConfig(strategy=ef, iterations=1,
                         initial_state=ObjectiveVector([2, 3, 4]))
    assert simulate_session(explicit, 0).points[0] == ObjectiveVector([2, 3, 4])


def test_session_rows_are_chained_em_steps():
    s = StrategySpec("R", np.diag([0.4, -0.3, 0.2]), [0.5, 0.1, -0.2], 1.5 * np.eye(3))
    cfg = SimConfig(strategy=s, sessions=2, iterations=25, dt=0.5, base_seed=13)
    got = simulate_session(cfg, 1).values_matrix
    x = ObjectiveVector(got[0])
    for t in range(cfg.iterations):
        x = em_step(x, s, cfg.dt, simulator.step_noise(13, 1, t, 3))
        assert np.array_equal(got[t + 1], x.values)


def test_em_step_checks_state_dimension():
    with pytest.raises(DimensionMismatch):
        em_step(np.zeros(4), preset("AI"), 1.0, np.zeros(4))
