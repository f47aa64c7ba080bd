import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from driftlab import controller, core, simulator
from driftlab.core import DimensionMismatch, StrategySpec
from driftlab.simulator import SimConfig, drift, em_step, preset, simulate_session, simulate_set
from oracles import fresh_generator, sequential_sessions, session_seed


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
    out = em_step(np.full(3, 5.0), s, 0.25, np.ones(3), clip=False)
    assert np.allclose(out, 5.0 + 0.5, atol=1e-15)


def test_em_step_clips_to_the_score_box_unless_told_not_to():
    s = StrategySpec("N", np.zeros((3, 3)), np.zeros(3), np.eye(3))
    x, noise = [9.5, 5.0, 0.5], [1.0, 0.0, -1.0]
    assert em_step(x, s, 1.0, noise).tolist() == [10.0, 5.0, 0.0]
    assert em_step(x, s, 1.0, noise, clip=False).tolist() == [10.5, 5.0, -0.5]


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
        em_step(x, ai, 1.0, eps[i], clip=False) - x for i in range(n_draws)
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
                                 (float("-inf"), 7.0), (-1e308, 1e308)])
def test_config_rejects_bad_init_box(box):
    for clip in (True, False):
        with pytest.raises(ValueError, match="init_box must be finite"):
            SimConfig(strategy=preset("AI"), init_box=box, clip=clip)


@pytest.mark.parametrize("box", [(-5.0, 20.0), (-0.5, 7.0), (3.0, 10.5)])
def test_config_rejects_init_box_outside_clip_box(box):
    with pytest.raises(ValueError, match="outside clip bounds"):
        SimConfig(strategy=preset("AI"), init_box=box)
    # without clipping any finite box is a valid start region
    SimConfig(strategy=preset("AI"), init_box=box, clip=False)


def test_config_accepts_start_states_on_the_clip_box():
    SimConfig(strategy=preset("AI"), init_box=(3.0, 7.0))
    SimConfig(strategy=preset("AI"), init_box=(0.0, 10.0))
    SimConfig(strategy=preset("AI"), init_box=(4.0, 4.0))


def test_fixed_center_sentinel_and_explicit_start():
    ef = preset("EF", sigma=0.0)
    named = SimConfig(strategy=ef, iterations=1)
    assert np.array_equal(simulate_session(named, 0).points[0], [5, 5, 5])


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
    # NaN noise gives a NaN noise term, and infinite noise turns 0 * inf
    # invalid in it: either way the step's noise term is not finite
    for clip in (True, False):
        for odd in (float("nan"), float("inf")):
            with pytest.raises(core.NonFinite, match="^step 0 gives a non-finite state$"):
                em_step([5, 5, 5], preset("AI"), 1.0, [odd, 0.0, 0.0], clip=clip)


def test_em_step_raises_on_an_overflow_before_the_clip():
    # the overflowing state must not be clipped into the box and returned
    for clip in (True, False):
        with pytest.raises(core.NonFinite, match="^step 0 gives a non-finite state$"):
            em_step(np.array([1e300, 5, 5]), preset("AI"), 1e10, np.ones(3), clip=clip)


@pytest.mark.parametrize("dt", [float("inf"), float("nan"), 0.0, -1.0])
def test_em_step_rejects_a_step_that_is_not_finite_and_positive(dt):
    # an infinite dt would clip an infinite state into the box
    with pytest.raises(ValueError, match="dt must be finite and > 0"):
        em_step([5, 5, 5], preset("AI"), dt, np.ones(3))


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8192])
def test_an_overflow_names_its_step_wherever_the_noise_chunks_fall(monkeypatch, chunk):
    # from 5 the steps reach 5e150, then 5e300, then overflow at step 2,
    # whether step 2 starts a walk or sits inside one
    zero = np.zeros((2, 2))
    boom = StrategySpec("BOOM", 1e150 * np.eye(2), np.zeros(2), zero)
    monkeypatch.setattr(simulator, "_CHUNK_ROWS", chunk)
    cfg = SimConfig(strategy=boom, sessions=1, iterations=6, clip=False)
    with pytest.raises(core.NonFinite, match="^step 2 gives a non-finite state$"):
        simulate_set(cfg)


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8192])
def test_a_noise_overflow_names_its_step_wherever_the_noise_chunks_fall(monkeypatch, chunk):
    # with zero drift, a step's noise term 1e308 * eps overflows where a draw
    # exceeds 1.8 in size, and a later step's sum where two terms add up
    noisy = StrategySpec("NOISY", np.zeros((3, 3)), np.zeros(3), 1e308 * np.eye(3))
    monkeypatch.setattr(simulator, "_CHUNK_ROWS", chunk)
    for seed, step in enumerate([2, 1, 0, 1, 1, 1]):
        cfg = SimConfig(strategy=noisy, sessions=2, iterations=50, base_seed=seed, clip=False)
        with pytest.raises(core.NonFinite, match=f"^step {step} gives a non-finite state$"):
            simulate_set(cfg)


def test_the_step_clip_is_np_clip_bit_for_bit():
    # np.maximum then np.minimum would return a bound's zero sign where
    # np.clip keeps the state's
    values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5.0, -5.0, 10.0, -10.0, 20.0, -20.0])
    for low, high in ((-0.0, 10.0), (0.0, 10.0), (-10.0, -0.0), (-10.0, 0.0), (-0.0, 0.0),
                      (0.0, 5.0), (-np.inf, np.inf)):
        out = np.empty_like(values)
        simulator._clip(values, low, high, out=out)
        assert out.tobytes() == np.clip(values, low, high).tobytes()
    zero = StrategySpec("Z", np.zeros((3, 3)), np.zeros(3), np.zeros((3, 3)))
    out = em_step([-0.0, 5, 5], zero, 1.0, np.zeros(3))
    assert out[0] == 0.0 and not np.signbit(out[0])


# ---------------------------------------------------------------------------
# one session is walked on Python floats, a set as stacked rows
# ---------------------------------------------------------------------------

COUPLED = StrategySpec("C", [[-0.3, 0.2, 0.1], [0.15, -0.2, -0.25], [0.05, 0.3, -0.1]],
                       [0.5, -0.4, 0.3], [[1.5, 0.2, 0.0], [0.3, 1.0, -0.4], [0.0, 0.5, 2.0]])


def test_a_lone_drift_product_rounds_like_the_stacked_one():
    # the one-session walk takes A.dot(x), a set's walk the stacked _matvec;
    # a numpy or BLAS that rounds them apart must fail here, not move digests
    rng = np.random.default_rng(3201)

    def draw(shape):
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300, 150, shape)

    draws = 0
    for n in range(2, 7):
        for k in range(40):
            A = draw((n, n))
            if k % 2:
                A = np.asfortranarray(A)  # a StrategySpec keeps a Fortran matrix's order
            X = draw((256, n))
            lone = np.array([A.dot(x) for x in X])
            assert lone.tobytes() == simulator._matvec(A, X).tobytes(), (n, k)
            draws += len(X)
    assert draws >= 50_000


@pytest.mark.parametrize("clip", [True, False])
@pytest.mark.parametrize("dt", [0.37, 0.5, 1.0])
def test_one_session_runs_equal_the_session_in_a_stacked_set(dt, clip):
    cfg = SimConfig(strategy=COUPLED, sessions=5, iterations=400, dt=dt, base_seed=3202,
                    clip=clip, init_box=(1.0, 9.0))
    stacked = simulate_set(cfg)
    for i in range(cfg.sessions):
        alone = simulate_session(cfg, i).values_matrix
        assert alone.tobytes() == stacked.trajectories[i].values_matrix.tobytes(), i
    rows = stacked.values_matrix
    hits = np.count_nonzero((rows == core.SCORE_LOW) | (rows == core.SCORE_HIGH))
    assert hits > 100 if clip else (rows.min() < core.SCORE_LOW and rows.max() > core.SCORE_HIGH)


def test_a_finite_one_session_run_takes_no_numpy_step(monkeypatch):
    # a one-session run never takes the set walk, even at an overflow
    walked = []
    rows = simulator._row_steps
    monkeypatch.setattr(simulator, "_row_steps",
                        lambda X, t, *rest: walked.append(t) or rows(X, t, *rest))
    cfg = SimConfig(strategy=COUPLED, sessions=3, iterations=200, dt=0.5, base_seed=3203)
    simulate_session(cfg, 1)
    controller.run_controlled(cfg, controller.ControllerConfig())
    boom = StrategySpec("BOOM", 1e150 * np.eye(3), np.zeros(3), np.eye(3))
    for strategy in (boom, StrategySpec("N", np.zeros((3, 3)), np.zeros(3), 1e308 * np.eye(3))):
        with pytest.raises(core.NonFinite):
            simulate_session(SimConfig(strategy=strategy, iterations=50, clip=False), 0)
    with pytest.raises(core.NonFinite):
        em_step([1e200, 5, 5], boom, 1.0, np.ones(3))
    assert not walked
    simulate_set(cfg)
    assert walked == [0]


def _walked(X, strategy, dt, eps, clip):
    """The step `_advance` returns over all of eps, or its NonFinite
    message, and the states."""
    try:
        got = simulator._advance(X, 0, len(eps), strategy, dt, eps, clip)
    except core.NonFinite as e:
        got = str(e)
    return got, X.tobytes()


WALK_CASES = {
    "coupled": (COUPLED, [4.0, 5.0, 6.0], 1.0, 1.0),
    "drift overflow": (StrategySpec("B", [[1e150, 1.0], [2.0, 1e150]], [1.0, -1.0],
                                    np.eye(2)), [5.0, 5.0], 0.5, 1.0),
    "sum overflow": (StrategySpec("M", [[0.5, 0.2, 0], [0, 0.5, 0.1], [0.3, 0, 0.5]],
                                  [1e306, 0, 0], 1e307 * np.eye(3)), [5.0, 5.0, 5.0], 1.0, 1.0),
    "noise overflow": (StrategySpec("N", np.zeros((3, 3)), np.zeros(3), 7e307 * np.eye(3)),
                       [5.0, 5.0, 5.0], 1.0, 1.0),
    "nan noise": (COUPLED, [4.0, 5.0, 6.0], 0.37, np.nan),
    "infinite noise": (COUPLED, [4.0, 5.0, 6.0], 0.37, np.inf),
}


@pytest.mark.parametrize("clip", [True, False])
@pytest.mark.parametrize("case", list(WALK_CASES))
def test_the_float_walk_decides_every_step_as_the_stacked_walk(case, clip):
    # one session's (T+1, n) states against the same session as a
    # one-session set's (T+1, 1, n): the same states, and the same
    # overflow, invalid or non-finite step, wherever it falls
    strategy, x0, dt, odd = WALK_CASES[case]
    n = len(x0)
    eps = np.random.default_rng(3204).standard_normal((60, n))
    eps[[9, 31], 1] = odd
    outcomes = []
    for shape in ((61, n), (61, 1, n)):
        X = np.zeros(shape)
        X[0] = np.reshape(x0, shape[1:])
        outcomes.append(_walked(X, strategy, dt, eps.reshape((60,) + shape[1:]), clip))
    assert outcomes[0] == outcomes[1]


@st.composite
def _walk_inputs(draw):
    """A strategy and a finite start, each of their parts tame (magnitudes
    1e-3 to 1) or near overflow (1e100 to 1e308); a start may also sit at
    the edge of the float range, where a sum of finite values overflows.
    Then dt, clip, and noise with NaN or an infinity at random places."""
    n, steps = draw(st.integers(2, 4)), draw(st.integers(1, 40))

    def entries(k, ranges=((-3, 0), (100, 308))):
        low, high = draw(st.sampled_from(ranges))
        return np.array(draw(st.lists(st.builds(lambda sign, e: sign * 10.0 ** e,
                                                st.sampled_from([-1.0, 0.0, 1.0]),
                                                st.floats(low, high)),
                                      min_size=k, max_size=k)))

    strategy = StrategySpec("H", entries(n * n).reshape(n, n), entries(n),
                            entries(n * n).reshape(n, n))
    eps = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((steps, n))
    for s, i, odd in draw(st.lists(st.tuples(st.integers(0, steps - 1), st.integers(0, n - 1),
                                             st.sampled_from([np.nan, np.inf, -np.inf])),
                                   max_size=3)):
        eps[s, i] = odd
    dt = draw(st.floats(1e-3, 1e3) | st.sampled_from([1e-300, 1e300]))
    x0 = entries(n, ((-3, 0), (100, 308), (307.9, 308.2)))
    return strategy, x0, dt, eps, draw(st.booleans())


# a failure reports the example as drawn: shrinking these draws would run
# into Hypothesis's five-minute shrink limit
@settings(max_examples=200, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(_walk_inputs())
def test_both_walks_end_before_the_first_step_that_is_not_finite(inputs):
    # the float walk and the set walk write the same rows, all finite, and
    # stop at the same step, one whose noise term or new values are not
    strategy, x0, dt, eps, clip = inputs
    steps, n = eps.shape
    walks = []
    for shape in ((steps + 1, n), (steps + 1, 1, n)):
        X = np.full(shape, np.nan)
        X[0] = x0.reshape(shape[1:])
        try:
            stop = simulator._advance(X, 0, steps, strategy, dt, eps.reshape((steps,) + shape[1:]),
                                      clip)
        except core.NonFinite as e:
            assert str(e) == "step 0 gives a non-finite state"
            stop = 0
        X = X.reshape(steps + 1, n)
        assert np.isfinite(X[:stop + 1]).all() and np.isnan(X[stop + 1:]).all()
        walks.append((stop, X.tobytes()))
    assert walks[0] == walks[1]
    stop = walks[0][0]
    if stop < steps:
        x = X[stop]
        with np.errstate(all="ignore"):
            shock = strategy.diffusion @ eps[stop] * np.sqrt(dt)
            nxt = x + (strategy.drift_matrix @ x + strategy.drift_intercept) * dt + shock
        assert not (np.isfinite(shock).all() and np.isfinite(nxt).all())


def test_em_step_from_an_infinite_state_component():
    # a state with an infinite or NaN component is rejected before the
    # step, clipped or not: the clip would otherwise put an inf on the box
    inf, nan = float("inf"), float("nan")
    full = StrategySpec("F", [[0.5, 0, 0], [0.25, -0.5, 0], [1.0, 0.1, 0.2]], [0.1, 0, 0],
                        np.eye(3))
    noise = [0.1, 0.2, 0.3]
    for clip in (True, False):
        for strategy in (preset("AI"), full):
            for x in ([inf, 5, 5], [5, inf, 5], [-inf, 5, 5], [inf, -inf, 5], [5, 5, nan]):
                message = re.escape(f"state {[float(v) for v in x]} has non-finite entries")
                with pytest.raises(core.NonFinite, match=f"^{message}$"):
                    em_step(x, strategy, 1.0, noise, clip=clip)


def test_a_step_that_underflows_to_minus_zero_keeps_its_sign_through_the_clip():
    # the drift and noise terms underflow to -0.0, and -0.0 + -0.0 is -0.0:
    # np.clip keeps the state's zero sign, and so must the float walk's clip
    tiny = StrategySpec("T", np.zeros((3, 3)), [-1e-300, 0.0, 0.0], 1e-310 * np.eye(3))
    for clip in (True, False):
        out = em_step([-0.0, 5, 5], tiny, 1e-30, [-1.0, 0.0, 0.0], clip=clip)
        assert out.tolist() == [0.0, 5.0, 5.0] and np.signbit(out).tolist() == [True, False, False]


def test_run_too_large_for_memory_fails_before_building_streams(monkeypatch):
    calls = []
    draw = simulator._normals

    def counting(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(simulator, "_normals", counting)
    with pytest.raises(MemoryError):
        simulate_set(SimConfig(strategy=preset("SF"), sessions=10**17, iterations=1))
    assert not calls, "noise drawn before the state allocation"
    simulate_set(SimConfig(strategy=preset("SF"), sessions=3, iterations=2))
    assert len(calls) == 1


def test_simulate_session_rejects_negative_index():
    cfg = SimConfig(strategy=preset("SF"), sessions=2, iterations=3)
    for index in (-1, -3, 2):
        with pytest.raises(ValueError, match="session index"):
            simulate_session(cfg, index)


@pytest.mark.parametrize("field, value", [("base_seed", 1.9), ("base_seed", 1.0),
                                          ("sessions", 2.5), ("sessions", np.float64(2)),
                                          ("iterations", 3.0), ("iterations", True),
                                          ("base_seed", False)])
def test_config_rejects_a_count_or_seed_that_is_not_an_integer(field, value):
    kwargs = {"sessions": 2, "iterations": 3, "base_seed": 1, field: value}
    with pytest.raises(TypeError, match=f"^{field} must be an integer, got "
                                        f"{re.escape(repr(value))}$"):
        SimConfig(strategy=preset("SF"), **kwargs)


def test_numpy_counts_too_large_for_one_array_raise_value_error():
    with pytest.raises(ValueError, match="more than one array can hold"):
        SimConfig(strategy=preset("SF"), sessions=np.int64(2**40), iterations=np.int64(2**40))


@pytest.mark.parametrize("args, what", [((1.0, 0, 0, 3), "base_seed"),
                                        ((0, 0.0, 0, 3), "session index"),
                                        ((0, 0, 2.5, 3), "iteration"),
                                        ((0, True, 0, 3), "session index")])
def test_step_noise_rejects_an_argument_that_is_not_an_integer(args, what):
    with pytest.raises(TypeError, match=f"^{what} must be an integer"):
        simulator.step_noise(*args)


@pytest.mark.parametrize("index", [1.0, True, np.float32(1)])
def test_simulate_session_rejects_an_index_that_is_not_an_integer(index):
    cfg = SimConfig(strategy=preset("SF"), sessions=2, iterations=3)
    with pytest.raises(TypeError, match="^session index must be an integer"):
        simulate_session(cfg, index)


@pytest.mark.parametrize("kind", [np.int64, np.uint64])
def test_numpy_integer_counts_and_seeds_give_the_bytes_of_python_ints(kind):
    plain = SimConfig(strategy=preset("SF"), sessions=3, iterations=4, base_seed=2**40 + 7)
    numpy = SimConfig(strategy=preset("SF"), sessions=kind(3), iterations=kind(4),
                      base_seed=kind(2**40 + 7))
    assert (core.dumps_trajectories(simulate_set(numpy))
            == core.dumps_trajectories(simulate_set(plain)))
    assert (core.dumps_trajectories([simulate_session(numpy, kind(2))])
            == core.dumps_trajectories([simulate_session(plain, 2)]))
    assert np.array_equal(simulator.step_noise(kind(2**40 + 7), kind(2), kind(3), 3),
                          simulator.step_noise(2**40 + 7, 2, 3, 3))


# ---------------------------------------------------------------------------
# the noise kernel against numpy's own generators, and the batched
# simulator against the sequential oracle
# ---------------------------------------------------------------------------

# Session seeds on both sides of 2**53 and 2**63, where numpy's conversion
# of the key list changes.
EDGE_SEEDS = (0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1)


def _keys_of(pairs):
    """The Philox keys of the (base_seed, session_index) pairs, one row each."""
    keys = [simulator._session_keys(seed, range(i, i + 1)) for seed, i in pairs]
    return tuple(np.concatenate(words) for words in zip(*keys))


def test_session_keys_are_the_keys_numpy_derives():
    rng = np.random.default_rng(8)
    seeds = [*EDGE_SEEDS, *rng.integers(0, 2**53, 20).tolist(),
             *rng.integers(2**53, 2**63, 20).tolist(),
             *rng.integers(0, 2**64 - 1, 40, dtype=np.uint64, endpoint=True).tolist()]
    k0, k1 = simulator._philox_key(np.array(seeds, dtype=np.uint64))
    for seed, got in zip(seeds, zip(k0.tolist(), k1.tolist())):
        want = np.random.Philox(key=[seed, simulator._GOLDEN]).state["state"]["key"]
        assert list(got) == want.tolist(), f"session seed {seed:#x}"


def test_kernel_rows_are_numpys_draws_in_every_layer(monkeypatch):
    # 50k rows, each against a generator built afresh for it: every
    # ziggurat layer and both signs occur, and some rows take the fallback
    redrawn = []
    redraw = simulator._redraw

    def counting(k0, k1, tags, rows, out):
        redrawn.extend(rows)
        return redraw(k0, k1, tags, rows, out)

    monkeypatch.setattr(simulator, "_redraw", counting)
    rng = np.random.default_rng(21)
    seeds = [*EDGE_SEEDS, *rng.integers(0, 2**53, 3).tolist(),
             *rng.integers(2**53, 2**63, 4).tolist(),
             *rng.integers(2**63, 2**64 - 1, 4, dtype=np.uint64, endpoint=True).tolist()]
    # base seeds that give session i the session seed seeds[i]
    pairs = [(seed ^ session_seed(0, i), i) for i, seed in enumerate(seeds)]
    keys = _keys_of(pairs)
    rows = 0
    for n in (2, 3, 4, 5, 9):
        tags = range(1000 * n, 1000 * n + 500)
        got = simulator._normals(keys, tags, n)
        want = np.array([[fresh_generator(base, i, tag).standard_normal(n) for base, i in pairs]
                         for tag in tags])
        bad = np.argwhere((got != want).any(axis=2))
        assert not len(bad), (
            f"n={n}: {len(bad)} kernel rows differ from numpy {np.__version__}'s own draws, "
            f"first at session seed {seeds[bad[0][1]]:#x}, tag {tags[bad[0][0]]}; "
            f"check the ziggurat tables in driftlab/_ziggurat.py against this numpy"
        )
        words = simulator._philox_words(np.tile(keys[0], len(tags)), np.tile(keys[1], len(tags)),
                                        np.repeat(np.arange(tags.start, tags.stop,
                                                            dtype=np.uint64), len(seeds)), n)
        assert len(np.unique(words & np.uint64(0xFF))) == 256
        assert np.unique((words >> np.uint64(8)) & np.uint64(1)).tolist() == [0, 1]
        rows += got.shape[0] * got.shape[1]
    assert rows == 50_000
    assert redrawn


def test_kernel_rows_match_fresh_generators_in_any_order():
    draws = [(seed, i, t) for seed in (0, 13, 2**40 + 7, 2**64 - 1)
             for i in (0, 1, 5, 1000) for t in range(50)]
    k0, k1 = _keys_of([(seed, i) for seed, i, _ in draws])
    tags = np.array([t + 1 for *_, t in draws], dtype=np.uint64)
    order = np.random.default_rng(3).permutation(len(draws))
    for n in (3, 2, 4):
        want = np.array([fresh_generator(seed, i, t + 1).standard_normal(n)
                         for seed, i, t in draws])
        assert np.array_equal(simulator._normal_rows(k0, k1, tags, n), want)
        assert np.array_equal(simulator._normal_rows(k0[order], k1[order], tags[order], n),
                              want[order])
        for k in order:
            assert np.array_equal(simulator.step_noise(*draws[k], n), want[k])


def test_kernel_start_draw_is_tag_zero():
    for seed, i in ((0, 0), (7, 3), (2**33, 11), (2**64 - 1, 2)):
        keys = simulator._session_keys(seed, range(i, i + 3))
        for box in ((3.0, 7.0), (-3.0, 12.0), (0.1, 0.7), (2.5, 2.5), (-1e300, 1e300)):
            got = simulator._uniform_starts(keys, *box, 3)
            for j in range(3):
                assert np.array_equal(got[j], fresh_generator(seed, i + j, 0).uniform(*box, size=3))
        noise = simulator._normals(keys, range(5, 6), 3)[0]
        for j in range(3):
            assert np.array_equal(noise[j], fresh_generator(seed, i + j, 5).standard_normal(3))


@pytest.mark.parametrize("args, what", [((0, 0, -1, 3), "iteration"),
                                        ((0, -1, 0, 3), "session index"),
                                        ((2**64, 0, 0, 3), "base_seed"),
                                        ((0, 0, 10**60, 3), "iteration"),
                                        ((0, -10**60, 0, 3), "session index"),
                                        ((10**60, 0, 0, 3), "base_seed")])
def test_step_noise_rejects_out_of_range_arguments(args, what):
    with pytest.raises(ValueError, match=what) as info:
        simulator.step_noise(*args)
    assert len(str(info.value)) <= 100  # a long number is cut by `_shown`


@pytest.mark.parametrize("sessions, iterations", [(10, 30), (100, 3), (3, 100)])
def test_noise_is_drawn_in_chunks_of_bounded_rows(monkeypatch, sessions, iterations):
    # with 64-row chunks: several steps per chunk, several chunks per step,
    # and the same bytes as the sequential oracle across every chunk edge
    sizes = []
    words = simulator._philox_words

    def counting(k0, k1, tags, n):
        sizes.append(len(tags))
        return words(k0, k1, tags, n)

    monkeypatch.setattr(simulator, "_CHUNK_ROWS", 64)
    monkeypatch.setattr(simulator, "_philox_words", counting)
    cfg = SimConfig(strategy=_dense(3, 7), sessions=sessions, iterations=iterations,
                    base_seed=2**63 - 5, clip=False)
    got = [t.values_matrix for t in simulate_set(cfg)]
    assert max(sizes) <= 64
    assert sum(sizes) == sessions * iterations
    assert all(np.array_equal(a, b) for a, b in zip(got, sequential_sessions(cfg)))


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
                                  base_seed=5, clip=False),
    "dense2-dt0.3-big-seed": SimConfig(strategy=_dense(2, 3), sessions=20, iterations=30,
                                       dt=0.3, base_seed=2**40 + 123),
    "dense2-unclipped-init-box": SimConfig(strategy=_dense(2, 4), sessions=15, iterations=25,
                                           dt=1.7, base_seed=2**64 - 2, clip=False,
                                           init_box=(-3.0, 12.0)),
    "dense4-dt2.5-init-box": SimConfig(strategy=_dense(4, 5, intercept=False), sessions=15,
                                       iterations=25, dt=2.5, base_seed=99,
                                       init_box=(1.0, 9.0)),
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
