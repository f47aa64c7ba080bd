import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from driftlab import controller, inference, simulator
from driftlab.core import (
    DegenerateVariance,
    DomainError,
    DriftModel,
    InsufficientData,
    NonFinite,
    RankDeficientDesign,
    SessionSet,
    Trajectory,
)

from oracles import naive_pearson, reference_fit_affine, reference_fit_windows


def affine_sessions(A, b, starts, steps, strategy_id="X", clip=False):
    """Noiseless sessions following x <- x + A x + b exactly."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    trajs = []
    for k, x0 in enumerate(starts):
        x = np.asarray(x0, dtype=np.float64)
        pts = [x.copy()]
        for _ in range(steps):
            x = x + A @ x + b
            if clip:
                x = np.clip(x, 0, 10)
            pts.append(x.copy())
        trajs.append(Trajectory(f"s{k:03d}", strategy_id, pts))
    return SessionSet(strategy_id, trajs)


def delta_sessions(deltas, start=None, strategy_id="X"):
    """One synthetic session whose step changes equal the given deltas."""
    D = np.asarray(deltas, dtype=np.float64)
    x = np.zeros(D.shape[1]) if start is None else np.asarray(start, dtype=np.float64)
    pts = [x.copy()]
    for d in D:
        x = x + d
        pts.append(x.copy())
    return SessionSet(strategy_id, [Trajectory("s000", strategy_id, pts)])


# ---------------------------------------------------------------------------
# fit_drift
# ---------------------------------------------------------------------------

def test_noiseless_exact_recovery():
    rng = np.random.default_rng(31)
    A = np.diag([-0.3, 0.1, 0.0])
    data = affine_sessions(A, np.zeros(3), rng.uniform(1, 9, size=(6, 3)), steps=4)
    model = inference.fit_drift(data)
    assert np.max(np.abs(model.A_hat - A)) <= 1e-9
    assert np.max(np.abs(model.b_hat)) <= 1e-9


def test_constant_trajectories_give_zero_model():
    rng = np.random.default_rng(32)
    starts = rng.uniform(1, 9, size=(8, 3))
    data = affine_sessions(np.zeros((3, 3)), np.zeros(3), starts, steps=2)
    model = inference.fit_drift(data)
    assert np.max(np.abs(model.A_hat)) <= 1e-12
    assert np.max(np.abs(model.b_hat)) <= 1e-12


def test_simulated_ai_recovery_with_noise():
    cfg = simulator.SimConfig(
        strategy=simulator.preset("AI", sigma=0.5), sessions=400, iterations=10,
        base_seed=12, clip=False, init_box=(3.0, 7.0),
    )
    model = inference.fit_drift(simulator.simulate_set(cfg))
    assert np.max(np.abs(model.A_hat - 0.08 * np.eye(3))) <= 0.05


def test_insufficient_data():
    data = delta_sessions(np.array([[1.0, 0.0, -1.0]]), start=[5, 5, 5])
    with pytest.raises(InsufficientData):
        inference.fit_drift(data)


def test_rank_deficient_design():
    # all states identical: [x | 1] cannot separate A from b
    pts = [[5.0, 5.0, 5.0]] * 6
    data = SessionSet("X", [Trajectory("s000", "X", pts)])
    with pytest.raises(RankDeficientDesign):
        inference.fit_drift(data)


def test_residuals_orthogonal_to_design():
    rng = np.random.default_rng(33)
    X = rng.uniform(0, 10, size=(300, 3))
    D = X @ rng.normal(0, 0.3, (3, 3)).T + rng.normal(0, 0.5, (300, 3))
    A, b, _sigma, _n = inference.fit_affine(X, D)
    Z = np.hstack([X, np.ones((300, 1))])
    resid = D - (X @ A.T + b)
    gram = Z.T @ resid
    scale = np.linalg.norm(Z) * np.linalg.norm(resid) + 1e-30
    assert np.max(np.abs(gram)) / scale <= 1e-9


def test_affine_equivariance_under_state_shift():
    rng = np.random.default_rng(34)
    A = rng.normal(0, 0.4, (3, 3))
    X = rng.uniform(0, 10, size=(40, 3))
    D = X @ A.T
    c = rng.normal(0, 3.0, 3)
    A1, b1, _s1, _n1 = inference.fit_affine(X, D)
    A2, b2, _s2, _n2 = inference.fit_affine(X + c, D)
    assert np.max(np.abs(A2 - A1)) <= 1e-9
    assert np.max(np.abs(b2 - (b1 - A1 @ c))) <= 1e-9


def test_sigma_hat_is_psd_and_symmetric():
    rng = np.random.default_rng(35)
    X = rng.uniform(0, 10, size=(200, 3))
    D = X @ np.diag([-0.2, -0.3, 0.1]) + rng.normal(0, 0.5, (200, 3))
    _A, _b, sigma, _n = inference.fit_affine(X, D)
    assert np.array_equal(sigma, sigma.T)
    assert np.min(np.linalg.eigvalsh(sigma)) >= -1e-12


@pytest.mark.parametrize("states, deltas", [
    (np.ones((8, 3)), np.ones((8, 2))),
    (np.ones((8, 3)), np.ones((7, 3))),
    (np.ones(8), np.ones(8)),
])
def test_fit_affine_rejects_mismatched_shapes(states, deltas):
    message = f"states {states.shape} and deltas {deltas.shape} must match (N, n)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        inference.fit_affine(states, deltas)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("arg", ["states", "deltas"])
def test_fit_affine_rejects_non_finite_input(capfd, arg, bad):
    rng = np.random.default_rng(38)
    X = rng.uniform(0, 10, size=(8, 3))
    D = rng.normal(0, 1, size=(8, 3))
    (X if arg == "states" else D)[3, 1] = bad
    with pytest.raises(NonFinite, match="must be finite"):
        inference.fit_affine(X, D)
    assert issubclass(NonFinite, DomainError)
    # no LAPACK complaint on stderr: nothing was decomposed
    assert capfd.readouterr().err == ""


def test_deltas_that_overflow_raise_non_finite_and_warn_nothing():
    # every row is finite, but two consecutive rows differ by more than the
    # float range: each function rejects the step with one NonFinite line
    # and no numpy RuntimeWarning ahead of it
    rows = np.random.default_rng(39).uniform(0, 10, (10, 3))
    rows[4:6] = [[1e308, -1e308, 5.0], [-1e308, 1e308, 5.0]]
    traj = Trajectory("s000", "X", rows)
    model = DriftModel(np.eye(3), np.zeros(3), np.eye(3), 9)
    fit = "states and deltas must be finite for the fit"
    calls = [  # each call gets a new set, whose pooled steps are not yet built
        (fit, lambda: inference.fit_drift(SessionSet("X", [traj]))),
        ("deltas must be finite for the correlations",
         lambda: inference.interference_matrix(SessionSet("X", [traj]))),
        ("deltas must be finite for R-squared",
         lambda: inference.predictive_r2(SessionSet("X", [traj]), model)),
        (fit, lambda: controller.check_interventions(traj, controller.ControllerConfig(window=4))),
    ]
    for message, call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFinite, match=f"^{message}$"):
                call()
        assert not caught, (message, [str(w.message) for w in caught])


_CORRELATIONS_OVERFLOWED = ("the correlations overflowed: the step-change covariance "
                            "or a product of two variances is not finite")
_R2_OVERFLOWED = "R-squared overflowed: a sum of squares or a ratio of two is not finite"


@pytest.mark.parametrize("scale, r2_overflows", [((1e200, 1.0), True), ((1e100, 1e100), False)],
                         ids=["covariance", "variances"])
def test_finite_deltas_that_overflow_the_statistics_raise_non_finite_and_warn_nothing(
        scale, r2_overflows):
    # every step change is finite, but the covariance and the sums of squares
    # (steps of +-1e200), or only the product of two variances (two axes at
    # 1e100), are not: each call that overflows rejects the set with one
    # NonFinite line and no numpy RuntimeWarning
    rows = np.random.default_rng(40).uniform(0, 10, (12, 3))
    rows[:, 0] *= scale[0] * np.where(np.arange(12) % 2, -1.0, 1.0)
    rows[:, 1] *= scale[1]
    traj = Trajectory("s000", "X", rows)
    model = DriftModel(np.eye(3), np.zeros(3), np.eye(3), 9)
    calls = [(_CORRELATIONS_OVERFLOWED,
              lambda: inference.interference_matrix(SessionSet("X", [traj])))]
    if r2_overflows:
        calls.append((_R2_OVERFLOWED,
                      lambda: inference.predictive_r2(SessionSet("X", [traj]), model)))
    for message, call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFinite, match=f"^{message}$"):
                call()
        assert not caught, (message, [str(w.message) for w in caught])


@pytest.mark.parametrize("overflow", ["A", "b and sigma"])
def test_fit_affine_raises_non_finite_when_the_fit_overflows(capfd, overflow):
    if overflow == "A":
        # deltas near the float range over a tiny spread of states
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1e-5, (6, 2))
        D = rng.uniform(-1e305, 1e305, (6, 2))
    else:
        # one delta near the float range: A stays finite, b and the residuals do not
        m = np.random.default_rng(0).uniform(0.0, 10.0, (12, 3))
        m[10, 0] = -1.5e308
        X, D = m[6:10], np.diff(m[6:11], axis=0)
    with pytest.raises(NonFinite, match="overflowed"):
        inference.fit_affine(X, D)
    assert capfd.readouterr().err == ""  # no RuntimeWarning


# ---------------------------------------------------------------------------
# fit_affine against the two-decomposition oracle
# ---------------------------------------------------------------------------

EPS = np.finfo(np.float64).eps


def fit_outcome(fit, X, D):
    """(A, b, sigma) of a fit, or None when it raises RankDeficientDesign."""
    try:
        A, b, sigma, _count = fit(X, D)
    except RankDeficientDesign:
        return None
    return A, b, sigma


def assert_same_fit(X, D):
    """fit_affine raises exactly where the oracle does, and otherwise
    returns bit-identical A, b and sigma. Returns True when deficient."""
    got = fit_outcome(inference.fit_affine, X, D)
    want = fit_outcome(reference_fit_affine, X, D)
    assert (got is None) == (want is None), (X, D)
    if got is not None:
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (X, D)
    return got is None


def test_fit_affine_matches_rank_oracle_on_simulated_windows():
    # trailing windows of 4 (= n+1), 5 (the controller's) and 8 steps
    # over clipped sessions: axes pinned at the box make constant columns,
    # a few windows are deficient without one, and the rest are full rank
    counts = {"constant": 0, "other deficient": 0, "full": 0}
    for seed in range(4):
        for strategy in ("AI", "FF"):
            for sigma in (0.5, 2.0, 4.0):
                cfg = simulator.SimConfig(
                    strategy=simulator.preset(strategy, sigma=sigma), sessions=3,
                    iterations=50, base_seed=seed,
                )
                for traj in simulator.simulate_set(cfg):
                    m = traj.values_matrix
                    D = np.diff(m, axis=0)
                    for size in (4, 5, 8):
                        for t in range(size, len(m)):
                            X = m[t - size:t]
                            if not assert_same_fit(X, D[t - size:t]):
                                counts["full"] += 1
                            elif (X == X[0]).all(axis=0).any():
                                counts["constant"] += 1
                            else:
                                counts["other deficient"] += 1
    # 6267, 78 and 3447 with this build of numpy
    assert counts["constant"] > 1000 and counts["full"] > 1000
    assert counts["other deficient"] > 10


def crafted_designs():
    """(family, states, deltas) designs at and around the rank cut-off.
    Each family but "constant" falls on both sides of it."""
    rng = np.random.default_rng(2024)
    for count, n in ((4, 3), (5, 3), (8, 3), (3, 2), (6, 4)):
        for k in range(0, 64, 3):
            base = rng.uniform(0.0, 10.0, (count, n))
            D = rng.normal(0.0, 1.0, (count, n))
            j = k % n
            X = base.copy()
            X[:, j] = 1.0 + k * EPS  # the bias column times (1 + k eps)
            yield "constant", X, D
            X = base.copy()
            X[:, j] = 1.0 + k * EPS * rng.integers(-8, 9, count)
            yield "ulp-spread", X, D
            X = base.copy()
            X[:, j] = X[:, j - 1] * (1.0 + k * EPS * rng.standard_normal(count))
            yield "collinear", X, D
            X = 5.0 + 2.0 ** (-52 + k / 3) * rng.standard_normal((count, n))
            yield "tiny-spread", X, D
    for scale in (0.0, 1e-300, 1e-8, 1e8, 1e300, -3.5):
        X = rng.uniform(0.0, 10.0, (6, 3))
        X[:, 1] = scale
        yield "constant", X, rng.normal(0.0, 1.0, (6, 3))


def test_fit_affine_matches_rank_oracle_on_crafted_designs():
    outcomes = set()
    for family, X, D in crafted_designs():
        outcomes.add((family, assert_same_fit(X, D)))
    assert outcomes == {
        ("constant", True),
        ("ulp-spread", True), ("ulp-spread", False),
        ("collinear", True), ("collinear", False),
        ("tiny-spread", True), ("tiny-spread", False),
    }


# Documented examples within rounding of the cut-off. `matrix_rank` takes
# its singular values from one LAPACK routine (xGESDD) and `lstsq` from
# another (xGELSD); both keep those above eps * max(N, n+1) * s_max, but the
# smallest singular value is only accurate to about eps * s_max, so on a
# design within a few percent of the cut-off the two may decide
# differently. A search over designs tuned onto the cut-off found such
# disagreements only within 0.956-1.021 times it; none occurred on any
# simulated window. With this build of numpy both examples below disagree:
# the oracle calls the first design deficient and `lstsq` gives it full
# rank, and the reverse for the second.
CUTOFF_EXAMPLES = [
    # column 1 is 1 + 3.22e-14 * noise
    [[9.467529428594245, 1.0000000000000198, 1.7929141041810759],
     [3.498892405959575, 1.000000000000021, 6.704457427727847],
     [1.1507938212344748, 0.9999999999999889, 8.581304890839089],
     [0.0282703218662006, 0.999999999999984, 1.0685127402373995],
     [2.579549587609903, 0.9999999999999963, 4.536161218532765],
     [4.681465909439007, 0.9999999999999805, 2.5877108942215044]],
    # column 1 is column 0 times (1 + 2.44e-15 * noise)
    [[0.4377532363899661, 0.4377532363899657, 8.3921258251103],
     [5.871430475880585, 5.871430475880607, 7.517922718186155],
     [2.636921974783747, 2.6369219747837422, 4.510313870011089],
     [9.553145792212376, 9.553145792212339, 2.7863302551894353],
     [2.7853429777937566, 2.7853429777937593, 0.040777249859886844],
     [3.089237677451262, 3.089237677451246, 8.382047782684793]],
]


@pytest.mark.parametrize("example", range(len(CUTOFF_EXAMPLES)))
def test_fit_affine_at_the_cutoff_follows_lstsq_rank(example):
    X = np.array(CUTOFF_EXAMPLES[example])
    D = np.random.default_rng(39).normal(0.0, 1.0, X.shape)
    Z = np.hstack([X, np.ones((len(X), 1))])
    s = np.linalg.svd(Z, compute_uv=False)
    assert 0.95 < s[-1] / (EPS * max(Z.shape) * s[0]) < 1.05
    theta, _res, rank, _s = np.linalg.lstsq(Z, D, rcond=None)
    got = fit_outcome(inference.fit_affine, X, D)
    if rank < Z.shape[1]:
        assert got is None
    else:
        assert np.array_equal(got[0], theta[:-1].T)
        assert np.array_equal(got[1], theta[-1])
    want = fit_outcome(reference_fit_affine, X, D)
    assert (want is None) == (np.linalg.matrix_rank(Z) < Z.shape[1])


# ---------------------------------------------------------------------------
# fit_windows against one fit_affine call per window
# ---------------------------------------------------------------------------

def assert_same_windows(rows, window):
    """fit_windows gives what fit_affine gives window by window: the same
    full-rank windows, bit-identical A, and the same first exception at
    the same window. Returns the number of full-rank windows."""
    got = inference.fit_windows(rows, window)
    want = reference_fit_windows(rows, window)
    assert np.array_equal(got.full, want.full), window
    assert got.A.shape == want.A.shape and got.A.tobytes() == want.A.tobytes()
    assert type(got.error) is type(want.error) and str(got.error) == str(want.error)
    return int(got.full.sum())


def test_fit_windows_matches_fit_affine_on_simulated_sessions():
    # the two sizes below n+1 never fit; 4 to 8 steps mix constant-column,
    # other deficient and full-rank windows
    full = 0
    for seed in range(3):
        for strategy in ("AI", "FF"):
            for sigma in (0.5, 2.0, 4.0):
                cfg = simulator.SimConfig(strategy=simulator.preset(strategy, sigma=sigma),
                                          iterations=120, base_seed=seed)
                m = simulator.simulate_session(cfg, 0).values_matrix
                for window in (2, 3, 4, 5, 8, 120):
                    full += assert_same_windows(m, window)
    assert full > 1000


def pinned_walk(rng, steps, n):
    """A random walk whose columns stick at a value for runs of 1 to 9 rows,
    some of them with ulp-sized wobbles, so windows fall on both sides of
    every constant-column edge and of the rank cut-off."""
    m = np.empty((steps + 1, n))
    x = rng.uniform(0.0, 10.0, n)
    hold = np.zeros(n, dtype=int)
    for t in range(steps + 1):
        for i in range(n):
            if hold[i] == 0:
                x[i] = rng.uniform(0.0, 10.0)
                hold[i] = rng.integers(0, 10) if rng.random() < 0.5 else 0
            else:
                hold[i] -= 1
                if rng.random() < 0.2:
                    x[i] = x[i] * (1.0 + EPS * rng.integers(-4, 5))
        m[t] = x
    return m


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fit_windows_matches_fit_affine_at_constant_column_edges(n):
    rng = np.random.default_rng(40 + n)
    m = pinned_walk(rng, 400, n)
    for window in (n + 1, n + 2, 8):
        want = reference_fit_windows(m, window)
        assert 0 < want.full.sum() < len(want.full)
        assert_same_windows(m, window)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference's residuals overflow
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_windows_stops_at_the_first_non_finite_window(capfd, bad):
    rng = np.random.default_rng(41)
    m = rng.uniform(0.0, 10.0, (40, 3))
    for row in (0, 1, 4, 5, 6, 20, 39):
        w = m.copy()
        w[row, 1] = bad
        for window in (3, 4, 5, 8):
            assert_same_windows(w, window)
        assert len(inference.fit_windows(w, 5).full) == max(0, row - 5)
    # a step whose change alone overflows
    w = m.copy()
    w[10, 0], w[11, 0] = -1.5e308, 1.5e308
    assert_same_windows(w, 4)
    assert isinstance(inference.fit_windows(w, 4).error, NonFinite)
    assert capfd.readouterr().err == ""


def test_fit_windows_without_a_whole_window_is_empty():
    m = np.arange(12.0).reshape(4, 3)
    for window in (3, 4, 9):
        fits = inference.fit_windows(m, window)
        assert fits.full.shape == (max(0, 4 - window),)
        assert fits.A.shape == (0, 3, 3) and fits.error is None


# `_solve_stack` calls the gufunc that numpy 2 runs under np.linalg.lstsq;
# a numpy whose lstsq calls other gufuncs leaves `fit_windows` on its
# per-window path, which the fallback tests below cover
needs_stacked_lstsq = pytest.mark.skipif(
    not hasattr(inference._umath_linalg, "lstsq"),
    reason=f"numpy {np.__version__} has no numpy.linalg._umath_linalg.lstsq gufunc",
)


def assert_stack_is_lstsq(Z, D, where):
    """One `_solve_stack` call on a stack of designs gives, problem by
    problem, the theta bits and the rank of the public `np.linalg.lstsq`."""
    theta, rank = inference._solve_stack(Z, D)
    for k in range(len(Z)):
        want, _res, want_rank, _s = np.linalg.lstsq(Z[k], D[k], rcond=None)
        assert rank[k] == want_rank and theta[k].tobytes() == want.tobytes(), (
            f"{where}, problem {k}: numpy {np.__version__}'s stacked lstsq gufunc "
            f"gives rank {rank[k]}, np.linalg.lstsq rank {want_rank}"
            f"{'' if theta[k].tobytes() == want.tobytes() else ' and other theta bits'}; "
            f"check inference._solve_stack against this numpy's np.linalg.lstsq"
        )


@needs_stacked_lstsq
def test_stacked_lstsq_is_the_public_lstsq_on_simulated_windows():
    # every window, constant-column ones included, of clipped runs
    for seed in range(3):
        for strategy in ("AI", "SF"):
            for sigma in (0.5, 2.0, 4.0):
                cfg = simulator.SimConfig(strategy=simulator.preset(strategy, sigma=sigma),
                                          iterations=120, base_seed=seed)
                m = simulator.simulate_session(cfg, 0).values_matrix
                Z, D = inference._design(m[:-1]), np.diff(m, axis=0)
                for window in (4, 5, 8):
                    idx = np.arange(len(D) - window + 1)[:, None] + np.arange(window)
                    assert_stack_is_lstsq(Z[idx], D[idx], (seed, strategy, sigma, window))


@needs_stacked_lstsq
def test_stacked_lstsq_is_the_public_lstsq_at_the_cutoff():
    rng = np.random.default_rng(39)
    X = np.array(CUTOFF_EXAMPLES)
    Z = np.concatenate([X, np.ones(X.shape[:2] + (1,))], axis=2)
    assert_stack_is_lstsq(Z, rng.normal(0.0, 1.0, X.shape), "CUTOFF_EXAMPLES")
    by_shape = {}
    for family, X, D in crafted_designs():
        by_shape.setdefault(X.shape, []).append((inference._design(X), D))
    for shape, designs in by_shape.items():
        Z, D = (np.array(a) for a in zip(*designs))
        assert_stack_is_lstsq(Z, D, f"crafted designs of shape {shape}")


def test_fit_windows_redoes_a_failed_stack_one_window_at_a_time(monkeypatch):
    rng = np.random.default_rng(43)
    m = pinned_walk(rng, 120, 3)
    window = 5
    want = reference_fit_windows(m, window)
    first = np.flatnonzero(want.full)
    chosen = int(first[len(first) // 2])  # a full-rank window mid-run

    def no_stack(Z, D):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(inference, "_solve_stack", no_stack)
    # every window fails in the stack and none one at a time: the same fits
    assert_same_windows(m, window)
    lstsq = np.linalg.lstsq
    failure = np.linalg.LinAlgError("window did not converge")
    target = inference._design(m[chosen:chosen + window])

    def failing_at_chosen(Z, D, rcond=None):
        if np.array_equal(Z, target):
            raise failure
        return lstsq(Z, D, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", failing_at_chosen)
    got = inference.fit_windows(m, window)
    assert got.error is failure
    assert np.array_equal(got.full, want.full[:chosen])
    assert got.A.tobytes() == want.A[:want.full[:chosen].sum()].tobytes()


@pytest.mark.parametrize("gufuncs", ["missing", "rejecting"])
def test_fit_windows_without_the_stacked_gufunc_fits_window_by_window(monkeypatch, gufuncs):
    rng = np.random.default_rng(44)
    m = pinned_walk(rng, 300, 3)
    stacked = [inference.fit_windows(m, window) for window in (4, 5, 8)]
    calls = []
    lstsq = np.linalg.lstsq

    def counted(Z, D, rcond=None):
        calls.append(1)
        return lstsq(Z, D, rcond=rcond)

    def rejects(*args, **kwargs):
        raise TypeError("no loop matching the specified signature")

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    monkeypatch.setattr(inference, "_umath_linalg",
                        SimpleNamespace() if gufuncs == "missing" else SimpleNamespace(lstsq=rejects))
    for window, want in zip((4, 5, 8), stacked):
        got = inference.fit_windows(m, window)
        assert np.array_equal(got.full, want.full)
        assert got.A.shape == want.A.shape and got.A.tobytes() == want.A.tobytes()
        assert got.error is None and want.error is None
    assert calls


# ---------------------------------------------------------------------------
# interference_matrix
# ---------------------------------------------------------------------------

def test_perfect_anticorrelation_two_dims():
    rng = np.random.default_rng(36)
    d1 = rng.normal(0, 1, 50)
    data = delta_sessions(np.stack([d1, -d1], axis=1))
    im = inference.interference_matrix(data)
    assert im[0, 1] == pytest.approx(-1.0, abs=1e-12)
    assert im[0, 0] == 0.0 and im[1, 1] == 0.0


def test_perfect_correlation_three_dims():
    rng = np.random.default_rng(37)
    d1 = rng.normal(0, 1, 60)
    d3 = rng.normal(0, 1, 60)
    data = delta_sessions(np.stack([d1, d1, d3], axis=1))
    im = inference.interference_matrix(data)
    assert im[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diag(im.entries) == 0.0)


def test_independent_noise_off_diagonals_near_zero():
    rng = np.random.default_rng(38)
    n_steps = 10_000
    data = delta_sessions(rng.normal(0, 1, size=(n_steps, 3)))
    im = inference.interference_matrix(data)
    bound = 3.0 / np.sqrt(n_steps)
    off = im.entries[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) <= bound)


def test_degenerate_variance_identifies_dimension():
    deltas = np.zeros((20, 3))
    deltas[:, 0] = np.linspace(-1, 1, 20)
    deltas[:, 1] = np.linspace(1, -1, 20)
    with pytest.raises(DegenerateVariance) as err:
        inference.interference_matrix(delta_sessions(deltas))
    assert err.value.dimension == 2


def test_interference_insufficient_data():
    with pytest.raises(InsufficientData):
        inference.interference_matrix(delta_sessions(np.ones((1, 3))))


def test_matches_naive_pearson_oracle():
    rng = np.random.default_rng(39)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        deltas = rng.normal(0, rng.uniform(0.1, 3), size=(int(rng.integers(5, 80)), n))
        im = inference.interference_matrix(delta_sessions(deltas))
        for i in range(n):
            for j in range(i + 1, n):
                want = naive_pearson(deltas[:, i], deltas[:, j])
                assert abs(im[i, j] - want) <= 1e-12
                assert im[i, j] == im[j, i]
        assert np.all(np.abs(im.entries) <= 1.0)


def test_tiny_step_changes_keep_their_correlations_and_warn_nothing():
    # at 1e-80 a product of two variances falls below the normal float
    # range, and at 1e-110 it underflows to 0; neither moves a correlation
    rows = np.cumsum(np.random.default_rng(41).normal(size=(30, 3)), axis=0)
    got = []
    for scale in (1.0, 1e-80, 1e-110):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = SessionSet("X", [Trajectory("s000", "X", rows * scale)])
            got.append(inference.interference_matrix(data).entries)
    assert np.abs(got[0]).max() > 0.1
    for scale, entries in zip((1e-80, 1e-110), got[1:]):
        assert np.abs(entries - got[0]).max() <= 1e-12, scale


# ---------------------------------------------------------------------------
# predictive_r2
# ---------------------------------------------------------------------------

def test_exact_predictor_scores_one():
    rng = np.random.default_rng(40)
    A = rng.normal(0, 0.3, (3, 3))
    data = affine_sessions(A, np.array([0.1, -0.2, 0.05]),
                           rng.uniform(1, 9, size=(5, 3)), steps=5)
    model = inference.fit_drift(data)
    rep = inference.predictive_r2(data, model)
    assert rep.r_squared == pytest.approx(1.0, abs=1e-12)
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in rep.per_dimension_r_squared)


def test_mean_predictor_scores_zero():
    rng = np.random.default_rng(41)
    deltas = rng.normal(0.3, 1.0, size=(50, 3))
    data = delta_sessions(deltas, start=[5, 5, 5])
    mean_delta = deltas.mean(axis=0)
    model = DriftModel(np.zeros((3, 3)), mean_delta, np.eye(3), 50)
    rep = inference.predictive_r2(data, model)
    assert rep.r_squared == 0.0


def test_r2_never_exceeds_one():
    rng = np.random.default_rng(42)
    for _ in range(10):
        deltas = rng.normal(0, 1, size=(30, 3))
        data = delta_sessions(deltas, start=[5, 5, 5])
        model = DriftModel(rng.normal(0, 0.2, (3, 3)), rng.normal(0, 0.2, 3),
                           np.eye(3), 30)
        rep = inference.predictive_r2(data, model)
        assert rep.r_squared <= 1.0
        assert rep.step_count == 30


def test_r2_invariant_under_session_reordering():
    cfg = simulator.SimConfig(strategy=simulator.preset("AI"), sessions=20,
                              iterations=8, base_seed=77)
    data = simulator.simulate_set(cfg)
    model = inference.fit_drift(data)
    base = inference.predictive_r2(data, model).r_squared
    shuffled = SessionSet("AI", list(reversed(data.trajectories)))
    again = inference.predictive_r2(shuffled, model).r_squared
    assert abs(base - again) <= 1e-12


def test_r2_needs_two_steps():
    data = SessionSet("X", [Trajectory("s000", "X", [[4.0, 4.0, 4.0], [5.0, 3.0, 4.5]])])
    model = DriftModel(np.zeros((3, 3)), np.zeros(3), np.eye(3), 10)
    with pytest.raises(InsufficientData, match=r"^1 step\(s\) < 2 required for R-squared$"):
        inference.predictive_r2(data, model)


def test_r2_degenerate_variance():
    deltas = np.zeros((10, 3))
    deltas[:, 0] = np.linspace(0, 1, 10)
    deltas[:, 1] = np.linspace(0, 2, 10)
    data = delta_sessions(deltas, start=[4, 4, 4])
    model = DriftModel(np.zeros((3, 3)), np.zeros(3), np.eye(3), 10)
    with pytest.raises(DegenerateVariance):
        inference.predictive_r2(data, model)
