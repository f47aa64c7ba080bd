import tracemalloc

import numpy as np
import pytest

from driftlab import pareto, simulator
from driftlab.core import SessionSet, TailTooLong, TooShort, Trajectory

from oracles import brute_efficiency, pairwise_non_dominated


def traj(points):
    return Trajectory("s000", "X", points)


# ---------------------------------------------------------------------------
# pareto_efficiency
# ---------------------------------------------------------------------------

def test_strictly_improving_trajectory():
    assert pareto.pareto_efficiency(traj([[1, 1, 1], [2, 2, 2], [3, 3, 3]])) == pytest.approx(1 / 3)


def test_all_incomparable_points():
    assert pareto.pareto_efficiency(traj([[3, 1, 1], [1, 3, 1], [1, 1, 3]])) == 1.0


def test_duplicates_of_maximal_point_survive():
    t = traj([[5, 5, 5], [4, 4, 4], [5, 5, 5], [3, 3, 3]])
    assert pareto.pareto_efficiency(t) == 0.5


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(52)
    for _ in range(60):
        length = int(rng.integers(2, 60))
        n = int(rng.integers(2, 5))
        pts = rng.uniform(0, 10, size=(length, n))
        if rng.random() < 0.5:
            pts = pts.round(0)  # force ties and duplicates
        t = traj(pts)
        assert pareto.pareto_efficiency(t) == brute_efficiency(pts)


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_matches_brute_force_oracle_across_blocks(monkeypatch, block):
    monkeypatch.setattr(pareto, "_BLOCK", block)
    rng = np.random.default_rng(55)
    for _ in range(40):
        length = int(rng.integers(2, 40))
        n = int(rng.integers(2, 5))
        pts = rng.uniform(0, 10, size=(length, n))
        if rng.random() < 0.5:
            pts = pts.round(0)  # force ties and duplicates
        assert pareto.pareto_efficiency(traj(pts)) == brute_efficiency(pts)
    # every point of an integer simplex is on the front
    simplex = np.array([[i, j, 10 - i - j] for i in range(11) for j in range(11 - i)], float)
    simplex = simplex[rng.permutation(len(simplex))]
    assert pareto.pareto_efficiency(traj(simplex)) == brute_efficiency(simplex) == 1.0
    # many copies of the maximal point, among points it dominates or ties
    pts = np.vstack([np.full((15, 3), 9.0), rng.integers(0, 10, size=(25, 3))])
    pts = pts[rng.permutation(len(pts))]
    assert pareto.pareto_efficiency(traj(pts)) == brute_efficiency(pts) == 15 / 40


def test_mask_memory_is_bounded_at_50k_points():
    pts = np.random.default_rng(56).uniform(0, 10, size=(50_000, 3))
    tracemalloc.start()
    try:
        mask = pareto.non_dominated_mask(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # exact on the result: no point dominates a front point, and every
    # other point is dominated by some front point
    covered = np.zeros(len(pts), dtype=bool)
    for f in pts[mask]:
        assert not np.any(np.all(pts >= f, axis=1) & np.any(pts > f, axis=1))
        covered |= np.all(f >= pts, axis=1) & np.any(f > pts, axis=1)
    assert np.array_equal(covered, ~mask)


def _long_case(case):
    """(T, n) points: one simulated session of 4000 steps, or an all-front
    anti-diagonal of 1300 rows in shuffled order."""
    if case == "anti-diagonal":
        a = np.arange(1300.0)
        pts = np.stack([a, 1299.0 - a, np.full(1300, 5.0)], axis=1)
        return pts[np.random.default_rng(58).permutation(1300)]
    cfg = simulator.SimConfig(strategy=simulator.preset(case), sessions=1,
                              iterations=4000, base_seed=63)
    return simulator.simulate_set(cfg).trajectories[0].values_matrix


def _unpruned_comparisons(pts, mask):
    """Row pairs compared by a sweep that checks each block of `_BLOCK`
    sorted rows against the front so far and the block together:
    the sum of (|front so far| + |B|) * |B| over the blocks."""
    keep = mask[np.lexsort(pts.T[::-1])[::-1]]
    total = 0
    for start in range(0, len(pts), pareto._BLOCK):
        size = min(pareto._BLOCK, len(pts) - start)
        total += (int(np.count_nonzero(keep[:start])) + size) * size
    return total


@pytest.mark.parametrize("case", ["SF", "FF", "AI", "EF", "anti-diagonal"])
def test_long_sweep_matches_oracle_and_prunes_blocks(monkeypatch, case):
    pts = _long_case(case)
    compared = []
    dominated = pareto._dominated

    def counting(C, B):
        compared.append(C.shape[-2] * B.shape[-2])
        return dominated(C, B)

    monkeypatch.setattr(pareto, "_dominated", counting)
    mask = pareto.non_dominated_mask(pts)
    assert mask.tolist() == pairwise_non_dominated(pts)
    unpruned = _unpruned_comparisons(pts, mask)
    assert sum(compared) <= unpruned
    if case == "SF":
        # the front is a handful of points, so it rejects almost every row
        assert sum(compared) < unpruned / 4
    if case == "anti-diagonal":
        assert mask.all()


def test_efficiency_invariant_under_reordering():
    rng = np.random.default_rng(53)
    pts = rng.uniform(0, 10, size=(30, 3)).round(1)
    base = pareto.pareto_efficiency(traj(pts))
    for _ in range(5):
        perm = rng.permutation(30)
        assert pareto.pareto_efficiency(traj(pts[perm])) == base


def test_appending_dominated_point_never_grows_front():
    rng = np.random.default_rng(54)
    for _ in range(40):
        pts = rng.uniform(1, 9, size=(int(rng.integers(2, 20)), 3))
        front_before = int(np.count_nonzero(pareto.non_dominated_mask(pts)))
        dominated = pts[rng.integers(0, len(pts))] - rng.uniform(0.1, 1.0, 3)
        grown = np.vstack([pts, dominated])
        front_after = int(np.count_nonzero(pareto.non_dominated_mask(grown)))
        assert front_after <= front_before  # numerator never increases


# ---------------------------------------------------------------------------
# equilibrium_estimate
# ---------------------------------------------------------------------------

def test_constant_trajectory_equilibrium():
    t = traj([[4, 4.2, 8.2]] * 5)
    for tail in (1, 3, 5):
        assert np.array_equal(pareto.equilibrium_estimate(t, tail), [4, 4.2, 8.2])


def test_equilibrium_is_tail_mean():
    t = traj([[0, 0, 0], [2, 2, 2]])
    assert np.array_equal(pareto.equilibrium_estimate(t, 2), [1, 1, 1])


def test_empty_trajectory_efficiency_is_too_short():
    with pytest.raises(TooShort, match="'s000' has no points"):
        pareto.pareto_efficiency(traj(np.empty((0, 3))))


def test_tail_too_long():
    with pytest.raises(TailTooLong):
        pareto.equilibrium_estimate(traj([[1, 1, 1], [2, 2, 2]]), 3)
    with pytest.raises(ValueError):
        pareto.equilibrium_estimate(traj([[1, 1, 1], [2, 2, 2]]), 0)


@pytest.mark.parametrize("tail", [2.0, 2.5, True, np.float64(2.0)])
def test_tail_must_be_an_integer(tail):
    t = traj([[1, 1, 1], [2, 2, 2], [3, 3, 3]])
    data = SessionSet("X", [t])
    for call in (lambda: pareto.equilibrium_estimate(t, tail),
                 lambda: pareto.efficiency_rows(data, tail)):
        with pytest.raises(TypeError, match="^tail must be an integer, got "):
            call()


def test_a_numpy_integer_tail_counts_as_its_value():
    t = traj([[1, 1, 1], [2, 2, 2], [3, 3, 3]])
    data = SessionSet("X", [t])
    for tail in (np.int64(2), np.uint8(2), np.uint64(2)):
        assert np.array_equal(pareto.equilibrium_estimate(t, tail),
                              pareto.equilibrium_estimate(t, 2))
    assert pareto.efficiency_rows(data, np.uint8(2)) == pareto.efficiency_rows(data, 2)


def test_ff_simulation_saturates_functionality_and_loses_security():
    cfg = simulator.SimConfig(strategy=simulator.preset("FF", sigma=0.5),
                              sessions=200, iterations=10, base_seed=61)
    data = simulator.simulate_set(cfg)
    eqs = np.stack([pareto.equilibrium_estimate(t, 3) for t in data])
    mean_eq = eqs.mean(axis=0)
    assert mean_eq[0] <= 1.0   # security collapses
    assert mean_eq[2] >= 8.0   # functionality saturates


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_efficiency_rows_shape():
    cfg = simulator.SimConfig(strategy=simulator.preset("AI"), sessions=3,
                              iterations=5, base_seed=62)
    rows = pareto.efficiency_rows(simulator.simulate_set(cfg), tail=3)
    assert len(rows) == 3
    assert all(type(row) is tuple and len(row) == 5 for row in rows)
    assert [row[0] for row in rows] == [simulator.session_label(i) for i in range(3)]


def test_efficiency_rows_equal_per_session_efficiency():
    # 700 sessions of T=21 fill more than one stacked chunk (594 at the
    # default _BLOCK); T=600 > _BLOCK takes the sweep; a small integer grid
    # makes ties and exact duplicates common
    assert pareto._BLOCK**2 // 21**2 < 700 and 600 > pareto._BLOCK
    rng = np.random.default_rng(57)
    lengths = [21] * 700 + [600, 5, 5, 600]
    data = SessionSet("X", [Trajectory(f"s{i}", "X", rng.integers(0, 4, size=(T, 3)))
                            for i, T in enumerate(lengths)])
    rows = pareto.efficiency_rows(data, tail=3)
    assert [row[1] for row in rows] == [pareto.pareto_efficiency(t) for t in data]
    assert [row[3] for row in rows] == \
        [float(pareto.equilibrium_estimate(t, 3)[1]) for t in data]


def test_efficiency_rows_build_a_trajectory_only_for_a_long_session(monkeypatch):
    views = []
    view = Trajectory._view
    monkeypatch.setattr(Trajectory, "_view",
                        classmethod(lambda cls, sid, *args: views.append(sid) or view(sid, *args)))
    rng = np.random.default_rng(58)
    data = SessionSet("X", [Trajectory(f"s{i}", "X", rng.uniform(0, 10, size=(T, 3)))
                            for i, T in enumerate([21, 600, 5, 21])])
    rows = pareto.efficiency_rows(data, tail=3)
    assert views == ["s1"]
    assert "trajectories" not in vars(data)  # the set built no view of its own
    assert [row[:2] for row in rows] == [(t.session_id, pareto.pareto_efficiency(t))
                                         for t in data]


def _preset_sessions(strategy_id, iterations, seed):
    """Simulated sessions of one preset, one set per length in
    `iterations`, renamed apart and shuffled, so that lengths differ from
    one session to the next."""
    trajs = []
    for k, its in enumerate(iterations):
        cfg = simulator.SimConfig(strategy=simulator.preset(strategy_id), sessions=8,
                                  iterations=its, base_seed=seed + k)
        trajs += [Trajectory(f"{its}-{t.session_id}", strategy_id, t.values_matrix)
                  for t in simulator.simulate_set(cfg)]
    np.random.default_rng(seed).shuffle(trajs)
    return trajs


@pytest.mark.parametrize("strategy_id", sorted(simulator.PRESET_DRIFT_DIAGONALS))
def test_stacked_equilibria_equal_per_session_estimates(strategy_id):
    # tails 1..T+1 of the shortest session, past 8, where a pairwise sum
    # would start, on sessions of unequal lengths
    iterations = (12, 20, 31)
    data = SessionSet(strategy_id, _preset_sessions(strategy_id, iterations, seed=91))
    for tail in range(1, min(iterations) + 2):
        rows = pareto.efficiency_rows(data, tail)
        for row, t in zip(rows, data):
            want = pareto.equilibrium_estimate(t, tail)
            got = np.array(row[2:])
            assert got.tobytes() == want.tobytes(), (tail, t.session_id)
        assert [row[0] for row in rows] == [t.session_id for t in data]


def test_stacked_equilibria_name_the_first_session_too_short():
    data = SessionSet("X", [traj([[1, 1, 1]] * 6), Trajectory("b", "X", [[2, 2, 2]] * 4),
                            Trajectory("c", "X", [[3, 3, 3]] * 2)])
    for tail, short in ((5, data.trajectories[1]), (7, data.trajectories[0])):
        with pytest.raises(TailTooLong) as want:
            pareto.equilibrium_estimate(short, tail)
        with pytest.raises(TailTooLong) as got:
            pareto.efficiency_rows(data, tail)
        assert str(got.value) == str(want.value) == f"tail {tail} > trajectory length {len(short)}"
    with pytest.raises(ValueError, match="tail must be >= 1, got 0"):
        pareto.efficiency_rows(data, 0)


def test_too_short_shows_a_long_session_id_cut():
    with pytest.raises(TooShort) as info:
        pareto.pareto_efficiency(Trajectory("s" * 5000, "X", np.empty((0, 3))))
    assert str(info.value) == f"trajectory {'s' * 40!r}... (5000 characters) has no points"
