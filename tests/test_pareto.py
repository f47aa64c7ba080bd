import tracemalloc

import numpy as np
import pytest

from driftlab import pareto, simulator
from driftlab.core import (
    DimensionMismatch,
    InsufficientData,
    SessionSet,
    TailTooLong,
    TooShort,
    Trajectory,
)

from oracles import brute_efficiency


def traj(points):
    return Trajectory("s000", "X", points)


# ---------------------------------------------------------------------------
# dominates
# ---------------------------------------------------------------------------

def test_equal_points_do_not_dominate():
    assert not pareto.dominates([5, 5, 5], [5, 5, 5])


def test_single_strict_improvement_dominates():
    assert pareto.dominates([6, 5, 5], [5, 5, 5])


def test_trade_off_is_incomparable():
    assert not pareto.dominates([6, 4, 5], [5, 5, 5])
    assert not pareto.dominates([5, 5, 5], [6, 4, 5])


def test_dominates_dimension_check():
    with pytest.raises(DimensionMismatch):
        pareto.dominates([1, 2, 3], [1, 2])


def test_dominates_is_strict_partial_order():
    rng = np.random.default_rng(51)
    for _ in range(300):
        a, b, c = rng.integers(0, 4, size=(3, 3)).astype(float)
        assert not pareto.dominates(a, a)  # irreflexive
        if pareto.dominates(a, b):
            assert not pareto.dominates(b, a)  # asymmetric
        if pareto.dominates(a, b) and pareto.dominates(b, c):
            assert pareto.dominates(a, c)  # transitive


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
    assert set(rows[0]) == {"strategy", "session_id", "efficiency", "eq_1", "eq_2", "eq_3"}
    assert rows[0]["strategy"] == "AI"


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
    assert [row["efficiency"] for row in rows] == [pareto.pareto_efficiency(t) for t in data]
    assert [row["eq_2"] for row in rows] == \
        [float(pareto.equilibrium_estimate(t, 3)[1]) for t in data]


def test_cross_strategy_front():
    eqs = {
        "A": [5, 5, 5],
        "B": [4, 4, 4],   # dominated by A
        "C": [6, 1, 1],   # trade-off, survives
    }
    front = pareto.cross_strategy_front(eqs)
    assert front == {"A": True, "B": False, "C": True}


def test_cross_strategy_front_of_no_strategies_is_insufficient_data():
    with pytest.raises(InsufficientData, match="at least one equilibrium"):
        pareto.cross_strategy_front({})
