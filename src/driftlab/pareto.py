"""Dominance analysis and Pareto-efficiency metrics.

All objectives are maximized. Efficiency is self-referential: the
fraction of a trajectory's points not dominated by any other point of the
same trajectory. A cross-strategy front over session equilibria is
available as a separate report and is never the headline metric.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DimensionMismatch,
    ObjectiveVector,
    SessionSet,
    TailTooLong,
    Trajectory,
)


def dominates(a: ObjectiveVector | np.ndarray, b: ObjectiveVector | np.ndarray) -> bool:
    """True iff a >= b component-wise with at least one strict improvement."""
    av = a.values if isinstance(a, ObjectiveVector) else np.asarray(a, dtype=np.float64)
    bv = b.values if isinstance(b, ObjectiveVector) else np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise DimensionMismatch(f"cannot compare shapes {av.shape} and {bv.shape}")
    return bool(np.all(av >= bv) and np.any(av > bv))


def non_dominated_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask over (T, n) rows: True where no other row dominates.

    Exact duplicates never dominate each other, so copies of a maximal
    point all survive.
    """
    P = np.asarray(points, dtype=np.float64)
    ge = np.all(P[:, None, :] >= P[None, :, :], axis=2)
    gt = np.any(P[:, None, :] > P[None, :, :], axis=2)
    dominated = np.any(ge & gt, axis=0)
    return ~dominated


def pareto_efficiency(traj: Trajectory) -> float:
    """Fraction of trajectory points on the trajectory's own Pareto front."""
    mask = non_dominated_mask(traj.values_matrix)
    return float(np.count_nonzero(mask)) / float(mask.size)


def equilibrium_estimate(traj: Trajectory, tail: int = 3) -> ObjectiveVector:
    """Component-wise mean of the final `tail` points."""
    if tail < 1:
        raise ValueError(f"tail must be >= 1, got {tail}")
    if tail > len(traj):
        raise TailTooLong(f"tail {tail} > trajectory length {len(traj)}")
    return ObjectiveVector(traj.values_matrix[-tail:].mean(axis=0))


def efficiency_rows(data: SessionSet, tail: int = 3) -> list[dict]:
    """Per-session efficiency and equilibrium rows for the CSV report."""
    rows = []
    for traj in data:
        eq = equilibrium_estimate(traj, tail)
        row = {
            "strategy": data.strategy_id,
            "session_id": traj.session_id,
            "efficiency": pareto_efficiency(traj),
        }
        for i, v in enumerate(eq.values, start=1):
            row[f"eq_{i}"] = float(v)
        rows.append(row)
    return rows


def cross_strategy_front(
    equilibria: dict[str, ObjectiveVector]
) -> dict[str, bool]:
    """Which strategies' equilibria survive dominance against the others."""
    names = list(equilibria)
    P = np.stack([equilibria[k].values for k in names])
    mask = non_dominated_mask(P)
    return {name: bool(flag) for name, flag in zip(names, mask)}
