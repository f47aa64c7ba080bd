"""Dominance analysis and Pareto-efficiency metrics.

All objectives are maximized. Efficiency is self-referential: the
fraction of a trajectory's points not dominated by any other point of the
same trajectory. A cross-strategy front over session equilibria is
available as a separate report and is never the headline metric.
"""

from __future__ import annotations

import numpy as np

from .core import DimensionMismatch, SessionSet, TailTooLong, Trajectory


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff a >= b component-wise with at least one strict improvement."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise DimensionMismatch(f"cannot compare shapes {av.shape} and {bv.shape}")
    return bool(np.all(av >= bv) and np.any(av > bv))


_BLOCK = 512  # rows checked per step of the sweep in `non_dominated_mask`


def _dominated(C: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Mask over the rows of B: True where some row of C dominates it.

    Builds (|C|, |B|) boolean temporaries one objective at a time, never a
    (|C|, |B|, n) array.
    """
    ge = np.ones((len(C), len(B)), dtype=bool)
    gt = np.zeros_like(ge)
    for k in range(B.shape[1]):
        c = C[:, None, k]
        b = B[None, :, k]
        ge &= c >= b
        gt |= c > b
    return np.any(ge & gt, axis=0)


def non_dominated_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask over (T, n) rows: True where no other row dominates.

    The rows are swept in descending lexicographic order. A dominator is
    >= on every axis and > on at least one, so it sorts strictly before
    the rows it dominates; each block of `_BLOCK` rows therefore needs
    checking only against the front found so far plus the block itself
    (a dominated dominator is itself dominated by a front row, which then
    dominates the same point). Exact duplicates never dominate each other,
    so copies of a maximal point all survive.

    Memory is O((|front| + _BLOCK) * _BLOCK) booleans: O(T * _BLOCK) in the
    worst case, where every row is on the front.
    """
    P = np.asarray(points, dtype=np.float64)
    order = np.lexsort(P.T[::-1])[::-1]
    S = P[order]
    keep = np.empty(len(S), dtype=bool)
    front = S[:0]
    for start in range(0, len(S), _BLOCK):
        B = S[start:start + _BLOCK]
        survivors = ~_dominated(np.concatenate((front, B)), B)
        keep[start:start + len(B)] = survivors
        front = np.concatenate((front, B[survivors]))
    mask = np.empty_like(keep)
    mask[order] = keep
    return mask


def pareto_efficiency(traj: Trajectory) -> float:
    """Fraction of trajectory points on the trajectory's own Pareto front."""
    mask = non_dominated_mask(traj.values_matrix)
    return float(np.count_nonzero(mask)) / float(mask.size)


def equilibrium_estimate(traj: Trajectory, tail: int = 3) -> np.ndarray:
    """Component-wise mean of the final `tail` points."""
    if tail < 1:
        raise ValueError(f"tail must be >= 1, got {tail}")
    if tail > len(traj):
        raise TailTooLong(f"tail {tail} > trajectory length {len(traj)}")
    return traj.values_matrix[-tail:].mean(axis=0)


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
        for i, v in enumerate(eq, start=1):
            row[f"eq_{i}"] = float(v)
        rows.append(row)
    return rows


def cross_strategy_front(equilibria: dict[str, np.ndarray]) -> dict[str, bool]:
    """Which strategies' equilibria survive dominance against the others."""
    names = list(equilibria)
    P = np.stack([equilibria[k] for k in names])
    mask = non_dominated_mask(P)
    return {name: bool(flag) for name, flag in zip(names, mask)}
