"""Dominance analysis and Pareto-efficiency metrics.

All objectives are maximized. Efficiency is self-referential: the
fraction of a trajectory's points not dominated by any other point of the
same trajectory. A cross-strategy front over session equilibria is
available as a separate report and is never the headline metric.

One dominance kernel, `_dominated`, serves two paths: a trajectory longer
than `_BLOCK` points is swept in sorted blocks by `non_dominated_mask`,
and `efficiency_rows` checks short trajectories of equal length all at
once, stacked, with one full pairwise comparison per chunk.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable

import numpy as np

from .core import (
    DimensionMismatch,
    InsufficientData,
    SessionSet,
    TailTooLong,
    TooShort,
    Trajectory,
)


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

    C is (..., |C|, n) and B is (..., |B|, n), with the same leading batch
    axes; the mask is (..., |B|). Builds (..., |C|, |B|) boolean
    temporaries one objective at a time, never a (..., |C|, |B|, n) array.
    """
    ge = np.ones(C.shape[:-1] + B.shape[-2:-1], dtype=bool)
    gt = np.zeros_like(ge)
    for k in range(B.shape[-1]):
        c = C[..., :, None, k]
        b = B[..., None, :, k]
        ge &= c >= b
        gt |= c > b
    return np.any(ge & gt, axis=-2)


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
    """Fraction of trajectory points on the trajectory's own Pareto front.

    Raises TooShort on a trajectory with no points.
    """
    if len(traj) == 0:
        raise TooShort(f"trajectory {traj.session_id!r} has no points")
    mask = non_dominated_mask(traj.values_matrix)
    return float(np.count_nonzero(mask)) / float(mask.size)


def equilibrium_estimate(traj: Trajectory, tail: int = 3) -> np.ndarray:
    """Component-wise mean of the final `tail` points."""
    if tail < 1:
        raise ValueError(f"tail must be >= 1, got {tail}")
    if tail > len(traj):
        raise TailTooLong(f"tail {tail} > trajectory length {len(traj)}")
    return traj.values_matrix[-tail:].mean(axis=0)


def _efficiencies(trajectories: Iterable[Trajectory]) -> list[float]:
    """`pareto_efficiency` of each trajectory, in order.

    A run of consecutive trajectories with the same length T <= `_BLOCK`
    is stacked into (S, T, n) chunks of S * T**2 <= `_BLOCK`**2 and checked
    with one pairwise `_dominated` per chunk: for such T the sweep in
    `non_dominated_mask` is that same single block. Longer trajectories
    take the sweep.
    """
    out: list[float] = []
    for T, run in groupby(trajectories, key=len):
        run = list(run)
        if T > _BLOCK:
            out += [pareto_efficiency(traj) for traj in run]
            continue
        per_chunk = _BLOCK**2 // T**2
        for first in range(0, len(run), per_chunk):
            X = np.stack([traj.values_matrix for traj in run[first:first + per_chunk]])
            counts = np.count_nonzero(~_dominated(X, X), axis=-1)
            out += [count / T for count in counts.tolist()]
    return out


def efficiency_rows(data: SessionSet, tail: int = 3) -> list[dict]:
    """Per-session efficiency and equilibrium rows for the CSV report.

    The equilibria come first, so a bad `tail` raises before any Pareto
    work; the efficiencies equal `pareto_efficiency` of each session.
    """
    equilibria = [equilibrium_estimate(traj, tail).tolist() for traj in data]
    rows = []
    for traj, efficiency, eq in zip(data, _efficiencies(data), equilibria):
        row = {
            "strategy": data.strategy_id,
            "session_id": traj.session_id,
            "efficiency": efficiency,
        }
        for i, v in enumerate(eq, start=1):
            row[f"eq_{i}"] = v
        rows.append(row)
    return rows


def cross_strategy_front(equilibria: dict[str, np.ndarray]) -> dict[str, bool]:
    """Which strategies' equilibria survive dominance against the others."""
    names = list(equilibria)
    if not names:
        raise InsufficientData("cross-strategy front needs at least one equilibrium")
    P = np.stack([equilibria[k] for k in names])
    mask = non_dominated_mask(P)
    return {name: bool(flag) for name, flag in zip(names, mask)}
