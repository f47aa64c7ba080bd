"""Dominance analysis and Pareto-efficiency metrics.

All objectives are maximized. Efficiency is self-referential: the
fraction of a trajectory's points not dominated by any other point of the
same trajectory.

One dominance kernel, `_dominated`, serves two paths: a trajectory longer
than `_BLOCK` points is swept in sorted blocks by `non_dominated_mask`,
and `efficiency_rows` checks short trajectories of equal length all at
once, stacked, with one full pairwise comparison per chunk. The stacks and
the equilibria are read from the session set's one array of rows.

The sweep seeds its front with the lexicographic maximum, which nothing
dominates, and filters each block against the front before checking the
block's remaining rows against each other. Strict dominance is
transitive, so a row the front dominates is never needed as a
dominator. A block then costs |front| * |block| + |candidates|**2
comparisons in place of (|front| + |block|) * |block|; when every row is
on the front, the two are the same work.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .core import SessionSet, TailTooLong, TooShort, Trajectory, _shown, check_integer


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
    the rows it dominates. The first sorted row is therefore kept and
    seeds the front, and each later block of `_BLOCK` rows needs checking
    only against the front found so far and against itself. The front
    goes first: the block's rows it dominates are dropped, and only the
    rest, the candidates, are checked against each other. That is exact
    because dominance is transitive: if a front row dominates b1 and b1
    dominates b2, the front row dominates b2 as well, so a dropped row is
    never the only dominator of another. Exact duplicates never dominate
    each other, so copies of a maximal point all survive.

    A block costs |front| * |B| + |candidates|**2 comparisons. In the
    worst case, where every row is on the front, that is the
    (|front| + |B|) * |B| of checking the front and the block together.
    Memory is O((|front| + _BLOCK) * _BLOCK) booleans: O(T * _BLOCK) in
    that worst case.
    """
    P = np.asarray(points, dtype=np.float64)
    order = np.lexsort(P.T[::-1])[::-1]
    S = P[order]
    keep = np.zeros(len(S), dtype=bool)
    keep[:1] = True
    front = S[:1]
    for start in range(1, len(S), _BLOCK):
        B = S[start:start + _BLOCK]
        cand = np.flatnonzero(~_dominated(front, B))
        C = B[cand]
        cand = cand[~_dominated(C, C)]
        keep[start + cand] = True
        front = np.concatenate((front, B[cand]))
    mask = np.empty_like(keep)
    mask[order] = keep
    return mask


def pareto_efficiency(traj: Trajectory) -> float:
    """Fraction of trajectory points on the trajectory's own Pareto front.

    Raises TooShort on a trajectory with no points.
    """
    if len(traj) == 0:
        raise TooShort(f"trajectory {_shown(traj.session_id)} has no points")
    mask = non_dominated_mask(traj.values_matrix)
    return float(np.count_nonzero(mask)) / float(mask.size)


def _check_tail(tail: int, length: int) -> None:
    check_integer("tail", tail)
    if tail < 1:
        raise ValueError(f"tail must be >= 1, got {_shown(tail)}")
    if tail > length:
        raise TailTooLong(f"tail {_shown(tail)} > trajectory length {length}")


def equilibrium_estimate(traj: Trajectory, tail: int = 3) -> np.ndarray:
    """Component-wise mean of the final `tail` points."""
    _check_tail(tail, len(traj))
    return traj.values_matrix[-int(tail):].mean(axis=0)  # -tail of a numpy uint wraps


def _efficiencies(data: SessionSet) -> list[float]:
    """`pareto_efficiency` of each session, in order.

    A run of consecutive sessions with the same length T <= `_BLOCK` is
    checked in (S, T, n) chunks of S * T**2 <= `_BLOCK`**2, each a view of
    the set's rows, with one pairwise `_dominated` per chunk: for such T the
    sweep in `non_dominated_mask` is a single block, and the full pairwise
    check gives the same mask. Longer sessions take the sweep, each as a
    `Trajectory` view of its rows.
    """
    m, offsets = data.values_matrix, data.offsets.tolist()
    out: list[float] = []
    first = 0
    for T, run in groupby(np.diff(data.offsets).tolist()):
        stop = first + len(list(run))
        if T > _BLOCK:
            out += [pareto_efficiency(Trajectory._view(data.session_ids[i], data.strategy_id,
                                                       m[offsets[i]:offsets[i + 1]]))
                    for i in range(first, stop)]
        else:
            per_chunk = _BLOCK**2 // T**2
            for lo in range(first, stop, per_chunk):
                hi = min(lo + per_chunk, stop)
                X = m[offsets[lo]:offsets[hi]].reshape(hi - lo, T, -1)
                counts = np.count_nonzero(~_dominated(X, X), axis=-1)
                out += [count / T for count in counts.tolist()]
        first = stop
    return out


def efficiency_rows(data: SessionSet, tail: int = 3) -> list[tuple]:
    """One `(session_id, efficiency, *equilibrium)` row per session, in order.

    The equilibria come first, so a bad `tail` raises before any Pareto
    work, as `equilibrium_estimate` of the first session too short for it
    would. They are the means of each session's last `tail` rows, gathered
    from the set's rows in one (sessions, tail, n) array, and equal
    `equilibrium_estimate` of each session; the efficiencies equal
    `pareto_efficiency` of each session.
    """
    lengths = np.diff(data.offsets)
    _check_tail(tail, int(lengths[np.argmax(lengths < tail)]))  # session 0 when none is short
    tails = data.offsets[1:, None] + np.arange(-int(tail), 0)
    equilibria = data.values_matrix[tails].mean(axis=1).tolist()
    return [(sid, efficiency, *eq)
            for sid, efficiency, eq in zip(data.session_ids, _efficiencies(data), equilibria)]
