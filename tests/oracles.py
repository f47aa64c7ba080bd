"""Independent oracles used by the test suite.

Each implementation here is deliberately naive and kept separate from the
library code paths it checks: textbook Pearson correlation via fsum
loops, O(T^2) dominance scanning, closed-form characteristic-
polynomial eigenvalues for n <= 3 (quadratic formula / Cardano), a
one-session-at-a-time Euler-Maruyama loop that builds a fresh Philox
generator for every draw, a JSONL writer and reader that go through
one dict and one `json.dumps` / `json.loads` per record, and an affine
fit that checks the design's rank with its own `np.linalg.matrix_rank`
before solving.
"""

from __future__ import annotations

import cmath
import json
import math
from typing import Iterator

import numpy as np

from driftlab.core import (
    InsufficientData,
    RankDeficientDesign,
    RecordFormatError,
    Trajectory,
    validate_trajectory,
)


# ---------------------------------------------------------------------------
# Pearson correlation, the long way
# ---------------------------------------------------------------------------

def naive_pearson(x, y) -> float:
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    vx = math.fsum((a - mx) ** 2 for a in xs)
    vy = math.fsum((b - my) ** 2 for b in ys)
    return cov / math.sqrt(vx * vy)


# ---------------------------------------------------------------------------
# Brute-force Pareto efficiency
# ---------------------------------------------------------------------------

def brute_non_dominated(points) -> list[bool]:
    """Per point: True when no other point dominates it, via full pairwise
    scanning with early exits."""
    pts = [tuple(float(v) for v in p) for p in points]
    total = len(pts)
    flags = []
    for i in range(total):
        pi = pts[i]
        dominated = False
        for j in range(total):
            if j == i:
                continue
            pj = pts[j]
            ge = True
            gt = False
            for a, b in zip(pj, pi):
                if a < b:
                    ge = False
                    break
                if a > b:
                    gt = True
            if ge and gt:
                dominated = True
                break
        flags.append(not dominated)
    return flags


def brute_efficiency(points) -> float:
    """Fraction of points not dominated by any other point."""
    flags = brute_non_dominated(points)
    return sum(flags) / len(flags)


# ---------------------------------------------------------------------------
# Closed-form characteristic-polynomial eigenvalues, n <= 3
# ---------------------------------------------------------------------------

def _roots_quadratic(a1: float, a0: float) -> list[complex]:
    """Roots of z^2 + a1 z + a0."""
    disc = cmath.sqrt(a1 * a1 - 4.0 * a0)
    return [(-a1 + disc) / 2.0, (-a1 - disc) / 2.0]


def _roots_cubic(a2: float, a1: float, a0: float) -> list[complex]:
    """Roots of z^3 + a2 z^2 + a1 z + a0 by Cardano's formula."""
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2**3 / 27.0 - a2 * a1 / 3.0 + a0
    shift = -a2 / 3.0
    if p == 0.0 and q == 0.0:
        return [complex(shift)] * 3
    disc = cmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    u3 = -q / 2.0 + disc
    if abs(u3) < abs(-q / 2.0 - disc):
        u3 = -q / 2.0 - disc
    u = u3 ** (1.0 / 3.0)
    omega = complex(-0.5, math.sqrt(3.0) / 2.0)
    roots = []
    for k in range(3):
        uk = u * omega**k
        roots.append(uk - p / (3.0 * uk) + shift)
    return roots


def charpoly_eigenvalues(A) -> list[complex]:
    """Eigenvalues of a real matrix with n <= 3 from det(zI - A) = 0."""
    M = np.asarray(A, dtype=np.float64)
    n = M.shape[0]
    if n == 1:
        return [complex(M[0, 0])]
    if n == 2:
        tr = M[0, 0] + M[1, 1]
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        return _roots_quadratic(-tr, det)
    if n == 3:
        tr = float(np.trace(M))
        # sum of principal 2x2 minors
        m2 = float(
            M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            + M[0, 0] * M[2, 2] - M[0, 2] * M[2, 0]
            + M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1]
        )
        det = float(np.linalg.det(M))
        return _roots_cubic(-tr, m2, -det)
    raise ValueError(f"closed form only for n <= 3, got n = {n}")


def match_multisets(a, b, tol: float) -> bool:
    """Greedy nearest matching of two complex multisets within tol."""
    remaining = list(b)
    for z in a:
        best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - z))
        if abs(remaining[best] - z) > tol:
            return False
        remaining.pop(best)
    return not remaining


# ---------------------------------------------------------------------------
# Affine fit with a separate rank decomposition
# ---------------------------------------------------------------------------

def reference_fit_affine(states, deltas):
    """`inference.fit_affine` as two decompositions: `np.linalg.matrix_rank`
    decides whether [states | 1] has full column rank, and then `lstsq`
    solves. Same returns and errors, non-finite input aside."""
    X = np.asarray(states, dtype=np.float64)
    D = np.asarray(deltas, dtype=np.float64)
    if X.ndim != 2 or X.shape != D.shape:
        raise ValueError(f"states {X.shape} and deltas {D.shape} must match (N, n)")
    count, n = X.shape
    if count < n + 1:
        raise InsufficientData(f"{count} step(s) < n+1 = {n + 1} required for the fit")
    Z = np.hstack([X, np.ones((count, 1))])
    if np.linalg.matrix_rank(Z) < n + 1:
        raise RankDeficientDesign(
            f"design matrix rank < {n + 1}; states do not span the space"
        )
    theta, *_ = np.linalg.lstsq(Z, D, rcond=None)
    A = theta[:n].T
    b = theta[n]
    resid = D - Z @ theta
    dof = max(1, count - (n + 1))
    sigma = (resid.T @ resid) / dof
    sigma = (sigma + sigma.T) / 2.0
    return A, b, sigma, count


# ---------------------------------------------------------------------------
# Exact affine contraction trajectories (controller probes)
# ---------------------------------------------------------------------------

def contraction_trajectory(diag, center, amplitudes, steps: int) -> list[list[float]]:
    """Points of x_{t+1} = c + (I + diag(A)) (x_t - c), x_0 = c + amplitudes.

    The local affine fit over these points recovers diag(A) exactly, so
    the implied convergence rate is -max(diag) with no estimation noise.
    """
    d = np.asarray(diag, dtype=np.float64)
    c = np.asarray(center, dtype=np.float64)
    v = np.asarray(amplitudes, dtype=np.float64)
    mult = 1.0 + d
    points = []
    offset = v.copy()
    for _ in range(steps + 1):
        points.append((c + offset).tolist())
        offset = mult * offset
    return points


# ---------------------------------------------------------------------------
# Sequential Euler-Maruyama, one fresh generator per draw
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def fresh_generator(base_seed: int, session_index: int, tag: int) -> np.random.Generator:
    """A new Philox generator at counter [0, 0, 0, tag], keyed by the
    session seed base_seed XOR splitmix64(session_index). Tag 0 is the
    start-state draw and tag t+1 the noise of step t."""
    z = (session_index + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    seed = (base_seed & _MASK64) ^ ((z ^ (z >> 31)) & _MASK64)
    return np.random.Generator(np.random.Philox(counter=[0, 0, 0, tag], key=[seed, _GOLDEN]))


def sequential_sessions(cfg) -> list[np.ndarray]:
    """The (T+1, n) matrix of every session of a `SimConfig`, each session
    stepped on its own, one row at a time, with plain `A @ x` products."""
    spec = cfg.strategy
    A, b, S = spec.drift_matrix, spec.drift_intercept, spec.diffusion
    n = A.shape[0]
    out = []
    for i in range(cfg.sessions):
        if cfg.init_box is not None:
            low, high = cfg.init_box
            x = fresh_generator(cfg.base_seed, i, 0).uniform(low, high, size=n)
        elif cfg.initial_state is not None:
            x = np.array(cfg.initial_state, dtype=np.float64)
        elif cfg.clip_bounds is not None:
            x = np.full(n, (cfg.clip_bounds[0] + cfg.clip_bounds[1]) / 2.0)
        else:
            x = np.full(n, 5.0)
        rows = [x]
        for t in range(cfg.iterations):
            eps = fresh_generator(cfg.base_seed, i, t + 1).standard_normal(n)
            x = x + (A @ x + b) * cfg.dt + (S @ eps) * np.sqrt(cfg.dt)
            if cfg.clip_bounds is not None:
                x = np.clip(x, cfg.clip_bounds[0], cfg.clip_bounds[1])
            rows.append(x)
        out.append(np.stack(rows))
    return out


# ---------------------------------------------------------------------------
# JSONL trajectories, one dict and one json call per record
# ---------------------------------------------------------------------------

def reference_records(traj: Trajectory) -> Iterator[dict]:
    """The wire records of one trajectory, one dict per iteration."""
    for t, row in enumerate(traj.values_matrix.tolist()):
        yield {
            "session_id": traj.session_id,
            "strategy": traj.strategy_id,
            "iteration": t,
            "objectives": row,
        }


def reference_dumps(trajectories) -> str:
    """`json.dumps` of every record, each followed by a line feed."""
    return "".join(json.dumps(rec) + "\n"
                   for traj in trajectories for rec in reference_records(traj))


def reference_loads(text: str) -> list[Trajectory]:
    """The JSONL reader as a `json.loads` per line of `str.splitlines`,
    with the same checks and messages as `core.loads_trajectories`."""
    sessions: dict[str, tuple[str, list[list[float]]]] = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            sid = rec["session_id"]
            strategy = rec["strategy"]
            iteration = rec["iteration"]
            objectives = []
            for v in rec["objectives"]:
                if type(v) not in (int, float):
                    raise TypeError(f"objectives must be JSON numbers, got {v!r}")
                objectives.append(float(v))
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise RecordFormatError(f"line {lineno}: malformed record ({exc})") from exc
        if not isinstance(sid, str) or not isinstance(strategy, str):
            raise RecordFormatError(
                f"line {lineno}: session_id and strategy must be strings, "
                f"got {sid!r} and {strategy!r}"
            )
        if type(iteration) is not int:
            raise RecordFormatError(
                f"line {lineno}: iteration must be an integer, got {iteration!r}"
            )
        if sid != current:
            if sid in sessions:
                raise RecordFormatError(f"line {lineno}: session {sid!r} is not contiguous")
            sessions[sid] = (strategy, [])
            current = sid
        first_strategy, rows = sessions[sid]
        if strategy != first_strategy:
            raise RecordFormatError(
                f"line {lineno}: session {sid!r} changes strategy "
                f"{first_strategy!r} -> {strategy!r}"
            )
        if iteration != len(rows):
            raise RecordFormatError(
                f"line {lineno}: session {sid!r} expected iteration {len(rows)}, "
                f"got {iteration} (gap or disorder)"
            )
        rows.append(objectives)
    return [validate_trajectory(Trajectory(sid, strategy, rows))
            for sid, (strategy, rows) in sessions.items()]
