"""Shared domain types, validation, and deterministic serialization.

Everything downstream (simulation, estimation, spectral analysis, Pareto
reports, control loops) speaks in the types defined here. All types are
immutable after construction and safe to share across threads; the
operations are pure functions.

A state, one point of the n-dimensional objective space (n >= 2), is a
plain float64 array; there is no per-point type. A trajectory is one
read-only (T+1, n) float64 matrix; a `SessionSet` holds its sessions'
rows on one read-only (rows, n) array, each trajectory a view of it, and
step pooling, equilibria and Pareto efficiencies read that array. Shape
and finiteness are checked once, where data enters: by `Trajectory` for
outside input (API callers, the per-line JSONL reader, `score` manifests),
by the simulator's walk, which takes no step to a non-finite state, and by
the writer-form JSONL reader's score-box check, which rejects infinities.

Score bounds (the 0-10 scale) are enforced once, at the ingestion
boundary (`validate_trajectory` / the JSONL reader, both by the one rule
`_outside_box`), never re-checked in hot loops. Generated data with
clipping disabled may legitimately leave the box and still flow through
the estimation pipeline.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import re
import threading
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property, partial
from itertools import accumulate, chain, groupby, repeat
from json.encoder import encode_basestring_ascii as _encode_str  # json.dumps of a str
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

SCORE_LOW = 0.0
SCORE_HIGH = 10.0


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class DomainError(Exception):
    """Base class for all validation and analysis errors in this package."""


class DimensionMismatch(DomainError):
    pass


class OutOfRangeScore(DomainError):
    pass


class TooShort(DomainError):
    pass


class InsufficientData(DomainError):
    pass


class RankDeficientDesign(DomainError):
    pass


class DegenerateVariance(DomainError):
    """A required variance is zero; `dimension` names the offending axis."""

    def __init__(self, message: str, dimension: int | None = None):
        super().__init__(message)
        self.dimension = dimension


class TailTooLong(DomainError):
    pass


class InvalidExpectedLength(DomainError):
    pass


class NonSquare(DomainError):
    pass


class NonFinite(DomainError):
    pass


class RecordFormatError(DomainError):
    """Raised by the JSONL reader on malformed, gapped, or split sessions."""


def check_finite_positive(name: str, value: float) -> None:
    """Raise ValueError, naming the value, unless it is finite and > 0."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def is_integer(value) -> bool:
    """Whether value is an integer, a numpy integer among them, and not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def check_integer(name: str, value) -> None:
    """Raise TypeError, naming the value, unless `is_integer(value)`."""
    if not is_integer(value):
        raise TypeError(f"{name} must be an integer, got {_shown(value)}")


# An error line shows at most this many characters of a value it echoes.
_SHOWN_CHARS = 40


def _shown(value) -> str:
    """A value as an error line shows it: its repr, with a str cut after
    _SHOWN_CHARS characters, and the repr of any other value cut after as
    many."""
    if isinstance(value, str):
        if len(value) <= _SHOWN_CHARS:
            return repr(value)
        return f"{value[:_SHOWN_CHARS]!r}... ({len(value)} characters)"
    text = repr(value)
    if len(text) <= _SHOWN_CHARS:
        return text
    return f"{text[:_SHOWN_CHARS]}... ({len(text)} characters)"


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered iterates of one session: row t of `values_matrix` is iteration t.

    The ids are str and the data is a single read-only (T+1, n) float64
    matrix with n >= 2 and finite entries, checked here; any point count
    is accepted so that `validate_trajectory` alone decides on length and
    score range.
    """

    session_id: str
    strategy_id: str
    values_matrix: np.ndarray

    def __init__(self, session_id: str, strategy_id: str,
                 points: np.ndarray | Iterable[Sequence[float]]):
        if not (isinstance(session_id, str) and isinstance(strategy_id, str)):
            raise TypeError(
                f"session_id and strategy_id must be str, "
                f"got {_shown(session_id)} and {_shown(strategy_id)}"
            )
        if not isinstance(points, np.ndarray):
            points = list(points)
        try:
            m = np.array(points, dtype=np.float64)
        except ValueError:
            dims = sorted({np.shape(p) for p in points})
            if len(dims) > 1:
                raise DimensionMismatch(
                    f"trajectory {_shown(session_id)} mixes point shapes {_shown(dims)}"
                ) from None
            raise
        if m.ndim != 2 or m.shape[1] < 2:
            raise DimensionMismatch(
                f"trajectory {_shown(session_id)} must be a (T+1, n) matrix with n >= 2, "
                f"got shape {m.shape}"
            )
        if not np.all(np.isfinite(m)):
            raise NonFinite(f"trajectory {_shown(session_id)} has non-finite values")
        object.__setattr__(self, "session_id", session_id)
        object.__setattr__(self, "strategy_id", strategy_id)
        object.__setattr__(self, "values_matrix", _readonly(m))

    @classmethod
    def _view(cls, session_id: str, strategy_id: str, m: np.ndarray) -> "Trajectory":
        """A trajectory over m itself: a read-only (T+1, n) float64 matrix
        with n >= 2 that was already checked as `__init__` checks. Nothing
        is copied or checked again."""
        traj = object.__new__(cls)
        traj.__dict__.update(session_id=session_id, strategy_id=strategy_id, values_matrix=m)
        return traj

    def __len__(self) -> int:
        return self.values_matrix.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (self.session_id == other.session_id
                and self.strategy_id == other.strategy_id
                and np.array_equal(self.values_matrix, other.values_matrix))

    @property
    def dimension(self) -> int:
        return self.values_matrix.shape[1]

    @property
    def points(self) -> tuple[np.ndarray, ...]:
        """The read-only rows of `values_matrix`, one per iteration."""
        return tuple(self.values_matrix)


@dataclass(frozen=True, eq=False)
class SessionSet:
    """All trajectories collected under one strategy, with a fixed dimension.

    The sessions' rows are held on one read-only (rows, n) float64 array,
    `values_matrix`: session i, `session_ids[i]`, is rows offsets[i] to
    offsets[i + 1], in session order. `trajectories`, a view of each
    session's rows, is built on first use. The constructor concatenates its
    trajectories' matrices once.
    """

    strategy_id: str
    session_ids: tuple[str, ...]
    dimension: int
    values_matrix: np.ndarray
    offsets: np.ndarray

    def __init__(self, strategy_id: str, trajectories: Iterable[Trajectory]):
        trajs = tuple(trajectories)
        if not trajs:
            raise InsufficientData("session set must contain at least one trajectory")
        mats = [t.values_matrix for t in trajs]
        dims = {m.shape[1] for m in mats}
        if len(dims) != 1:
            raise DimensionMismatch(f"session set mixes dimensions {_shown(sorted(dims))}")
        bad = [t.session_id for t in trajs if t.strategy_id != strategy_id]
        if bad:
            raise DomainError(
                f"sessions {_shown(bad)} do not belong to strategy {_shown(strategy_id)}"
            )
        offsets = np.zeros(len(mats) + 1, dtype=np.intp)
        np.cumsum(list(map(len, mats)), out=offsets[1:])
        self._hold(strategy_id, [t.session_id for t in trajs], np.concatenate(mats), offsets)

    @classmethod
    def _of_rows(cls, strategy_id: str, session_ids: Sequence[str], rows: np.ndarray,
                 offsets: np.ndarray) -> "SessionSet":
        """The set of rows, a finite (rows, n) float64 array with n >= 2 that
        the set takes over, whose session i is session_ids[i] over rows
        offsets[i] to offsets[i + 1]. Like `Trajectory._view`, it checks
        nothing: the caller guarantees the rows, as the simulator's walk
        does."""
        data = object.__new__(cls)
        data._hold(strategy_id, session_ids, rows, offsets)
        return data

    def _hold(self, strategy_id: str, session_ids: Sequence[str], rows: np.ndarray,
              offsets: np.ndarray) -> None:
        """Own rows, read-only from now on."""
        self.__dict__.update(strategy_id=strategy_id, session_ids=tuple(session_ids),
                             dimension=rows.shape[1], values_matrix=_readonly(rows),
                             offsets=_readonly(offsets))

    @cached_property
    def trajectories(self) -> tuple[Trajectory, ...]:
        bounds = self.offsets.tolist()
        return tuple(Trajectory._view(sid, self.strategy_id, self.values_matrix[first:stop])
                     for sid, first, stop in zip(self.session_ids, bounds, bounds[1:]))

    def __len__(self) -> int:
        return len(self.session_ids)

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self.trajectories)

    @cached_property
    def _pooled_steps(self) -> tuple[np.ndarray, np.ndarray]:
        m = self.values_matrix
        # row r starts a step unless it is the last row of its session,
        # that is, unless r + 1 is where a session stops
        step = np.ones(len(m) + 1, dtype=bool)
        step[self.offsets[1:]] = False
        step = step[1:]
        with np.errstate(over="ignore", invalid="ignore"):  # each user rejects a non-finite delta
            deltas = np.diff(m, axis=0)
        return (_readonly(m.compress(step, axis=0)),
                _readonly(deltas.compress(step[:-1], axis=0)))


@dataclass(frozen=True, eq=False)
class StrategySpec:
    """Affine drift plus constant diffusion: mu(x) = A x + b, noise scale sigma.

    The id is a str and the state has n >= 2 objectives, as a `Trajectory`
    of the strategy must.
    """

    id: str
    drift_matrix: np.ndarray
    drift_intercept: np.ndarray
    diffusion: np.ndarray

    def __init__(self, id: str, drift_matrix, drift_intercept, diffusion):
        if not isinstance(id, str):
            raise TypeError(f"strategy id must be str, got {_shown(id)}")
        A = np.array(drift_matrix, dtype=np.float64)
        b = np.array(drift_intercept, dtype=np.float64)
        S = np.array(diffusion, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise NonSquare(f"drift matrix must be square, got shape {A.shape}")
        n = A.shape[0]
        if n < 2:
            raise DimensionMismatch(f"strategy must have n >= 2 objectives, got {n}")
        if S.shape != (n, n):
            raise DimensionMismatch(f"diffusion shape {S.shape} != ({n}, {n})")
        if b.shape != (n,):
            raise DimensionMismatch(f"intercept shape {b.shape} != ({n},)")
        for name, arr in (("drift_matrix", A), ("drift_intercept", b), ("diffusion", S)):
            if not np.all(np.isfinite(arr)):
                raise NonFinite(f"{name} has non-finite entries")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "drift_matrix", _readonly(A))
        object.__setattr__(self, "drift_intercept", _readonly(b))
        object.__setattr__(self, "diffusion", _readonly(S))

    @property
    def dimension(self) -> int:
        return self.drift_matrix.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, StrategySpec):
            return NotImplemented
        return (self.id == other.id
                and np.array_equal(self.drift_matrix, other.drift_matrix)
                and np.array_equal(self.drift_intercept, other.drift_intercept)
                and np.array_equal(self.diffusion, other.diffusion))

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "drift_matrix": [[float(v) for v in row] for row in self.drift_matrix],
            "drift_intercept": [float(v) for v in self.drift_intercept],
            "diffusion": [[float(v) for v in row] for row in self.diffusion],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "StrategySpec":
        """The strategy of JSON data; each array entry must be a JSON number."""
        todo = [d["drift_matrix"], d["drift_intercept"], d["diffusion"]]
        while todo:
            value = todo.pop()
            if isinstance(value, list):
                todo.extend(value)
            elif type(value) not in _JSON_NUMBERS:
                raise TypeError(f"strategy entries must be JSON numbers, got {_shown(value)}")
        return cls(d["id"], d["drift_matrix"], d["drift_intercept"], d["diffusion"])


@dataclass(frozen=True, eq=False)
class DriftModel:
    """Fitted local affine drift: delta ~ A_hat x + b_hat, residual cov sigma_hat."""

    A_hat: np.ndarray
    b_hat: np.ndarray
    sigma_hat: np.ndarray
    sample_count: int

    def __init__(self, A_hat, b_hat, sigma_hat, sample_count: int):
        A = np.array(A_hat, dtype=np.float64)
        b = np.array(b_hat, dtype=np.float64)
        S = np.array(sigma_hat, dtype=np.float64)
        n = A.shape[0] if A.ndim else 0
        if A.shape != (n, n) or S.shape != (n, n) or b.shape != (n,):
            raise DimensionMismatch(
                f"inconsistent shapes A{A.shape} b{b.shape} sigma{S.shape}"
            )
        if not np.allclose(S, S.T, atol=1e-12):
            raise DomainError("sigma_hat must be symmetric")
        if np.min(np.linalg.eigvalsh((S + S.T) / 2.0)) < -1e-10:
            raise DomainError("sigma_hat must be positive semi-definite")
        if sample_count < n + 1:
            raise InsufficientData(
                f"sample_count {sample_count} < n+1 = {n + 1}: regression unsolvable"
            )
        object.__setattr__(self, "A_hat", _readonly(A))
        object.__setattr__(self, "b_hat", _readonly(b))
        object.__setattr__(self, "sigma_hat", _readonly(S))
        object.__setattr__(self, "sample_count", int(sample_count))

    def predict(self, states: np.ndarray) -> np.ndarray:
        """One-step delta predictions for an (N, n) state matrix."""
        return states @ self.A_hat.T + self.b_hat


@dataclass(frozen=True, eq=False)
class InterferenceMatrix:
    """Zero-diagonal symmetric matrix of cross-objective step-change correlations."""

    entries: np.ndarray

    def __init__(self, entries):
        E = np.array(entries, dtype=np.float64)
        if E.ndim != 2 or E.shape[0] != E.shape[1]:
            raise NonSquare(f"interference matrix must be square, got {E.shape}")
        if not np.all(np.isfinite(E)):
            raise NonFinite("interference matrix has non-finite entries")
        if np.any(np.diag(E) != 0.0):
            raise DomainError("interference diagonal must be exactly zero")
        if not np.array_equal(E, E.T):
            raise DomainError("interference matrix must be symmetric")
        if np.any(np.abs(E) > 1.0):
            raise DomainError("interference entries must lie in [-1, 1]")
        object.__setattr__(self, "entries", _readonly(E))

    def __getitem__(self, ij: tuple[int, int]) -> float:
        return float(self.entries[ij])


class Regime(Enum):
    EXPONENTIAL = "Exponential"
    OSCILLATORY = "Oscillatory"
    BOUNDARY = "Boundary"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue analysis verdict for one drift matrix.

    `discrete_eigenvalues[i]` is always 1 + eigenvalues[i] * dt, computed
    exactly from the continuous spectrum (never re-decomposed).
    """

    eigenvalues: tuple[complex, ...]
    discrete_eigenvalues: tuple[complex, ...]
    convergence_rate: float
    regime: Regime
    discrete_stable: bool


@dataclass(frozen=True)
class PredictionReport:
    """Pooled and per-dimension one-step R-squared for a fitted drift model."""

    r_squared: float
    per_dimension_r_squared: tuple[float, ...]
    step_count: int


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _outside_box(m: np.ndarray) -> np.ndarray:
    """Mask over the rows of m: True where a component lies outside
    [SCORE_LOW, SCORE_HIGH] (an infinite one does; NaN does not)."""
    return np.any((m < SCORE_LOW) | (m > SCORE_HIGH), axis=1)


def validate_trajectory(raw: Trajectory) -> Trajectory:
    """Accept a trajectory iff every invariant holds; normalize nothing.

    Shape and finiteness already hold by construction.

    Raises:
        TooShort: fewer than 2 points (no step change exists).
        OutOfRangeScore: any component outside [0, 10]; the message names
            the first offending iteration and shows its row through `_shown`.
    """
    m = raw.values_matrix
    if len(m) < 2:
        raise TooShort(
            f"trajectory {_shown(raw.session_id)} has {len(m)} point(s); need >= 2"
        )
    outside = _outside_box(m)
    if outside.any():
        t = int(np.argmax(outside))
        raise OutOfRangeScore(
            f"trajectory {_shown(raw.session_id)} iteration {t}: "
            f"{_shown(m[t].tolist())} outside [{SCORE_LOW}, {SCORE_HIGH}]"
        )
    return raw


def pooled_step_matrix(data: SessionSet) -> tuple[np.ndarray, np.ndarray]:
    """Pool step changes across all sessions of a strategy, in session order.

    Returns read-only (states, deltas), each shaped (total_steps, n). The
    pair is built on the first call for a `SessionSet` and shared by every
    later call.
    """
    return data._pooled_steps


# ---------------------------------------------------------------------------
# Work shared among forked processes
# ---------------------------------------------------------------------------

def _fork_map(fn: Callable, split: Callable[[int], list], size: int, cut: int) -> list:
    """`[fn(share) for share in split(k)]`, the k processes sharing the work.

    k is the number of CPUs this process may run on, or 1: without
    `os.fork`, when the job's `size` is below the stage's `cut`, or while
    another Python thread runs (a child holds no copy of it, so a library
    caller's threads never see a fork). `split(k)` gives 1 to k shares.
    This process runs share 0 and one forked child each other share. A
    child writes its result pickled to a pipe and leaves by `os._exit`,
    so it never flushes this process's stdio; this process reads every
    pipe and reaps every child before it returns or raises. A share whose
    result did not come back (no child could be made, the child died, or
    `fn` raised in it) is run again here, so its error is raised here.
    `fn` must call no BLAS routine: a child holds no copy of OpenBLAS's
    threads.
    """
    k = 1
    if hasattr(os, "fork") and size >= cut and threading.active_count() == 1:
        k = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    shares = split(k)
    results = {}
    children = []
    try:
        for j in range(1, len(shares)):
            try:
                pipe, out = os.pipe()
            except OSError:
                continue
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns that a child forked beside threads
                    # (OpenBLAS's here) may deadlock; no child calls BLAS.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(pipe)
                os.close(out)
                continue
            if pid == 0:  # the child: never return
                try:
                    os.close(pipe)
                    with open(out, "wb") as f:
                        f.write(pickle.dumps(fn(shares[j])))
                finally:
                    os._exit(0)
            os.close(out)
            children.append((j, pid, pipe))
        results[0] = fn(shares[0])
    finally:
        for j, pid, pipe in children:
            try:  # the result is read and unpickled while the child exits
                with open(pipe, "rb") as f:
                    results[j] = pickle.loads(f.read())
            except Exception:  # a child that died before it wrote its result
                pass
            finally:
                os.waitpid(pid, 0)
    return [results[j] if j in results else fn(share) for j, share in enumerate(shares)]


# ---------------------------------------------------------------------------
# Trajectory persistence (JSON Lines, one record per iteration)
# ---------------------------------------------------------------------------

# Rows rendered per group by `dumps_trajectories`. Groups of 1024 or 8192
# rows raised the peak memory of some `simulate` runs by 1-3 MiB; no size
# was quicker.
_GROUP_ROWS = 2048
# Rows below which `dumps_trajectories` writes in one process. On a 2-CPU
# Xeon (rows of 3 numbers, in process, 100 alternating pairs a size) a
# two-way split took 1.06x the one-process time at 4,200 rows and 0.89x at
# 6,300 and 8,400, so it breaks even near 5,000 rows (about 600 KB of
# text); a fork with its reaping costs about 3 ms.
_DUMP_FORK_MIN_ROWS = 8192


def dumps_trajectories(trajectories: Iterable[Trajectory]) -> str:
    """Serialize trajectories to the JSONL wire format (LF-terminated).

    One record per iteration, the bytes `json.dumps` gives for
    `{"session_id": …, "strategy": …, "iteration": t, "objectives": row}`.
    From `_DUMP_FORK_MIN_ROWS` rows on, the sessions are cut into one run
    of whole sessions per CPU, each cut at the session end nearest its
    share of the rows (`_runs`), and the runs are written by `_fork_map`
    and joined in order; one session is one run.
    """
    trajectories = list(trajectories)
    ends = list(accumulate(map(len, trajectories)))  # the rows up to each session's end
    texts = _fork_map(_dumps, partial(_runs, trajectories, ends),
                      ends[-1] if ends else 0, _DUMP_FORK_MIN_ROWS)
    return "".join(texts)


def _runs(items: list, ends: list[int], k: int) -> list[list]:
    """`items` in 1 to k contiguous runs, cut at the item end nearest to
    each j/k of the whole size (the earlier one on a tie); `ends[i]` is the
    size up to the end of item i."""
    if not items:
        return [items]
    cuts = {0, len(items)}
    for j in range(1, k):
        share = j * ends[-1] / k
        i = bisect_left(ends, share)  # the first item that ends at or after it
        cuts.add(i if i and share - ends[i - 1] <= ends[i] - share else i + 1)
    cuts = sorted(cuts)
    return [items[first:stop] for first, stop in zip(cuts, cuts[1:])]


def _dumps(trajectories: list[Trajectory]) -> str:
    """The records of `trajectories`, rendered a group at a time:
    consecutive rows of one width, at most `_GROUP_ROWS` of them, a long
    session split across groups. A group takes one `tolist`, one `repr` of
    that list of rows, which is what `json` writes for finite floats (a
    `Trajectory` holds only finite values), and one join of the row texts
    with each record's head and iteration. The ids are encoded once per
    session."""
    texts = []
    group: list[tuple[str, int, np.ndarray]] = []  # (head, first iteration, rows)
    width = rows = 0
    iterations: list[str] = []  # the text from each iteration to its row
    for traj in trajectories:
        m = traj.values_matrix
        head = (f']}}\n{{"session_id": {_encode_str(traj.session_id)}, '
                f'"strategy": {_encode_str(traj.strategy_id)}, "iteration": ')
        iterations += map('{}, "objectives": ['.format, range(len(iterations), len(m)))
        for first in range(0, len(m), _GROUP_ROWS):
            piece = m[first:first + _GROUP_ROWS]
            if group and (rows + len(piece) > _GROUP_ROWS or m.shape[1] != width):
                texts.append(_render(group, iterations))
                group, rows = [], 0
            group.append((head, first, piece))
            width = m.shape[1]
            rows += len(piece)
    if group:
        texts.append(_render(group, iterations))
    return "".join(texts)


def _render(group: list[tuple[str, int, np.ndarray]], iterations: list[str]) -> str:
    """The records of a group of rows of one width. Each head starts with
    the end of the record before it, which the group's first record drops."""
    rows = repr(np.concatenate([piece for _, _, piece in group]).tolist())[2:-2].split("], [")
    parts = [""] * (3 * len(rows))
    parts[0::3] = chain.from_iterable(repeat(head, len(piece)) for head, _, piece in group)
    parts[1::3] = chain.from_iterable(iterations[first:first + len(piece)]
                                      for _, first, piece in group)
    parts[2::3] = rows
    parts[0] = parts[0][3:]
    parts.append("]}\n")
    return "".join(parts)


_JSON_NUMBERS = (int, float)  # exact types: a JSON true/false is not a score

# One line as `dumps_trajectories` writes it, up to its numbers. An id of
# printable ASCII but `"` and `\` is its own decoded value and holds no
# line break.
# A number is a JSON number with a fraction or an exponent, as `repr` writes
# a float, so `float` of its text is json's value; a JSON integer is not
# (json reads `-0` as the int 0, whose float is +0.0). The grammar is
# deterministic (no part can end where the next one may start), so the
# possessive quantifiers match the same lines as greedy ones, with no
# backtracking.
_NUMBER = r"-?+(?:0|[1-9][0-9]*+)(?:\.[0-9]++(?:[eE][+-]?+[0-9]++)?+|[eE][+-]?+[0-9]++)"
_HEAD = (r'^\{"session_id": "([ !#-\[\]-~]*+)", "strategy": "([ !#-\[\]-~]*+)", '
         r'"iteration": ([0-9]++), "objectives": \[')
# Numbers a row may hold for `_read_writer_form`; wider rows are read one
# line at a time. A pattern costs about 0.15 ms a number to compile and is
# kept (9.6 ms at 64, 1 s at 5,000). On a 2-CPU Xeon, at 64 numbers the
# writer-form read took 0.65x the per-line time of 2,000 rows with its
# pattern compiled, and 1.6x of 4 rows.
_MAX_WIDTH = 64
# Characters matched per step of `_read_span`. Chunks of 128 or 256 KiB
# were slower, and 256 KiB raised the peak memory of `analyze`.
_CHUNK = 1 << 16
# Characters below which `_read_writer_form` reads in one process. On a
# 2-CPU Xeon (in process, 100 alternating pairs a size) a two-way split
# took 1.32x the one-process time at 0.49 MB, 0.96x at 0.74 MB and 0.82x
# at 0.99 MB, so it breaks even near 0.7 MB.
_READ_FORK_MIN_CHARS = 1 << 20
# What only the head of a writer-form line of iteration 0 holds: no id
# holds a quote.
_FIRST_ITERATION = '"iteration": 0, '


@cache
def _writer_line_of_width(width: int) -> re.Pattern:
    """A writer-form line with a row of exactly `width` numbers, each
    number in its own group, compiled on first use."""
    numbers = ", ".join([f"({_NUMBER})"] * width)
    return re.compile(rf"{_HEAD}{numbers}\]\}}$", re.M)


def _read_writer_form(text: str) -> list[Trajectory] | None:
    """The trajectories of a text in the form `dumps_trajectories` writes
    that the per-line reader would accept, else None. Never raises.

    The width is read from the first line's text after its last `[`, and
    must be 2 to `_MAX_WIDTH`. Every line must match the pattern of that
    width (`_writer_line_of_width`) and end in a line feed, every row must
    lie in the score box, and the sessions must be new, contiguous, of one
    strategy and of >= 2 rows with iterations 0, 1, 2, ... A first line
    that does not match turns the text away before any fork. From
    `_READ_FORK_MIN_CHARS` characters on, the text is cut into one span of
    whole lines per CPU, each span after the first starting at the first
    line at or after its share of the text that holds iteration 0;
    `_fork_map` reads the spans (`_read_span`), and the runs of all spans
    are checked here once: no session id in two runs, and no run of fewer
    than 2 rows. A session cut across spans, or repeated after another,
    is two runs and fails that check. The trajectories are views of the
    one read-only array of all the rows: the box check has already
    rejected every infinite value, and no number the pattern takes is NaN.
    """
    if not text.endswith("\n"):
        return None
    end = text.index("\n")  # of the first line
    width = text.count(", ", text.rfind("[", 0, end) + 1, end) + 1
    if not 2 <= width <= _MAX_WIDTH or not _writer_line_of_width(width).match(text):
        return None
    spans = _fork_map(partial(_read_span, text, width), partial(_line_spans, text),
                      len(text), _READ_FORK_MIN_CHARS)
    if any(span is None for span in spans):
        return None
    runs = [run for _, span_runs in spans for run in span_runs]
    if len({sid for sid, _, _ in runs}) < len(runs) or min(rows for _, _, rows in runs) < 2:
        return None
    m = _readonly(np.concatenate([block for blocks, _ in spans for block in blocks]))
    return [Trajectory._view(sid, strategy, m[stop - rows:stop])
            for (sid, strategy, rows), stop in zip(runs, accumulate(rows for _, _, rows in runs))]


def _line_spans(text: str, k: int) -> list[tuple[int, int]]:
    """(start, end) of at most k spans of whole lines that make up `text`
    (which ends in a line feed): each span after the first starts at the
    first line at or after j/k of the text that holds `_FIRST_ITERATION`."""
    cuts = [0]
    for j in range(1, k):
        line = text.find("\n", max(j * len(text) // k, cuts[-1] + 1) - 1) + 1
        at = text.find(_FIRST_ITERATION, line) if line else -1
        if at < 0:
            break
        cuts.append(text.rfind("\n", 0, at) + 1)
    cuts.append(len(text))
    return list(zip(cuts, cuts[1:]))


def _read_span(text: str, width: int, span: tuple[int, int]) -> tuple[list, list] | None:
    """The rows of a span of whole lines of a writer-form text, as blocks
    of a (rows, width) array, and its runs of lines of one session id as
    [session id, strategy, rows]; None unless every line matches the
    pattern of `width` numbers, every row lies in the score box, and each
    run keeps one strategy, with iterations 0, 1, 2, ... The span is
    matched in place one chunk at a time, cut at the first line feed after
    each `_CHUNK` characters; each column of a chunk's numbers becomes
    floats in one `map`, the chunk is checked in one box check, and a run
    may carry on from one chunk into the next."""
    start, stop = span
    findall = _writer_line_of_width(width).findall
    blocks = []
    runs: list[list] = []  # [session id, strategy, rows]
    steps: tuple[str, ...] = ()  # the text of iterations 0, 1, 2, ...
    while start < stop:
        end = text.find("\n", start + _CHUNK, stop) + 1 or stop
        found = findall(text, start, end)
        if len(found) != text.count("\n", start, end):
            return None
        start = end
        sids, strategies, iterations, *columns = zip(*found)
        block = np.empty((len(found), width))
        for j, column in enumerate(columns):
            block[:, j] = np.fromiter(map(float, column), np.float64, len(found))
        if _outside_box(block).any():  # also an overflow to inf; no number is NaN
            return None
        blocks.append(block)
        i = 0
        for sid, group in groupby(sids):
            k = len(list(group))
            if i == 0 and runs and runs[-1][0] == sid:
                run = runs[-1]
            else:
                run = [sid, strategies[i], 0]
                runs.append(run)
            done = run[2]
            if done + k > len(steps):
                steps = tuple(map(str, range(2 * (done + k))))
            if (strategies[i:i + k].count(run[1]) != k
                    or iterations[i:i + k] != steps[done:done + k]):
                return None
            run[2] += k
            i += k
    return blocks, runs


def _not_a_number(value) -> NoReturn:
    raise TypeError(f"objectives must be JSON numbers, got {_shown(value)}")


def _objective_row(value) -> list[float]:
    """A record's objectives as floats; TypeError unless a JSON array of numbers."""
    if type(value) is not list:
        raise TypeError(f"objectives must be a JSON array, got {_shown(value)}")
    return [float(v) if type(v) in _JSON_NUMBERS else _not_a_number(v) for v in value]


def _read_lines(text: str) -> list[Trajectory]:
    """`loads_trajectories`, one of `physical_lines(text)` at a time, each
    decoded by `json.loads(line)`."""
    sessions: dict[str, tuple[str, list[list[float]]]] = {}
    current: str | None = None
    for lineno, line in enumerate(physical_lines(text), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            sid = rec["session_id"]
            strategy = rec["strategy"]
            iteration = rec["iteration"]
            objectives = _objective_row(rec["objectives"])
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise RecordFormatError(f"line {lineno}: malformed record ({exc})") from exc
        if not isinstance(sid, str) or not isinstance(strategy, str):
            raise RecordFormatError(
                f"line {lineno}: session_id and strategy must be strings, "
                f"got {_shown(sid)} and {_shown(strategy)}"
            )
        if type(iteration) is not int:
            raise RecordFormatError(
                f"line {lineno}: iteration must be an integer, got {_shown(iteration)}"
            )
        if sid != current:
            if sid in sessions:
                raise RecordFormatError(
                    f"line {lineno}: session {_shown(sid)} is not contiguous"
                )
            sessions[sid] = (strategy, [])
            current = sid
        first_strategy, rows = sessions[sid]
        if strategy != first_strategy:
            raise RecordFormatError(
                f"line {lineno}: session {_shown(sid)} changes strategy "
                f"{_shown(first_strategy)} -> {_shown(strategy)}"
            )
        if iteration != len(rows):
            raise RecordFormatError(
                f"line {lineno}: session {_shown(sid)} expected iteration {len(rows)}, "
                f"got {_shown(iteration)} (gap or disorder)"
            )
        rows.append(objectives)
    return [validate_trajectory(Trajectory(sid, strategy, rows))
            for sid, (strategy, rows) in sessions.items()]


def loads_trajectories(text: str) -> list[Trajectory]:
    """Parse and validate the JSONL trajectory format.

    Lines are those of `physical_lines`, and each non-blank line must hold
    exactly one record. Sessions must be contiguous blocks with iterations
    0,1,2,... and a single strategy per session; anything else is a
    RecordFormatError that names the line. Every trajectory is held to
    `validate_trajectory`'s rules. An echoed id or value is cut by
    `_shown`.

    Text in the exact form `dumps_trajectories` writes is read whole, a
    span and a chunk at a time (`_read_writer_form`). Any other text, and any text
    that breaks a rule, is read one line at a time (`_read_lines`), so its
    values and error messages are those of a per-line `json.loads`.
    """
    trajectories = _read_writer_form(text)
    return _read_lines(text) if trajectories is None else trajectories


def read_text(path, newline: str | None = None) -> str:
    """The text of a UTF-8 file, read with `open`'s newline mode, without
    one leading BOM. A file that is not UTF-8 raises DomainError naming the
    file and the byte."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as f:
            return f.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def physical_lines(text: str) -> list[str]:
    """The lines of a text as Python reads a decoded source: a line ends at
    "\n", "\r\n" or "\r" only, not at the other characters
    `str.splitlines` breaks at (U+0085, U+2028, ...), which JSON lets stand
    raw inside a string. A leading BOM stays: `read_text` drops a file's."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()  # the line break of the last line, or no text at all
    return lines


def parse_key_values(text: str) -> dict[str, str]:
    """The `key = value` pairs of the `physical_lines` of a text, skipping
    blank and `#` lines. A line without `=`, or a key given twice, raises
    ValueError naming its line; the caller names the file."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(physical_lines(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"line {lineno}: config key {_shown(key)} repeated")
        values[key] = value.strip()
    return values


def read_trajectories(path) -> list[Trajectory]:
    return loads_trajectories(read_text(path))


def group_by_strategy(trajectories: Iterable[Trajectory]) -> dict[str, SessionSet]:
    """Split a mixed trajectory list into one SessionSet per strategy."""
    buckets: dict[str, list[Trajectory]] = {}
    for traj in trajectories:
        buckets.setdefault(traj.strategy_id, []).append(traj)
    return {sid: SessionSet(sid, trajs) for sid, trajs in buckets.items()}
