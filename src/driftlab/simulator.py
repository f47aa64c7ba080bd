"""Seeded Euler-Maruyama trajectory generator for affine drift strategies.

One step of the discrete scheme is

    x_next = clip(x + (A x + b) * dt + sigma * sqrt(dt) * eps, low, high)

with eps a standard-normal vector. Noise comes from a counter-based
(Philox) generator keyed by (base_seed, session_index, iteration), so a
session set is bitwise reproducible no matter how the sessions are
scheduled or parallelized.

A Philox draw is a pure function of (key, counter). Each session therefore
keeps one generator and rewinds its counter before every draw, which gives
the bytes of a generator built afresh for that draw at a fraction of the
cost. All sessions of a set are stepped together, one stacked
matrix-vector product per row, which rounds exactly like the lone `A @ x`
of a single session; `simulate_session` is the same kernel run on
one session, so a session's bytes do not depend on the set around it.

Ships the four built-in strategy presets (EF, SF, FF, AI) as diagonal
drift matrices with zero intercept and a default diffusion of 0.5 * I.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, NonFinite, SessionSet, StrategySpec, Trajectory

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Diagonal drift coefficients of the built-in presets, axis order
# [security, efficiency, functionality].
PRESET_DRIFT_DIAGONALS: dict[str, tuple[float, float, float]] = {
    "EF": (0.0, 0.16, 0.0),
    "SF": (0.08, -0.75, 0.0),
    "FF": (-0.82, -0.88, 0.9),
    "AI": (0.08, 0.08, 0.08),
}

DEFAULT_SIGMA = 0.5


def _splitmix64(z: int) -> int:
    """Stable 64-bit integer hash (splitmix64 finalizer)."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def session_seed(base_seed: int, session_index: int) -> int:
    """Per-session stream seed: base_seed XOR hash(session_index)."""
    return (base_seed & _MASK64) ^ _splitmix64(session_index)


def step_noise(base_seed: int, session_index: int, iteration: int, n: int) -> np.ndarray:
    """The standard-normal draw used for step `iteration` of one session."""
    return _SessionStream(base_seed, session_index).normal(iteration, np.empty(n))


class _SessionStream:
    """One session's noise source: a single Philox generator whose counter
    is rewound to [0, 0, 0, tag] before each draw, with the output buffer
    marked empty. Tag 0 is the init_box draw and tag t+1 the noise of step
    t. The tag sits in the high counter word because a draw consumes the
    low words as it runs, so the draws of distinct tags never overlap."""

    __slots__ = ("_bitgen", "_gen", "_state")

    def __init__(self, base_seed: int, session_index: int):
        # The key is read back from the generator, so every rewound state
        # carries the key words numpy derived from this list.
        self._bitgen = np.random.Philox(key=[session_seed(base_seed, session_index), _GOLDEN])
        self._gen = np.random.Generator(self._bitgen)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64),
                      "key": self._bitgen.state["state"]["key"]},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def _at(self, tag: int) -> np.random.Generator:
        self._state["state"]["counter"][3] = tag
        self._bitgen.state = self._state
        return self._gen

    def normal(self, iteration: int, out: np.ndarray) -> np.ndarray:
        """Fill the float64 vector `out` with the noise of step `iteration`,
        and return it."""
        return self._at(iteration + 1).standard_normal(out=out)

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        """The init_box start draw."""
        return self._at(0).uniform(low, high, size=n)


def preset(strategy_id: str, sigma: float = DEFAULT_SIGMA) -> StrategySpec:
    """One of the built-in strategies with diffusion sigma * I."""
    try:
        diag = PRESET_DRIFT_DIAGONALS[strategy_id]
    except KeyError:
        raise KeyError(
            f"unknown preset {strategy_id!r}; choose from {sorted(PRESET_DRIFT_DIAGONALS)}"
        ) from None
    n = len(diag)
    return StrategySpec(
        id=strategy_id,
        drift_matrix=np.diag(diag),
        drift_intercept=np.zeros(n),
        diffusion=sigma * np.eye(n),
    )


def preset_catalog(sigma: float = DEFAULT_SIGMA) -> dict[str, StrategySpec]:
    return {sid: preset(sid, sigma) for sid in PRESET_DRIFT_DIAGONALS}


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one batch simulation.

    initial_state None means the midpoint of the clip box, [5, ..., 5]
    when clipping is disabled; otherwise it is a finite state vector of the
    strategy's dimension, stored as a tuple of floats. init_box, when given
    as (low, high), overrides it with a per-session uniform draw.
    clip_bounds None disables clipping entirely; otherwise init_box and an
    explicit initial_state must lie inside the clip box. base_seed is a
    64-bit unsigned integer. The run's states, sessions x (iterations + 1)
    x n float64 values, must fit in the byte range of one numpy array;
    simulating a run that fits that range but not in memory raises
    MemoryError. A simulated step whose arithmetic overflows or turns
    invalid before the clip raises NonFinite, so no infinite state is
    clipped into the box.
    """

    strategy: StrategySpec
    sessions: int = 1
    iterations: int = 1
    dt: float = 1.0
    initial_state: tuple[float, ...] | None = None
    base_seed: int = 0
    clip_bounds: tuple[float, float] | None = (0.0, 10.0)
    init_box: tuple[float, float] | None = None

    def __post_init__(self):
        if self.sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {self.sessions}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        size = self.sessions * (self.iterations + 1) * self.strategy.dimension * 8
        if size > np.iinfo(np.intp).max:
            raise ValueError(
                f"{self.sessions} session(s) x {self.iterations + 1} states x "
                f"{self.strategy.dimension} float64 values need {size} bytes, "
                f"more than one array can hold"
            )
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not 0 <= self.base_seed <= _MASK64:
            raise ValueError(f"base_seed must be in [0, 2**64), got {self.base_seed}")
        if self.clip_bounds is not None and not self.clip_bounds[0] < self.clip_bounds[1]:
            raise ValueError(f"clip bounds must satisfy low < high, got {self.clip_bounds}")
        if self.init_box is not None:
            low, high = self.init_box
            if not (math.isfinite(low) and math.isfinite(high) and low <= high):
                raise ValueError(f"init_box must be finite with low <= high, got {self.init_box}")
            if self.clip_bounds is not None \
                    and not self.clip_bounds[0] <= low <= high <= self.clip_bounds[1]:
                raise ValueError(
                    f"init_box {self.init_box} lies outside clip bounds {self.clip_bounds}"
                )
        if self.initial_state is not None:
            x = np.array(self.initial_state, dtype=np.float64)  # a string is a ValueError
            if x.shape != (self.strategy.dimension,):
                raise DimensionMismatch(
                    f"initial state shape {x.shape} != strategy dimension "
                    f"({self.strategy.dimension},)"
                )
            # float64 conversion also takes numeric strings, bytes and bools
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                       for v in self.initial_state):
                raise ValueError(
                    f"initial state entries must be real numbers, got {self.initial_state!r}"
                )
            if not np.all(np.isfinite(x)):
                raise ValueError(f"initial state must be finite, got {x.tolist()}")
            if self.clip_bounds is not None \
                    and not np.all((x >= self.clip_bounds[0]) & (x <= self.clip_bounds[1])):
                raise ValueError(
                    f"initial state {x.tolist()} lies outside clip bounds {self.clip_bounds}"
                )
            object.__setattr__(self, "initial_state", tuple(x.tolist()))


def drift(strategy: StrategySpec, x: np.ndarray) -> np.ndarray:
    """Deterministic instantaneous change A x + b."""
    xv = np.asarray(x, dtype=np.float64)
    if xv.shape != (strategy.dimension,):
        raise DimensionMismatch(
            f"state shape {xv.shape} != strategy dimension ({strategy.dimension},)"
        )
    return strategy.drift_matrix @ xv + strategy.drift_intercept


def em_step(
    x: np.ndarray,
    strategy: StrategySpec,
    dt: float,
    noise: np.ndarray,
    bounds: tuple[float, float] | None = (0.0, 10.0),
) -> np.ndarray:
    """One Euler-Maruyama step. Noise is supplied by the caller (determinism)."""
    xv = np.asarray(x, dtype=np.float64)
    eps = np.asarray(noise, dtype=np.float64)
    if xv.shape != (strategy.dimension,):
        raise DimensionMismatch(
            f"state shape {xv.shape} != strategy dimension ({strategy.dimension},)"
        )
    if eps.shape != xv.shape:
        raise DimensionMismatch(f"noise shape {eps.shape} != state shape {xv.shape}")
    nxt = _step(xv, strategy, dt, eps, bounds)
    if not np.all(np.isfinite(nxt)):
        raise NonFinite(f"step from {xv.tolist()} gives non-finite state {nxt.tolist()}")
    return nxt


def _matvec(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for every row x of X, shape (n,) or (N, n). The stacked product
    rounds each row exactly like a lone `M @ x`; `X @ M.T` does not."""
    return (M @ X[..., None])[..., 0]


def _step(x: np.ndarray, strategy: StrategySpec, dt: float, eps: np.ndarray,
          bounds: tuple[float, float] | None) -> np.ndarray:
    """Unchecked array form of `em_step`, for one state (n,) or a stack of
    states (N, n) with their noise rows."""
    nxt = x + (_matvec(strategy.drift_matrix, x) + strategy.drift_intercept) * dt \
        + _matvec(strategy.diffusion, eps) * np.sqrt(dt)
    if bounds is not None:
        nxt = np.clip(nxt, bounds[0], bounds[1])
    return nxt


def _resolve_initial(cfg: SimConfig, stream: _SessionStream) -> np.ndarray:
    n = cfg.strategy.dimension
    if cfg.init_box is not None:
        low, high = cfg.init_box
        return stream.uniform(low, high, n)
    if cfg.initial_state is not None:
        return np.array(cfg.initial_state)
    if cfg.clip_bounds is not None:
        center = (cfg.clip_bounds[0] + cfg.clip_bounds[1]) / 2.0
    else:
        center = 5.0
    return np.full(n, center)


def _simulate(cfg: SimConfig, session_indices: range) -> np.ndarray:
    """Iterates of the given sessions, stepped together: a (T+1, N, n) array
    whose [:, j] is session session_indices[j].

    The states are allocated before any session stream, so a run too large
    for memory fails at once with MemoryError. A step whose arithmetic
    overflows or turns invalid, before the clip, raises NonFinite naming
    the step.
    """
    n = cfg.strategy.dimension
    X = np.empty((cfg.iterations + 1, len(session_indices), n))
    streams = [_SessionStream(cfg.base_seed, i) for i in session_indices]
    X[0] = [_resolve_initial(cfg, stream) for stream in streams]
    eps = np.empty((len(streams), n))
    with np.errstate(over="raise", invalid="raise"):
        for t in range(cfg.iterations):
            for stream, row in zip(streams, eps):
                stream.normal(t, row)
            try:
                X[t + 1] = _step(X[t], cfg.strategy, cfg.dt, eps, cfg.clip_bounds)
            except FloatingPointError:
                raise NonFinite(f"step {t} gives a non-finite state") from None
    return X


def session_label(session_index: int) -> str:
    return f"s{session_index:03d}"


def simulate_session(cfg: SimConfig, session_index: int) -> Trajectory:
    """Generate one session; fully determined by (base_seed, session_index)."""
    if not 0 <= session_index < cfg.sessions:
        raise ValueError(f"session index {session_index} outside [0, {cfg.sessions})")
    X = _simulate(cfg, range(session_index, session_index + 1))
    return Trajectory(session_label(session_index), cfg.strategy.id, X[:, 0])


def simulate_set(cfg: SimConfig) -> SessionSet:
    """All sessions of a config, assembled in session-index order."""
    X = _simulate(cfg, range(cfg.sessions))
    trajs = [Trajectory(session_label(i), cfg.strategy.id, X[:, i])
             for i in range(cfg.sessions)]
    return SessionSet(cfg.strategy.id, trajs)
