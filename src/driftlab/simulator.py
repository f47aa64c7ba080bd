"""Seeded Euler-Maruyama trajectory generator for affine drift strategies.

One step of the discrete scheme is

    x_next = clip(x + (A x + b) * dt + sigma * sqrt(dt) * eps, SCORE_LOW, SCORE_HIGH)

with eps a standard-normal vector, and the clip to core's score box taken
unless a run turns it off. Noise comes from a counter-based
(Philox) generator keyed by (base_seed, session_index, iteration), so a
session set is bitwise reproducible no matter how the sessions are
scheduled or parallelized.

The draw at tag t of a session is the one numpy's
`Generator(Philox(key, counter=[0, 0, 0, t])).standard_normal(n)` makes:
tag 0 is the init_box start and tag t+1 the noise of step t. Noise does
not depend on the state, so a run computes its draws up front, many rows
per numpy call. Word k of a row is word k % 4 of the Philox4x64-10 block
at counter [k // 4 + 1, 0, 0, t], and each word becomes a normal on the
accept path of numpy's 256-layer ziggurat. A row with a word off that
path (about 1.5% of words) is drawn again by numpy itself, so every row
holds numpy's bytes.

Every step is taken by `_advance`, the one Euler-Maruyama walk, and the
public `em_step` is a one-step `_advance` walk. A walk computes the noise
terms of all its steps as one stacked product, then takes the drift
product and the clip step by step, in one of two ways that give the same
bytes. The sessions of a set are stepped together as numpy rows, with
stacked matrix-vector products that round each row exactly like the lone
`A @ x` of a single session: at thousands of sessions a step costs a few
numpy calls for all of them. One session (`simulate_session`, a
one-session set, every controlled run and `em_step`) is stepped on Python
floats, where six numpy calls on one short row would cost more than the
step's arithmetic: the drift product is the same BLAS product and the
rest the numpy step's IEEE operations in its order, so a session's bytes
do not depend on the set around it. Both ways decide a step they cannot
take by one rule: a walk ends before the first step whose noise term or
new values are not all finite, and the next walk raises NonFinite there.
A walk starts from a finite row, so only an overflow, or an `em_step`
caller's NaN or infinite noise, ends it early. The one clip box is core's
[SCORE_LOW, SCORE_HIGH].

Ships the four built-in strategy presets (EF, SF, FF, AI) as diagonal
drift matrices with zero intercept and a default diffusion of 0.5 * I.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from ._ziggurat import KI_DOUBLE, WI_DOUBLE
from .core import (SCORE_HIGH, SCORE_LOW, DimensionMismatch, NonFinite, SessionSet,
                   StrategySpec, Trajectory, _readonly, _shown, check_finite_positive,
                   check_integer)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Philox4x64-10: the round multipliers and the Weyl increments of the key
# (Random123, as numpy implements it).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10

# Rows of noise per kernel pass: long runs make few passes, and a pass's
# temporaries stay well under 1 MB.
_CHUNK_ROWS = 8192

# The ufunc behind np.clip, called without np.clip's Python wrapper: a step
# clips one short row, where the wrapper costs as much as the step's
# arithmetic. np.maximum then np.minimum is not the same: it can return a
# bound's zero sign where np.clip keeps the state's.
_clip = importlib.import_module(
    "numpy._core.umath" if int(np.__version__.split(".")[0]) >= 2 else "numpy.core.umath"
).clip

_LO32 = np.uint64(0xFFFFFFFF)
_MAG52 = np.uint64((1 << 52) - 1)

# Diagonal drift coefficients of the built-in presets, axis order
# [security, efficiency, functionality].
PRESET_DRIFT_DIAGONALS: dict[str, tuple[float, float, float]] = {
    "EF": (0.0, 0.16, 0.0),
    "SF": (0.08, -0.75, 0.0),
    "FF": (-0.82, -0.88, 0.9),
    "AI": (0.08, 0.08, 0.08),
}

DEFAULT_SIGMA = 0.5


def _philox_key(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two Philox key words that numpy derives from the list
    [seed, _GOLDEN], for each uint64 session seed. For a seed below 2**63
    numpy converts that list through float64, so both words are rounded
    and the seed's low bits are lost (ROADMAP item 7)."""
    k0 = seeds.copy()
    k1 = np.full(len(seeds), _GOLDEN, dtype=np.uint64)
    low = seeds < np.uint64(1 << 63)
    k0[low] = seeds[low].astype(np.float64).astype(np.uint64)
    k1[low] = int(float(_GOLDEN))
    return k0, k1


def _session_keys(base_seed: int, sessions: range) -> tuple[np.ndarray, np.ndarray]:
    """The Philox keys of the given sessions. A session's seed is base_seed
    XOR splitmix64(session_index)."""
    z = np.arange(sessions.start, sessions.stop, dtype=np.uint64) + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return _philox_key(np.uint64(base_seed) ^ z ^ (z >> np.uint64(31)))


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of the 128-bit products m * x, built
    from four 32-bit products."""
    ml, mh = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    xl, xh = x & _LO32, x >> np.uint64(32)
    lh, hl = xl * mh, xh * ml
    mid = ((xl * ml) >> np.uint64(32)) + (lh & _LO32) + (hl & _LO32)
    hi = xh * mh + (lh >> np.uint64(32)) + (hl >> np.uint64(32)) + (mid >> np.uint64(32))
    return hi, x * np.uint64(m)


def _philox_words(k0: np.ndarray, k1: np.ndarray, tags: np.ndarray, n: int) -> np.ndarray:
    """The first n words that a Philox generator keyed (k0[i], k1[i]) at
    counter [0, 0, 0, tags[i]] gives, as row i of a (rows, n) uint64 array.
    The generator steps its counter before each block of four words, so
    word k is word k % 4 of Philox4x64-10 at counter [k // 4 + 1, 0, 0, tag].
    The tag sits in the high counter word, so the draws of distinct tags
    never overlap."""
    blocks = -(-n // 4)
    shape = (len(tags), blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = np.zeros(shape, dtype=np.uint64)
    c3 = np.broadcast_to(tags[:, None], shape)
    k0, k1 = k0[:, None], k1[:, None]
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + np.uint64(_PHILOX_W[0]), k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(len(tags), 4 * blocks)[:, :n]


def _ziggurat(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normals that numpy's ziggurat makes of the uint64 words r on its
    accept path, and where that path accepts: the low byte picks the layer,
    bit 8 is the sign and the next 52 bits are the magnitude."""
    idx = (r & np.uint64(0xFF)).astype(np.intp)
    rabs = (r >> np.uint64(9)) & _MAG52
    x = rabs.astype(np.float64) * WI_DOUBLE[idx]
    np.negative(x, out=x, where=(r & np.uint64(0x100)).astype(bool))
    return x, rabs < KI_DOUBLE[idx]


def _redraw(k0: np.ndarray, k1: np.ndarray, tags: np.ndarray, rows: list[int],
            out: np.ndarray) -> None:
    """Draw the given rows of the C-contiguous float64 array `out` again with
    numpy itself, through one Philox generator whose state is set to each
    row's key and counter [0, 0, 0, tag], with its output buffer empty."""
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # a new generator's: its buffer is empty
    counter, key = state["state"]["counter"], state["state"]["key"]
    for i, tag, a, b in zip(rows, tags[rows].tolist(), k0[rows].tolist(), k1[rows].tolist()):
        counter[3], key[0], key[1] = tag, a, b
        bitgen.state = state
        gen.standard_normal(out=out[i])


def _normal_rows(k0: np.ndarray, k1: np.ndarray, tags: np.ndarray, n: int) -> np.ndarray:
    """Row i of the (rows, n) result is the standard-normal draw at tag
    tags[i] of the session keyed (k0[i], k1[i]). A row with any word off the
    ziggurat's accept path is drawn again by numpy."""
    x, accepted = _ziggurat(_philox_words(k0, k1, tags, n))
    rejected = np.flatnonzero(~accepted.all(axis=1)).tolist()
    if rejected:
        _redraw(k0, k1, tags, rejected, x)
    return x


def _normals(keys: tuple[np.ndarray, np.ndarray], tags: range, n: int) -> np.ndarray:
    """The standard-normal draws of every session at every tag: a
    (len(tags), sessions, n) array whose [s, j] is the draw at tag tags[s]
    of the session with key (keys[0][j], keys[1][j]), computed _CHUNK_ROWS
    rows at a time."""
    sessions = len(keys[0])
    tag = np.arange(tags.start, tags.stop, dtype=np.uint64)
    out = np.empty((len(tag) * sessions, n))
    for lo in range(0, len(out), _CHUNK_ROWS):
        row = np.arange(lo, min(lo + _CHUNK_ROWS, len(out)))
        j = row % sessions
        out[lo:lo + len(row)] = _normal_rows(keys[0][j], keys[1][j], tag[row // sessions], n)
    return out.reshape(len(tag), sessions, n)


def _uniform_starts(keys: tuple[np.ndarray, np.ndarray], low: float, high: float,
                    n: int) -> np.ndarray:
    """The init_box start of each session, a (sessions, n) array: numpy's
    `uniform(low, high, n)` at tag 0, low + (high - low) * u with u the top
    53 bits of a word over 2**53."""
    out = np.empty((len(keys[0]), n))
    for lo in range(0, len(out), _CHUNK_ROWS):
        k0, k1 = keys[0][lo:lo + _CHUNK_ROWS], keys[1][lo:lo + _CHUNK_ROWS]
        r = _philox_words(k0, k1, np.zeros(len(k0), dtype=np.uint64), n)
        out[lo:lo + len(k0)] = low + (high - low) * ((r >> np.uint64(11)) * 2.0**-53)
    return out


def step_noise(base_seed: int, session_index: int, iteration: int, n: int) -> np.ndarray:
    """The standard-normal draw used for step `iteration` of one session.
    For one row numpy's own draw is the quicker path, so this is the
    kernel's fallback alone."""
    check_integer("base_seed", base_seed)
    check_integer("session index", session_index)
    check_integer("iteration", iteration)
    if not 0 <= base_seed <= _MASK64:
        raise ValueError(f"base_seed must be in [0, 2**64), got {_shown(base_seed)}")
    if not 0 <= session_index <= _MASK64:
        raise ValueError(f"session index must be in [0, 2**64), got {_shown(session_index)}")
    if not 0 <= iteration < _MASK64:
        raise ValueError(f"iteration must be in [0, 2**64 - 1), got {_shown(iteration)}")
    k0, k1 = _session_keys(base_seed, range(session_index, session_index + 1))
    out = np.empty((1, n))
    _redraw(k0, k1, np.array([iteration + 1], dtype=np.uint64), [0], out)
    return out[0]


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

    A session starts at the centre of the score box [SCORE_LOW, SCORE_HIGH],
    or, when init_box is given as (low, high) with a finite width, at its
    own uniform draw in that box. dt must be finite and > 0.
    clip False turns the clip to the score box off; with it on, init_box
    must lie inside the score box. base_seed is a 64-bit unsigned integer,
    and sessions and iterations are integers: a float or a bool raises
    TypeError, and a numpy integer counts as its value. The run's states,
    sessions x (iterations + 1) x n float64 values, must fit in the byte
    range of one numpy array; simulating a run that fits that range but
    not in memory raises MemoryError. A simulated step whose arithmetic
    overflows or turns invalid before the clip raises NonFinite, so no
    infinite state is clipped into the box.
    """

    strategy: StrategySpec
    sessions: int = 1
    iterations: int = 1
    dt: float = 1.0
    base_seed: int = 0
    clip: bool = True
    init_box: tuple[float, float] | None = None

    def __post_init__(self):
        check_integer("sessions", self.sessions)
        check_integer("iterations", self.iterations)
        check_integer("base_seed", self.base_seed)
        if self.sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {_shown(self.sessions)}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {_shown(self.iterations)}")
        size = int(self.sessions) * (int(self.iterations) + 1) * self.strategy.dimension * 8
        if size > np.iinfo(np.intp).max:
            raise ValueError(
                f"{_shown(self.sessions)} session(s) x {_shown(self.iterations + 1)} states"
                f" x {self.strategy.dimension} float64 values need {_shown(size)} bytes, "
                f"more than one array can hold"
            )
        check_finite_positive("dt", self.dt)
        if not 0 <= self.base_seed <= _MASK64:
            raise ValueError(f"base_seed must be in [0, 2**64), got {_shown(self.base_seed)}")
        if self.init_box is not None:
            low, high = self.init_box
            # the start draw is low + (high - low) * u, so the width must be finite too
            if not (math.isfinite(high - low) and low <= high):
                raise ValueError(
                    f"init_box must be finite with low <= high and a finite width, "
                    f"got {self.init_box}"
                )
            if self.clip and not SCORE_LOW <= low <= high <= SCORE_HIGH:
                raise ValueError(
                    f"init_box {self.init_box} lies outside clip bounds {(SCORE_LOW, SCORE_HIGH)}"
                )


def _state(strategy: StrategySpec, x: np.ndarray) -> np.ndarray:
    """x as a float64 state of the strategy's width; DimensionMismatch else."""
    xv = np.asarray(x, dtype=np.float64)
    if xv.shape != (strategy.dimension,):
        raise DimensionMismatch(
            f"state shape {xv.shape} != strategy dimension ({strategy.dimension},)"
        )
    return xv


def drift(strategy: StrategySpec, x: np.ndarray) -> np.ndarray:
    """Deterministic instantaneous change A x + b."""
    return strategy.drift_matrix @ _state(strategy, x) + strategy.drift_intercept


def em_step(
    x: np.ndarray,
    strategy: StrategySpec,
    dt: float,
    noise: np.ndarray,
    clip: bool = True,
) -> np.ndarray:
    """One Euler-Maruyama step, a one-step `_advance` walk. Noise is supplied
    by the caller (determinism), dt must be finite and > 0 as
    `SimConfig.dt` must, and `clip`, like `SimConfig.clip`, clips the step
    to the score box.

    A state with a non-finite component raises NonFinite before the step.
    A step that overflows, or whose noise is not finite, raises NonFinite
    as a run's step 0 does."""
    xv = _state(strategy, x)
    if not np.isfinite(xv).all():
        raise NonFinite(f"state {xv.tolist()} has non-finite entries")
    eps = np.asarray(noise, dtype=np.float64)
    if eps.shape != xv.shape:
        raise DimensionMismatch(f"noise shape {eps.shape} != state shape {xv.shape}")
    check_finite_positive("dt", dt)
    X = np.empty((2, len(xv)))
    X[0] = xv
    _advance(X, 0, 1, strategy, dt, eps[None], clip)
    return X[1]


def _matvec(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for every row x of X, shape (n,) or (N, n). The stacked product
    rounds each row exactly like a lone `M @ x`; `X @ M.T` does not."""
    return (M @ X[..., None])[..., 0]


def _start(cfg: SimConfig, session_indices: range, n: int) -> tuple[np.ndarray, tuple]:
    """The (T+1, N, n) states of a run of the given sessions at width n, with
    row 0 set to their starts, and the sessions' keys. The states are
    allocated before any noise is drawn, so a run too large for memory fails
    at once with MemoryError."""
    X = np.empty((cfg.iterations + 1, len(session_indices), n))
    keys = _session_keys(cfg.base_seed, session_indices)
    if cfg.init_box is not None:
        X[0] = _uniform_starts(keys, *cfg.init_box, n)
    else:
        X[0] = (SCORE_LOW + SCORE_HIGH) / 2.0
    return X, keys


def _noise_terms(S: np.ndarray, eps: np.ndarray, root_dt: float) -> np.ndarray:
    """The diffusion term `_matvec(S, e) * root_dt` of every row e of eps, as
    one stacked product, up to the first row whose term is not finite: an
    overflow, or a caller's NaN or infinite noise. A walk ends before that
    row's step."""
    with np.errstate(over="ignore", invalid="ignore"):
        shock = _matvec(S, eps) * root_dt
    finite = np.isfinite(shock).all(axis=tuple(range(1, shock.ndim)))
    return shock if finite.all() else shock[:finite.argmin()]


def _advance(X: np.ndarray, t: int, stop: int, strategy: StrategySpec, dt: float,
             eps: np.ndarray, clip: bool) -> int:
    """Take steps t .. stop-1 of X, X[s + 1] from X[s] and the noise eps[s - t],
    and return stop. X holds one session's (T+1, n) states or a set's
    (T+1, N, n), and row t is finite. The noise terms of all these steps are
    one stacked product; the drift product and, when `clip` is true, the
    clip to the score box are taken step by step, on Python floats for one
    session (`_float_steps`) and as stacked rows for a set (`_row_steps`).

    The walk ends before the first step whose noise term or new values are
    not all finite: with finite noise, the step whose arithmetic overflows
    before the clip. It raises NonFinite naming it if it is step t; a later
    one is left untaken and returned, so that the next walk starts there
    and raises."""
    shock = _noise_terms(strategy.diffusion, eps[:stop - t], np.sqrt(dt))
    walk = _float_steps if X.ndim == 2 else _row_steps
    with np.errstate(over="raise", invalid="raise"):
        stop = walk(X, t, t + len(shock), strategy, dt, shock, clip)
    if stop == t:
        raise NonFinite(f"step {t} gives a non-finite state")
    return stop


def _row_steps(X: np.ndarray, t: int, stop: int, strategy: StrategySpec, dt: float,
               shock: np.ndarray, clip: bool) -> int:
    """Take steps t .. stop-1 of a set's (T+1, N, n) states with numpy, each
    step on all the set's rows, and return stop, or the first step whose
    arithmetic raises FloatingPointError, untaken."""
    A, b = strategy.drift_matrix, strategy.drift_intercept
    for s in range(t, stop):
        x = X[s]
        try:
            nxt = x + (_matvec(A, x) + b) * dt + shock[s - t]
        except FloatingPointError:
            return s
        if clip:
            _clip(nxt, SCORE_LOW, SCORE_HIGH, out=X[s + 1])
        else:
            X[s + 1] = nxt
    return stop


def _float_steps(X: np.ndarray, t: int, stop: int, strategy: StrategySpec, dt: float,
                 shock: np.ndarray, clip: bool) -> int:
    """Take steps t .. stop-1 of one session's (T+1, n) states on Python
    floats, writing each row as it is taken, and return stop, or the first
    step whose drift product raises FloatingPointError or whose values are
    not all finite, untaken.

    For one row, six numpy calls cost more than the step's arithmetic. The
    drift product stays `A.dot(x)`, the BLAS product that rounds like
    `_matvec` (a Python sum of products does not: the kernel fuses
    multiply-adds); the rest is `_row_steps`' IEEE operations in its
    order, and the clip keeps a -0.0 state as np.clip does. Python floats
    overflow silently, to a value that is not finite, so a step is
    untakeable exactly where `_row_steps` raises."""
    dot, b, h = strategy.drift_matrix.dot, strategy.drift_intercept.tolist(), float(dt)
    lo, hi = SCORE_LOW, SCORE_HIGH
    x = X[t].tolist()
    for s, (row, e) in enumerate(zip(X[t:stop], shock), t):
        try:
            ax = dot(row).tolist()
        except FloatingPointError:
            return s
        nxt = [v + (a + c) * h + w for v, a, c, w in zip(x, ax, b, e.tolist())]
        # a sum of finite values may overflow, so only then look at each
        if not math.isfinite(sum(nxt)) and not all(map(math.isfinite, nxt)):
            return s
        if clip:
            nxt = [lo if v < lo else hi if v > hi else v for v in nxt]
        X[s + 1] = x = nxt
    return stop


def _simulate(cfg: SimConfig, session_indices: range) -> np.ndarray:
    """Iterates of the given sessions, stepped together: a (T+1, N, n) array
    whose [:, j] is session session_indices[j]. The noise is drawn for
    _CHUNK_ROWS rows (or one step) at a time, ahead of the walk that uses it.
    """
    n = cfg.strategy.dimension
    X, keys = _start(cfg, session_indices, n)
    # one session is walked as its (T+1, n) states, on Python floats
    states = X[:, 0] if len(session_indices) == 1 else X
    ahead = max(1, _CHUNK_ROWS // len(session_indices))
    t = 0
    while t < cfg.iterations:
        stop = min(t + ahead, cfg.iterations)
        eps = _normals(keys, range(t + 1, stop + 1), n).reshape((-1,) + states.shape[1:])
        t = _advance(states, t, stop, cfg.strategy, cfg.dt, eps, cfg.clip)
    return X


def session_label(session_index: int) -> str:
    return f"s{session_index:03d}"


def simulate_session(cfg: SimConfig, session_index: int) -> Trajectory:
    """Generate one session; fully determined by (base_seed, session_index)."""
    check_integer("session index", session_index)
    if not 0 <= session_index < cfg.sessions:
        raise ValueError(f"session index {session_index} outside [0, {cfg.sessions})")
    X = _simulate(cfg, range(session_index, session_index + 1))
    return Trajectory._view(session_label(session_index), cfg.strategy.id, _readonly(X[:, 0]))


def simulate_set(cfg: SimConfig) -> SessionSet:
    """All sessions of a config, assembled in session-index order: the walk's
    (T+1, N, n) states become the set's session-major rows in one
    transposing copy, finite as the walk took them."""
    X = _simulate(cfg, range(cfg.sessions))
    T1, N, n = X.shape
    return SessionSet._of_rows(cfg.strategy.id, [session_label(i) for i in range(N)],
                               X.transpose(1, 0, 2).reshape(N * T1, n),
                               np.arange(0, N * T1 + 1, T1))
