"""Independent oracles used by the test suite.

Each implementation here is deliberately naive and kept separate from
the library code paths it checks: textbook Pearson correlation via fsum
loops, O(T^2) dominance scanning (pair by pair, or one point against all
points), closed-form characteristic-polynomial eigenvalues for n <= 3
(quadratic formula / Cardano), a one-session-at-a-time Euler-Maruyama
loop that builds a fresh Philox generator for every draw, a JSONL writer
and reader that go through one dict and one `json.dumps` / `json.loads`
per record, the step pooling of a session set one session at a time, an
affine fit that checks the design's rank with its own
`np.linalg.matrix_rank` before solving, the controller loop that takes
one step, one window fit, one spectrum and one rule check at a time, the
event writer with one `json.dumps` per event, the scorer's source
cleaner that walks one character at a time, the source scan that runs
every rule pattern on every logical line, and each axis score rebuilt
from its rule hits.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from driftlab import inference, simulator, spectral
from driftlab.controller import (
    EFFICIENCY_AXIS,
    EFFICIENCY_DROP,
    FALLBACK_STRATEGY,
    RATE_CEILING,
    SECURITY_AXIS,
    SECURITY_FLOOR,
    ZERO_MARGIN,
    ControlEvent,
    EventKind,
)
from driftlab.core import (
    DimensionMismatch,
    InsufficientData,
    NonFinite,
    RankDeficientDesign,
    RecordFormatError,
    SCORE_HIGH,
    SCORE_LOW,
    StrategySpec,
    Trajectory,
    _shown,
    validate_trajectory,
)
from driftlab.scorer import (
    _BLOCK_KEYWORDS,
    _CONTROL_FLOW_KEYWORDS,
    _EVAL_EXEC_RE,
    _IMPORT_RE,
    _LOOP_KEYWORDS,
    _MARK,
    _SHELL_TRUE_RE,
    _SPAWN_CONTEXT_RE,
    _SQL_KEYWORD_RE,
    _VALIDATION_RES,
    _WORD_RE,
    ScoreBreakdown,
    SourceScan,
    _axis_score,
    _clean_lines,
    _Literal,
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


def pairwise_non_dominated(points) -> list[bool]:
    """Per point: True when no other point dominates it, checking one point
    at a time against every point in one vectorized comparison. Fast enough
    for sessions of thousands of points, where `brute_non_dominated` is not."""
    P = np.asarray(points, dtype=np.float64)
    return [not np.any(np.all(P >= p, axis=1) & np.any(P > p, axis=1)) for p in P]


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


def unchecked_fit_affine(states, deltas):
    """`inference.fit_affine` without its check that the results are finite.
    Where the fit overflows, fit_affine raises NonFinite, but `fit_windows`
    and the controller, which read A alone, keep the A that `lstsq` gave:
    so does this, with None for b and the residual covariance."""
    try:
        return inference.fit_affine(states, deltas)
    except NonFinite:
        X = np.asarray(states, dtype=np.float64)
        D = np.asarray(deltas, dtype=np.float64)
        if not (np.isfinite(X).all() and np.isfinite(D).all()):
            raise
    theta = inference._solve(inference._design(X), D)
    return theta[:X.shape[1]].T, None, None, len(X)


def reference_fit_windows(rows, window, fit=unchecked_fit_affine):
    """`inference.fit_windows` as one `fit` call per window, in order."""
    m = np.asarray(rows, dtype=np.float64)
    n = m.shape[1]
    full, A, error = [], [], None
    for k in range(len(m) - window):
        w = m[k:k + window + 1]
        try:
            A.append(fit(w[:-1], np.diff(w, axis=0))[0])
            full.append(True)
        except (InsufficientData, RankDeficientDesign):
            full.append(False)
        except Exception as exc:  # what the window raises ends the scan
            error = exc
            break
    return inference.WindowFits(np.array(full, dtype=bool),
                                np.array(A).reshape(-1, n, n), error)


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


def session_seed(base_seed: int, session_index: int) -> int:
    """base_seed XOR splitmix64(session_index), in Python integers."""
    z = (session_index + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (base_seed & _MASK64) ^ ((z ^ (z >> 31)) & _MASK64)


def fresh_generator(base_seed: int, session_index: int, tag: int) -> np.random.Generator:
    """A new Philox generator at counter [0, 0, 0, tag], keyed by the
    session seed base_seed XOR splitmix64(session_index). Tag 0 is the
    start-state draw and tag t+1 the noise of step t."""
    seed = session_seed(base_seed, session_index)
    return np.random.Generator(np.random.Philox(counter=[0, 0, 0, tag], key=[seed, _GOLDEN]))


def start_state(cfg, session_index: int, n: int) -> np.ndarray:
    """The start state of one session of a `SimConfig`: a fresh uniform draw
    in the init_box, or the score-box centre."""
    if cfg.init_box is not None:
        low, high = cfg.init_box
        return fresh_generator(cfg.base_seed, session_index, 0).uniform(low, high, size=n)
    return np.full(n, (SCORE_LOW + SCORE_HIGH) / 2.0)


def sequential_sessions(cfg) -> list[np.ndarray]:
    """The (T+1, n) matrix of every session of a `SimConfig`, each session
    stepped on its own, one row at a time, with plain `A @ x` products."""
    spec = cfg.strategy
    A, b, S = spec.drift_matrix, spec.drift_intercept, spec.diffusion
    n = A.shape[0]
    out = []
    for i in range(cfg.sessions):
        x = start_state(cfg, i, n)
        rows = [x]
        for t in range(cfg.iterations):
            eps = fresh_generator(cfg.base_seed, i, t + 1).standard_normal(n)
            x = x + (A @ x + b) * cfg.dt + (S @ eps) * np.sqrt(cfg.dt)
            if cfg.clip:
                x = np.clip(x, SCORE_LOW, SCORE_HIGH)
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


def reference_pooled_steps(trajectories) -> tuple[np.ndarray, np.ndarray]:
    """The (states, deltas) of `core.pooled_step_matrix`, built one session
    at a time: each session's rows but its last, and its `np.diff`."""
    mats = [traj.values_matrix for traj in trajectories]
    return (np.concatenate([m[:-1] for m in mats]),
            np.concatenate([np.diff(m, axis=0) for m in mats]))


def reference_loads(text: str) -> list[Trajectory]:
    """The JSONL reader as a `json.loads` per line of `_physical_lines`
    (a leading BOM dropped, a line ending at "\n", "\r\n" or "\r"), with
    the same checks and messages as `core.loads_trajectories`, each echoed
    id or value cut by `core._shown`."""
    sessions: dict[str, tuple[str, list[list[float]]]] = {}
    current = None
    for lineno, line in enumerate(_physical_lines(text), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            sid = rec["session_id"]
            strategy = rec["strategy"]
            iteration = rec["iteration"]
            values = rec["objectives"]
            if not isinstance(values, list):
                raise TypeError(f"objectives must be a JSON array, got {_shown(values)}")
            objectives = []
            for v in values:
                if type(v) not in (int, float):
                    raise TypeError(f"objectives must be JSON numbers, got {_shown(v)}")
                objectives.append(float(v))
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
                    f"line {lineno}: session {_shown(sid)} is not contiguous")
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


# ---------------------------------------------------------------------------
# The controller, one step, one window fit and one spectrum at a time
# ---------------------------------------------------------------------------

def reference_window_spectrum(m: np.ndarray, t: int, window: int) -> list[complex] | None:
    """Spectrum of the affine drift fitted on the `window` steps ending at
    iteration t of m, or None before a full window exists or when the
    window regression is unsolvable (too few samples / rank deficient)."""
    if t < window:
        return None
    w = m[t - window:t + 1]
    try:
        A, _b, _sigma, _n = unchecked_fit_affine(w[:-1], np.diff(w, axis=0))
    except (InsufficientData, RankDeficientDesign):
        return None
    return spectral.eigen_spectrum(A)


def _interventions_at(m: np.ndarray, t: int, rate: float | None) -> list[ControlEvent]:
    """The three trigger rules at iteration t of the (T+1, n) matrix m, in
    order: (a) security below SECURITY_FLOOR, (b) efficiency dropping by
    more than EFFICIENCY_DROP of its value at t-1, (c) the windowed local
    convergence rate (None when there is no fit) above RATE_CEILING."""
    events: list[ControlEvent] = []
    sec = float(m[t, SECURITY_AXIS])
    if sec < SECURITY_FLOOR:
        events.append(ControlEvent(t, EventKind.INTERVENTION, "security_floor", sec))
    if t >= 1:
        prev = float(m[t - 1, EFFICIENCY_AXIS])
        cur = float(m[t, EFFICIENCY_AXIS])
        # drops are measured against a positive base
        if prev > 0 and cur < (1.0 - EFFICIENCY_DROP) * prev:
            events.append(ControlEvent(
                t, EventKind.INTERVENTION, "efficiency_drop", 1.0 - cur / prev
            ))
    if rate is not None and rate > RATE_CEILING:
        events.append(ControlEvent(t, EventKind.INTERVENTION, "rate_ceiling", rate))
    return events


def reference_check_interventions(traj: Trajectory, cfg) -> list[ControlEvent]:
    """`controller.check_interventions` with one window fit per iteration."""
    m = traj.values_matrix
    events: list[ControlEvent] = []
    for t in range(len(m)):
        spectrum = reference_window_spectrum(m, t, cfg.window)
        rate = None if spectrum is None else -max(lam.real for lam in spectrum)
        events.extend(_interventions_at(m, t, rate))
    return events


@dataclass
class _LoopState:
    strategy: StrategySpec
    phase_index: int = 0
    phase_iters: int = 0
    had_complex: bool = False
    near_zero: bool = False


def reference_run_controlled(sim, cfg, catalog=None, halt_on_intervention=False):
    """`controller.run_controlled` as the step-by-step loop: draw one step's
    noise, take the step, fit its trailing window, classify the spectrum
    and apply the rules, then the next step. A step whose arithmetic
    overflows raises NonFinite there."""
    cat = simulator.preset_catalog() if catalog is None else dict(catalog)
    schedule = cfg.phase_schedule
    if schedule:
        missing = [p.strategy_id for p in schedule if p.strategy_id not in cat]
        if missing:
            raise KeyError(f"scheduled strategies missing from catalog: {missing}")
    if FALLBACK_STRATEGY not in cat:
        raise KeyError(f"fallback strategy missing from catalog: {FALLBACK_STRATEGY!r}")
    if cfg.window > sim.iterations:
        raise ValueError(
            f"window {cfg.window} > total iterations {sim.iterations}"
        )

    if schedule:
        state = _LoopState(strategy=cat[schedule[0].strategy_id])
    else:
        state = _LoopState(strategy=sim.strategy)

    n = state.strategy.dimension
    m = np.empty((sim.iterations + 1, n))
    m[0] = start_state(sim, 0, n)
    events: list[ControlEvent] = []

    for t in range(sim.iterations):
        if state.strategy.dimension != n:
            raise DimensionMismatch(
                f"strategy {state.strategy.id!r} has dimension "
                f"{state.strategy.dimension}, the run has {n}"
            )
        eps = fresh_generator(sim.base_seed, 0, t + 1).standard_normal(n)
        now = t + 1
        spec = state.strategy
        with np.errstate(over="raise", invalid="raise"):
            try:
                x = m[t] + (spec.drift_matrix @ m[t] + spec.drift_intercept) * sim.dt \
                    + (spec.diffusion @ eps) * np.sqrt(sim.dt)
            except FloatingPointError:
                raise NonFinite(f"step {t} gives a non-finite state") from None
        m[now] = np.clip(x, SCORE_LOW, SCORE_HIGH) if sim.clip else x

        # local spectrum over the trailing window
        spectrum = reference_window_spectrum(m, now, cfg.window)
        report = None
        if spectrum is not None:
            report = spectral.classify_regime(spectrum, sim.dt, spectral.DEFAULT_ZERO_TOL)
        step_events = _interventions_at(
            m, now, None if report is None else report.convergence_rate
        )
        if report is not None:
            # exploration -> exploitation: the local spectrum just lost
            # its complex parts
            has_complex = any(abs(lam.imag) > spectral.DEFAULT_ZERO_TOL
                              for lam in report.eigenvalues)
            if state.had_complex and not has_complex:
                step_events.append(ControlEvent(
                    now, EventKind.EXPLORATION_TO_EXPLOITATION,
                    "local spectrum turned real", report.convergence_rate,
                ))
            state.had_complex = has_complex
            # boundary proximity (edge-triggered)
            min_abs_re = min(abs(lam.real) for lam in report.eigenvalues)
            near = min_abs_re < ZERO_MARGIN
            if near and not state.near_zero:
                detail = "eigenvalue near zero"
                if schedule is None and state.strategy.id != FALLBACK_STRATEGY:
                    detail += f"; switching {state.strategy.id}->{FALLBACK_STRATEGY}"
                    state.strategy = cat[FALLBACK_STRATEGY]
                step_events.append(ControlEvent(
                    now, EventKind.BOUNDARY_AVOID_SWITCH, detail, min_abs_re
                ))
            state.near_zero = near

        intervened = any(e.kind is EventKind.INTERVENTION for e in step_events)

        # phase schedule transitions at min_iters, deferred by interventions
        # but never past max_iters
        if schedule is not None and state.phase_index < len(schedule):
            state.phase_iters += 1
            phase = schedule[state.phase_index]
            at_max = phase.max_iters is not None and state.phase_iters >= phase.max_iters
            due = state.phase_iters >= phase.min_iters
            if due and (at_max or not intervened):
                nxt_index = state.phase_index + 1
                if nxt_index < len(schedule):
                    target = schedule[nxt_index].strategy_id
                    step_events.append(ControlEvent(
                        now, EventKind.PHASE_SWITCH,
                        f"{phase.strategy_id}->{target}", float(state.phase_iters),
                    ))
                    state.strategy = cat[target]
                    state.phase_index = nxt_index
                    state.phase_iters = 0
                elif phase.max_iters is not None:
                    # bounded final phase exhausted
                    if at_max and t < sim.iterations - 1:
                        target = FALLBACK_STRATEGY
                        step_events.append(ControlEvent(
                            now, EventKind.PHASE_SWITCH,
                            f"{phase.strategy_id}->{target} (fallback)",
                            float(state.phase_iters),
                        ))
                        state.strategy = cat[target]
                        state.phase_index = nxt_index
                        state.phase_iters = 0

        events.extend(step_events)
        if halt_on_intervention and intervened:
            break

    traj = Trajectory(simulator.session_label(0), "controlled", m[:now + 1])
    return traj, events


def reference_dumps_events(events) -> str:
    """`controller.dumps_events` with one dict and one `json.dumps` per
    event."""
    return "".join(json.dumps({"iteration": e.iteration, "kind": e.kind.value,
                               "detail": e.detail, "value": e.triggering_value}) + "\n"
                   for e in events)


# ---------------------------------------------------------------------------
# Source cleaner, one character at a time
# ---------------------------------------------------------------------------

def _physical_lines(source: str) -> list[str]:
    """Python's physical lines of source, one character at a time: a
    leading BOM is dropped, and a line ends at "\n", "\r\n" or "\r"."""
    lines: list[str] = []
    line: list[str] = []
    i = 1 if source.startswith("\ufeff") else 0
    while i < len(source):
        ch = source[i]
        i += 1
        if ch == "\r" and source.startswith("\n", i):
            i += 1
        if ch in "\r\n":
            lines.append("".join(line))
            line = []
        else:
            line.append(ch)
    if line:
        lines.append("".join(line))
    return lines


def reference_clean_lines(source: str) -> tuple[list[tuple[int, str, list[_Literal]]], bool, int]:
    """`scorer._clean_lines` one character at a time: split Python's
    physical lines, strip strings and comments, join continuations,
    balance brackets.

    Returns the logical lines, a validity flag covering bracket balance
    and string termination, and the count of non-blank physical lines.
    """
    valid = True
    nonblank = 0
    logical: list[tuple[int, str, list[_Literal]]] = []
    cur_parts: list[str] = []
    cur_literals: list[_Literal] = []
    cur_indent = 0
    open_logical = False       # inside brackets or after a backslash
    triple: str | None = None  # closing delimiter when inside a triple string
    single: str | None = None  # closing quote when inside a one-line string
    literal_buf: list[str] = []
    literal_prefix = ""
    bracket_stack: list[str] = []
    pairs = {")": "(", "]": "[", "}": "{"}

    def flush():
        nonlocal cur_parts, cur_literals, open_logical
        logical.append((cur_indent, "".join(cur_parts), cur_literals))
        cur_parts, cur_literals = [], []
        open_logical = False

    def end_literal():
        nonlocal literal_buf, literal_prefix
        cur_literals.append(_Literal("".join(literal_buf), literal_prefix))
        cur_parts.append(_MARK)
        literal_buf, literal_prefix = [], ""

    for raw in _physical_lines(source):
        line = raw.expandtabs()
        blank = not line.strip()
        nonblank += not blank
        if triple is None and single is None and not open_logical:
            if blank:
                continue
            cur_indent = 0
            for ch in raw:  # CPython's tokenizer: tabs to 8 columns, a form feed back to 0
                if ch == " ":
                    cur_indent += 1
                elif ch == "\t":
                    cur_indent += 8 - cur_indent % 8
                elif ch == "\x0c":
                    cur_indent = 0
                else:
                    break
        i = 0
        backslash_eol = False
        while i < len(line):
            ch = line[i]
            if triple is not None:
                if ch == "\\" and i + 1 < len(line):
                    literal_buf.append(line[i:i + 2])
                    i += 2
                    continue
                if line.startswith(triple, i):
                    i += 3
                    triple = None
                    end_literal()
                    continue
                literal_buf.append(ch)
                i += 1
                continue
            if single is not None:
                if ch == "\\" and i + 1 < len(line):
                    literal_buf.append(line[i:i + 2])
                    i += 2
                    continue
                if ch == single:
                    single = None
                    end_literal()
                    i += 1
                    continue
                literal_buf.append(ch)
                i += 1
                continue
            if ch == "#":
                break
            if ch in "\"'":
                prefix = ""
                while cur_parts and len(prefix) < 3:
                    if not cur_parts[-1]:
                        cur_parts.pop()
                        continue
                    if cur_parts[-1][-1] not in "rbfuRBFU":
                        break
                    prefix = cur_parts[-1][-1] + prefix
                    cur_parts[-1] = cur_parts[-1][:-1]
                literal_prefix = prefix
                if line.startswith(ch * 3, i):
                    triple = ch * 3
                    i += 3
                else:
                    single = ch
                    i += 1
                continue
            if ch in "([{":
                bracket_stack.append(ch)
            elif ch in ")]}":
                if not bracket_stack or bracket_stack[-1] != pairs[ch]:
                    valid = False
                else:
                    bracket_stack.pop()
            elif ch == "\\" and i == len(line) - 1:
                backslash_eol = True
                i += 1
                continue
            # a raw NUL in code must not pass for a literal marker
            cur_parts.append(" " if ch == _MARK else ch)
            i += 1
        if single is not None:
            # string ran off the end of its line: recover, flag invalid
            valid = False
            single = None
            end_literal()
        if triple is not None:
            literal_buf.append("\n")
            open_logical = True
            continue
        if backslash_eol or bracket_stack:
            cur_parts.append(" ")
            open_logical = True
            continue
        flush()
    if triple is not None or single is not None or bracket_stack or open_logical:
        valid = False
        if cur_parts or cur_literals or literal_buf:
            if literal_buf:
                end_literal()
            flush()
    return logical, valid, nonblank


# ---------------------------------------------------------------------------
# Source scan with no gate before the rule patterns
# ---------------------------------------------------------------------------

def _first_word(text: str) -> str:
    m = _WORD_RE.match(text)
    return m.group(0) if m else ""


def reference_scan_source(source: str) -> SourceScan:
    """`scorer.scan_source` with every rule pattern run on every logical
    line: no literal gate before `_EVAL_EXEC_RE`, `_SHELL_TRUE_RE`,
    `_SPAWN_CONTEXT_RE` or the validation patterns. It also keeps the
    older form of the block walk, its signals written to the `SourceScan`
    line by line."""
    logical, valid, nonblank = _clean_lines(source)
    scan = SourceScan(nonblank_lines=nonblank, structurally_valid=valid)

    # Block analysis over logical lines: stack entries are
    # (body_indent, opener_is_loop) for each enclosing block.
    stack: list[tuple[int, bool]] = []
    pending: tuple[int, bool, bool] | None = None  # (opener_indent, is_loop, wants_doc)
    first_statement = True
    for indent, cleaned, literals in logical:
        stripped = cleaned.strip()
        if not stripped:
            continue
        if pending is not None:
            opener_indent, is_loop, wants_doc = pending
            if indent <= opener_indent:
                scan.structurally_valid = False
                pending = None
            else:
                stack.append((indent, is_loop))
                if wants_doc and stripped == _MARK:
                    scan.has_docstring = True
                pending = None
        if pending is None:
            while stack and indent < stack[-1][0]:
                stack.pop()
            level = stack[-1][0] if stack else 0
            if indent != level:
                scan.structurally_valid = False
        depth = len(stack)
        scan.max_depth = max(scan.max_depth, depth)
        if first_statement:
            if stripped == _MARK:
                scan.has_docstring = True
            first_statement = False

        word = _first_word(stripped)
        if word == "async":
            rest = stripped[len("async"):].lstrip()
            word = _first_word(rest)
        elif word == "from" and _IMPORT_RE.search(stripped):
            word = "import"
        scan.words.add(word)
        if word in _CONTROL_FLOW_KEYWORDS:
            scan.control_flow_count += 1

        if word in _BLOCK_KEYWORDS and stripped.endswith(":"):
            is_loop = word in _LOOP_KEYWORDS
            if is_loop and stack and stack[-1][1]:
                scan.nested_loop_pairs += 1
            wants_doc = word in ("def", "class")
            pending = (indent, is_loop, wants_doc)

        scan.eval_exec_calls += len(_EVAL_EXEC_RE.findall(cleaned))
        if _SPAWN_CONTEXT_RE.search(cleaned):
            scan.shell_true_calls += len(_SHELL_TRUE_RE.findall(cleaned))
        if not scan.has_validation:
            scan.has_validation = any(rx.search(cleaned) for _, rx in _VALIDATION_RES)
        # SQL-keyword literals that are concatenated or interpolated
        # (f-string braces, +, %-format, .format)
        positions = [m.start() for m in re.finditer(_MARK, cleaned)] if literals else ()
        for pos, lit in zip(positions, literals):
            if _SQL_KEYWORD_RE.search(lit.text) and (
                    ("f" in lit.prefix.lower() and "{" in lit.text)
                    or cleaned[:pos].rstrip().endswith("+")
                    or cleaned[pos + 1:].lstrip().startswith(("+", "%", ".format("))):
                scan.sql_string_builds += 1
    if pending is not None:
        # block opener with no body
        scan.structurally_valid = False
    return scan


# ---------------------------------------------------------------------------
# Scores rebuilt from their rule hits
# ---------------------------------------------------------------------------

def reconstruct_scores(breakdown: ScoreBreakdown) -> dict[str, float]:
    """Recompute each axis as clip(base + sum of its rule-hit deltas)."""
    return {
        axis: _axis_score(axis, [h for h in breakdown.rule_hits
                                 if h.rule_id.startswith(axis + ".")])
        for axis in ("security", "efficiency", "functionality")
    }
