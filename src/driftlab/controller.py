"""Adaptive strategy-switching loop and intervention triggers.

Drives a live simulation: after every step it refits the local drift on
a trailing window, classifies the spectrum, logs exploration-to-
exploitation and boundary-proximity transitions, applies phase-schedule
switches, and raises intervention flags when the run crosses a fixed
safety threshold: security below SECURITY_FLOOR, efficiency dropping by
more than EFFICIENCY_DROP of its last value, or the windowed convergence
rate above RATE_CEILING.

A controlled run is always session 0 of its base seed, and its fallback
strategy is always FALLBACK_STRATEGY (AI).

Interventions are logged, not enacted; callers may stop at the first one
via halt_on_intervention. Small windows routinely produce rank-deficient
local fits, most often because an axis sits clipped at the box for the
whole window (a constant state column, which the window fit rejects
before any decomposition); the controller then simply holds the current
strategy.

The loop runs in segments, as a speedup only. Each step's noise is drawn
once, in step order: a segment asks `simulator._normals` for the steps it
has not yet drawn, in one call. A segment steps the state ahead with the
current strategy, fits all its windows in one stacked pass
(`inference.fit_windows`: one least-squares call for the segment's
windows, bit-identical to one `lstsq` call per window) and takes their
spectra in one `eigvals` call. It then fills one table for all its steps
(`_ruled`), one row per step and one column per rule, as arrays: the three
triggers in the IEEE operations of one step's check, and each spectrum
edge as one shifted comparison seeded with the state the segment starts
from. Read in row order, the table puts the events in step order and,
within a step, in rule order. The strategy switches, too, are a mask over
the rows (`_switches`): a boundary edge of an unscheduled run away from
the fallback, and the phase schedule, a phase's age being the steps since
the one it began at. The segment's events are taken up to its first
switch, or the first intervention of a halting run, where the run halts or
the next segment starts on the stored noise; an exception ends the run at
its own step, as the one-step-at-a-time loop would. Segments start at 16
steps after every switch and double up to 1024.

Every step is taken by `simulator._advance`, the one walk of every run
(the public `simulator.em_step` is a one-step walk), on Python floats for
a controlled run's one session: a step whose arithmetic overflows or turns
invalid before the clip raises NonFinite naming the step. A segment that
overflows ends before that step and is ruled up to it: a switch or a halt
there means the step is never taken, and otherwise the next segment starts
at that step and raises.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import core, inference, simulator, spectral
from .core import (
    DimensionMismatch,
    DomainError,
    NonFinite,
    StrategySpec,
    Trajectory,
    _shown,
    check_integer,
)

SECURITY_AXIS = 0
EFFICIENCY_AXIS = 1

# Intervention thresholds, and the |Re lambda| under which a window's
# spectrum counts as near the stability boundary.
SECURITY_FLOOR = 2.0
EFFICIENCY_DROP = 0.30
RATE_CEILING = 1.5
ZERO_MARGIN = 0.05

# The strategy a run falls back to; every catalog must hold it.
FALLBACK_STRATEGY = "AI"


class Phase(NamedTuple):
    strategy_id: str
    min_iters: int
    max_iters: int | None  # None = open-ended


class EventKind(Enum):
    PHASE_SWITCH = "PhaseSwitch"
    BOUNDARY_AVOID_SWITCH = "BoundaryAvoidSwitch"
    EXPLORATION_TO_EXPLOITATION = "ExplorationToExploitation"
    INTERVENTION = "Intervention"


class ControlEvent(NamedTuple):
    iteration: int
    kind: EventKind
    detail: str
    triggering_value: float


@dataclass(frozen=True)
class ControllerConfig:
    """A run's fit window and phase schedule: None, or rows kept as `Phase`s."""
    window: int = 5
    phase_schedule: tuple[Phase, ...] | None = None

    def __post_init__(self):
        check_integer("window", self.window)
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {_shown(self.window)}")
        spec = self.phase_schedule
        if spec is None:
            return
        if not isinstance(spec, (list, tuple)) or not spec:
            raise DomainError("schedule must be a non-empty list")
        for row in spec:
            if not (isinstance(row, (list, Phase)) and len(row) == 3 and isinstance(row[0], str)
                    and core.is_integer(row[1]) and (row[2] is None or core.is_integer(row[2]))):
                raise DomainError(
                    f"malformed schedule row {_shown(row)}: expected [str, int, int or null]")
            if row[1] < 1:
                raise DomainError(f"phase {_shown(row[0])}: min_iters must be >= 1")
            if row[2] is not None and row[2] < row[1]:
                raise DomainError(f"phase {_shown(row[0])}: max_iters < min_iters")
        object.__setattr__(self, "phase_schedule", tuple(Phase(*row) for row in spec))


def phased_schedule_default() -> tuple[Phase, ...]:
    """Build-up schedule: features first, then hardening, tuning, upkeep."""
    return (
        Phase("FF", 2, 3),
        Phase("SF", 3, 4),
        Phase("EF", 2, 3),
        Phase("AI", 1, None),
    )


class _Signals(NamedTuple):
    """What the rules read from the spectra of the affine drifts fitted on
    consecutive windows, in order. full[k] says whether window k has a fit
    (too few samples or a rank-deficient design has none); rate (the
    convergence rate -Re lambda_max), has_complex (whether an imaginary
    part exceeds spectral.DEFAULT_ZERO_TOL) and min_abs_re (min |Re lambda|)
    hold one entry per fitted window. When error is not None, the fit or
    spectrum of window len(full) raises it, and later windows are left out.
    """
    full: np.ndarray
    rate: np.ndarray
    has_complex: np.ndarray
    min_abs_re: np.ndarray
    error: Exception | None


def _window_signals(rows: np.ndarray, window: int) -> _Signals:
    """The `_Signals` of every `window`-step window of rows, the windows
    ending at rows[window:].

    All fits are one `inference.fit_windows` pass, and all spectra one
    `np.linalg.eigvals` call over the stack, bit-identical to per-matrix
    calls.
    """
    full, A, error = inference.fit_windows(rows, window)
    try:
        lams = np.linalg.eigvals(A)
        rate = -lams.real.max(axis=1)
        stacked = np.isfinite(lams).all() and rate.all()
    except np.linalg.LinAlgError:
        stacked = False
    if stacked:
        return _Signals(full, rate, (np.abs(lams.imag) > spectral.DEFAULT_ZERO_TOL).any(axis=1),
                        np.abs(lams.real).min(axis=1), error)
    # One matrix at a time: a failure (a non-finite matrix, no convergence)
    # belongs to its own window, and a stacked max or min may pick another
    # signed zero or NaN than the scan below.
    signals = []
    for a in A:
        try:
            spectrum = spectral.eigen_spectrum(a)
        except (NonFinite, np.linalg.LinAlgError) as exc:
            full, error = full[:np.flatnonzero(full)[len(signals)]], exc
            break
        signals.append((-max(lam.real for lam in spectrum),
                        any(abs(lam.imag) > spectral.DEFAULT_ZERO_TOL for lam in spectrum),
                        min(abs(lam.real) for lam in spectrum)))
    rate, has_complex, min_abs_re = np.array(signals, dtype=np.float64).reshape(-1, 3).T
    return _Signals(full, rate, has_complex.astype(bool), min_abs_re, error)


# The rules in the order they apply at one step, as (kind, detail) of
# their events: the three interventions, then the two edges of the
# window's spectrum. A phase switch comes after all of them.
_RULES = (
    (EventKind.INTERVENTION, "security_floor"),
    (EventKind.INTERVENTION, "efficiency_drop"),
    (EventKind.INTERVENTION, "rate_ceiling"),
    (EventKind.EXPLORATION_TO_EXPLOITATION, "local spectrum turned real"),
    (EventKind.BOUNDARY_AVOID_SWITCH, "eigenvalue near zero"),
)
_TRIGGERS = 3
_BOUNDARY = 4


class _Ruled(NamedTuple):
    """Rule events at iterations first, first+1, ..., one row each: rule r
    of _RULES fires at iteration first+k where fires[k, r], with the value
    values[k, r]."""
    first: int
    fires: np.ndarray
    values: np.ndarray


def _ruled(m: np.ndarray, first: int, end: int, fitted: np.ndarray, sig: _Signals,
           edges: tuple[bool, bool] | None = None) -> _Ruled:
    """The rule table of iterations first..end-1 of the (T+1, n) matrix m,
    one column per rule in _RULES order: (a) security below SECURITY_FLOOR,
    (b) efficiency dropping by more than EFFICIENCY_DROP of its value at
    t-1, (c) the windowed local convergence rate above RATE_CEILING, where
    sig.rate[k] is the rate at iteration fitted[k] and an iteration with no
    fit has none. Given edges=(had_complex, near_zero), the state before
    fitted[0], the table also holds the two edges of the spectrum at the
    fitted iterations: exploration to exploitation (the spectrum just lost
    its complex parts; the value is the rate) and boundary proximity
    (min |Re lambda| just fell below ZERO_MARGIN; the value is that
    minimum)."""
    fires = np.zeros((end - first, _TRIGGERS if edges is None else len(_RULES)), dtype=bool)
    values = np.empty(fires.shape)
    sec = values[:, 0] = m[first:end, SECURITY_AXIS]
    fires[:, 0] = sec < SECURITY_FLOOR
    b = max(first, 1)
    prev, cur = m[b - 1:end - 1, EFFICIENCY_AXIS], m[b:end, EFFICIENCY_AXIS]
    # drops are measured against a positive base
    drop = (prev > 0) & (cur < (1.0 - EFFICIENCY_DROP) * prev)
    fires[b - first:, 1] = drop
    values[b - first + np.flatnonzero(drop), 1] = 1.0 - cur[drop] / prev[drop]
    rows = fitted - first
    fires[rows, 2] = sig.rate > RATE_CEILING
    values[rows, 2] = sig.rate
    if edges is not None:
        had_complex, near_zero = edges
        near = sig.min_abs_re < ZERO_MARGIN
        fires[rows, 3] = ~sig.has_complex & np.concatenate(([had_complex], sig.has_complex))[:-1]
        fires[rows, 4] = near & ~np.concatenate(([near_zero], near))[:-1]
        values[rows, 3], values[rows, 4] = sig.rate, sig.min_abs_re
    return _Ruled(first, fires, values)


def _rule_events(ruled: _Ruled, lo: int, hi: int) -> list[ControlEvent]:
    """The events of `ruled` at iterations lo..hi-1, in step order and,
    within a step, in rule order."""
    rows = slice(lo - ruled.first, hi - ruled.first)
    fires = ruled.fires[rows]
    k = np.flatnonzero(fires)  # row-major: by iteration, then by rule
    n = fires.shape[1]
    return [ControlEvent(t, *_RULES[r], v) for t, r, v in zip(
        (k // n + lo).tolist(), (k % n).tolist(), ruled.values[rows].ravel()[k].tolist())]


def check_interventions(traj: Trajectory, cfg: ControllerConfig) -> list[ControlEvent]:
    """Offline scan of a finished trajectory for all three trigger rules.

    Applies the rules `run_controlled` applies online at every iteration,
    including the initial point (one event per rule per iteration).
    """
    m = traj.values_matrix
    sig = _window_signals(m, cfg.window)
    if sig.error is not None:
        raise sig.error
    return _rule_events(_ruled(m, 0, len(m), cfg.window + np.flatnonzero(sig.full), sig),
                        0, len(m))


# Steps per segment of `run_controlled`: the first segment and the first
# after a strategy switch are short, and each next one twice as long, up
# to the last size.
_FIRST_SEGMENT = 16
_LAST_SEGMENT = 1024


@dataclass
class _LoopState:
    strategy: StrategySpec
    phase_index: int = 0
    phase_start: int = 0  # the step at which the current phase began
    had_complex: bool = False
    near_zero: bool = False


def _switches(state: _LoopState, schedule: tuple[Phase, ...] | None, ruled: _Ruled,
              intervened: np.ndarray, steps: int) -> np.ndarray:
    """Which rows of `ruled`, a segment's rule table in a run of `steps`
    steps, switch the strategy; intervened[k] says whether row k holds an
    intervention. An unscheduled run away from FALLBACK_STRATEGY falls back
    at a boundary edge. A phase with a next phase switches at min_iters,
    deferred by interventions but never past max_iters, a phase's age at
    step t being t - phase_start; a bounded last phase falls back at its
    max_iters if steps are left after it."""
    fires = ruled.fires
    if schedule is None:
        return fires[:, _BOUNDARY] & (state.strategy.id != FALLBACK_STRATEGY)
    if state.phase_index >= len(schedule):
        return np.zeros(len(fires), dtype=bool)
    phase = schedule[state.phase_index]
    iters = np.arange(ruled.first, ruled.first + len(fires))
    age = iters - state.phase_start
    at_max = age >= (np.inf if phase.max_iters is None else phase.max_iters)
    switch = (age >= phase.min_iters) & (at_max | ~intervened)
    if state.phase_index + 1 == len(schedule):
        switch &= at_max & (iters < steps)
    return switch


def _switch(state: _LoopState, now: int, events: list[ControlEvent],
            schedule: tuple[Phase, ...] | None, cat: Mapping[str, StrategySpec]) -> None:
    """Switch the strategy at step `now`, after `events` got the step's
    rule events: an unscheduled run falls back, noted in the boundary
    event's detail, and a scheduled one takes its next phase (a bounded
    last phase, the fallback), logged as a PhaseSwitch whose value is the
    phase's age."""
    if schedule is None:
        events[-1] = events[-1]._replace(detail=f"{events[-1].detail}; switching "
                                         f"{state.strategy.id}->{FALLBACK_STRATEGY}")
        state.strategy = cat[FALLBACK_STRATEGY]
        return
    phase = schedule[state.phase_index]
    state.phase_index += 1
    if state.phase_index < len(schedule):
        target = detail = schedule[state.phase_index].strategy_id
    else:
        target, detail = FALLBACK_STRATEGY, f"{FALLBACK_STRATEGY} (fallback)"
    events.append(ControlEvent(now, EventKind.PHASE_SWITCH, f"{phase.strategy_id}->{detail}",
                               float(now - state.phase_start)))
    state.strategy = cat[target]
    state.phase_start = now


def run_controlled(
    sim: simulator.SimConfig,
    cfg: ControllerConfig,
    catalog: Mapping[str, StrategySpec] | None = None,
    halt_on_intervention: bool = False,
) -> tuple[Trajectory, list[ControlEvent]]:
    """One controlled run, session 0 of sim.base_seed; deterministic given
    the seed.

    Starts from the schedule's first phase when one is configured,
    otherwise from sim.strategy (a balanced start by convention), and runs
    at the width of that start strategy, whatever sim.strategy's. Phases
    and the fallback strategy, always FALLBACK_STRATEGY (AI), are looked
    up in `catalog`, which defaults to `simulator.preset_catalog()`: the
    four presets at simulator.DEFAULT_SIGMA (0.5), whatever the diffusion
    of sim.strategy. Raises KeyError before the run when a scheduled
    strategy or the fallback is not in the catalog.
    """
    cat = simulator.preset_catalog() if catalog is None else dict(catalog)
    schedule = cfg.phase_schedule
    if schedule is not None:
        missing = [p.strategy_id for p in schedule if p.strategy_id not in cat]
        if missing:
            raise KeyError(f"scheduled strategies missing from catalog: {missing}")
    if FALLBACK_STRATEGY not in cat:
        raise KeyError(f"fallback strategy missing from catalog: {FALLBACK_STRATEGY!r}")
    if cfg.window > sim.iterations:
        raise ValueError(
            f"window {_shown(cfg.window)} > total iterations {_shown(sim.iterations)}"
        )

    state = _LoopState(strategy=sim.strategy if schedule is None else cat[schedule[0].strategy_id])
    n = state.strategy.dimension
    steps = sim.iterations
    X, keys = simulator._start(sim, range(1), n)
    m = X[:, 0]
    eps = np.empty((steps, n))  # row t: the noise of step t, drawn once
    drawn = 0
    events: list[ControlEvent] = []
    window = cfg.window

    # Rows up to m[start] are settled. Each segment steps ahead with the
    # current strategy, fits every window ending in it at once and rules
    # all its steps as arrays, up to the first step where the state can
    # change. A strategy switch at step `now` drops the rows after it, and
    # the next segment starts there.
    start, length = 0, _FIRST_SEGMENT
    while start < steps:
        strategy = state.strategy
        if strategy.dimension != n:
            raise DimensionMismatch(
                f"strategy {strategy.id!r} has dimension "
                f"{strategy.dimension}, the run has {n}"
            )
        stop = min(steps, start + length)
        if stop > drawn:
            eps[drawn:stop] = simulator._normals(keys, range(drawn, stop), n)[:, 0]
            drawn = stop
        # an overflow ends the walk early; the next segment starts there
        stop = simulator._advance(m, start, stop, strategy, sim.dt, eps[start:stop], sim.clip)
        # windows ending at start+1 .. stop; the first ends at `first`
        first = max(start + 1, window)
        sig = _window_signals(m[first - window:stop + 1], window)
        # the steps before `end` have their signals; the window ending at
        # `end`, if there is one, raises sig.error
        end = stop + 1 if sig.error is None else first + len(sig.full)
        fitted = first + np.flatnonzero(sig.full)
        ruled = _ruled(m, start + 1, end, fitted, sig, (state.had_complex, state.near_zero))
        # the pivot, the first step where the state can change: a strategy
        # switch, or an intervention that halts the run
        intervened = ruled.fires[:, :_TRIGGERS].any(axis=1)
        switch = _switches(state, schedule, ruled, intervened, steps)
        k = np.flatnonzero(switch | intervened & halt_on_intervention)[:1].tolist()
        now = end - 1 if not k else start + 1 + k[0]
        events.extend(_rule_events(ruled, start + 1, now + 1))
        if k and switch[k[0]]:
            _switch(state, now, events, schedule, cat)
        if k and halt_on_intervention and intervened[k[0]]:
            m = m[:now + 1].copy()  # so the trajectory does not hold every row of X
            break
        ruled_fits = np.count_nonzero(fitted <= now)
        if ruled_fits:
            state.had_complex = bool(sig.has_complex[ruled_fits - 1])
            state.near_zero = bool(sig.min_abs_re[ruled_fits - 1] < ZERO_MARGIN)
        if not k and sig.error is not None:
            raise sig.error
        start = now
        length = _FIRST_SEGMENT if state.strategy is not strategy \
            else min(2 * length, _LAST_SEGMENT)

    return Trajectory._view(simulator.session_label(0), "controlled", core._readonly(m)), events


def dumps_events(events: Iterable[ControlEvent]) -> str:
    """The events as JSON lines, `{"iteration", "kind", "detail", "value"}`
    records of each event's fields in order, the kind as its value. Each
    distinct kind and detail is JSON-encoded once, and a finite float value
    is written by `float.__repr__`, as `json` writes it."""
    encoded: dict = {}
    lines = []
    for e in events:
        kind, detail = encoded.get(e.kind), encoded.get(e.detail)
        if kind is None:
            kind = encoded[e.kind] = json.dumps(e.kind.value)
        if detail is None:
            detail = encoded[e.detail] = json.dumps(e.detail)
        t, value = e.iteration, e.triggering_value
        if type(t) is not int:
            t = json.dumps(t)
        if type(value) is float and math.isfinite(value):
            value = float.__repr__(value)
        else:
            value = json.dumps(value)
        lines.append(f'{{"iteration": {t}, "kind": {kind}, '
                     f'"detail": {detail}, "value": {value}}}\n')
    return "".join(lines)

