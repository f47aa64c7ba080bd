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
once, in step order: a segment draws the rows it has not yet drawn in one
`simulator._normals` call. A segment steps the state ahead with the current
strategy, fits all its windows in one stacked pass
(`inference.fit_windows`: one least-squares call for the segment's
windows, bit-identical to one `lstsq` call per window) and takes their
spectra in one `eigvals` call, then applies the rules step by step, as
the one-step-at-a-time loop would. A strategy switch at step `now` drops
the rows after it, and the next segment starts from `now` on the stored
noise; a halt or an exception ends the run at its own step. Segments
start at 16 steps after every switch and double up to 1024.

Every step is taken by `simulator._advance`, the one walk of every run
(the public `simulator.em_step` is a one-step `_advance` walk): a step
whose arithmetic overflows or turns invalid, before the clip, raises
NonFinite naming the step. A segment that overflows ahead of the rules
ends before that step, and the rules walk up to it first: a switch or a
halt there means the step is never taken, and otherwise the next segment
starts at that step and raises.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import inference, simulator, spectral
from .core import (
    DimensionMismatch,
    DomainError,
    NonFinite,
    StrategySpec,
    Trajectory,
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


@dataclass(frozen=True)
class ControlEvent:
    iteration: int
    kind: EventKind
    detail: str
    triggering_value: float

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "kind": self.kind.value,
            "detail": self.detail,
            "value": self.triggering_value,
        }


@dataclass(frozen=True)
class ControllerConfig:
    window: int = 5
    phase_schedule: tuple[Phase, ...] | None = None

    def __post_init__(self):
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")


def phased_schedule_default() -> tuple[Phase, ...]:
    """Build-up schedule: features first, then hardening, tuning, upkeep."""
    return (
        Phase("FF", 2, 3),
        Phase("SF", 3, 4),
        Phase("EF", 2, 3),
        Phase("AI", 1, None),
    )


def _window_signals(rows: np.ndarray, window: int
                    ) -> tuple[list[tuple[float, bool, float] | None], Exception | None]:
    """What the rules read from the spectrum of the affine drift fitted on
    each `window`-step window of rows, for the windows ending at
    rows[window:], in order: (convergence rate -Re lambda_max, whether an
    imaginary part exceeds spectral.DEFAULT_ZERO_TOL, min |Re lambda|), or
    None when the fit is unsolvable (too few samples / rank deficient). The
    list stops short at the first window whose fit or spectrum raises, with
    that exception.

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
        has_complex = (np.abs(lams.imag) > spectral.DEFAULT_ZERO_TOL).any(axis=1)
        fitted = zip(rate.tolist(), has_complex.tolist(), np.abs(lams.real).min(axis=1).tolist())
    else:
        # One matrix at a time: a failure (a non-finite matrix, no
        # convergence) belongs to its own window, and a stacked max or min
        # may pick another signed zero or NaN than the scan below.
        signals = []
        for a in A:
            try:
                spectrum = spectral.eigen_spectrum(a)
            except (NonFinite, np.linalg.LinAlgError) as exc:
                full, error = full[:np.flatnonzero(full)[len(signals)]], exc
                break
            signals.append((-max(lam.real for lam in spectrum),
                            any(abs(lam.imag) > spectral.DEFAULT_ZERO_TOL
                                for lam in spectrum),
                            min(abs(lam.real) for lam in spectrum)))
        fitted = iter(signals)
    return [next(fitted) if f else None for f in full.tolist()], error


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


def check_interventions(traj: Trajectory, cfg: ControllerConfig) -> list[ControlEvent]:
    """Offline scan of a finished trajectory for all three trigger rules.

    Applies the rules `run_controlled` applies online at every iteration,
    including the initial point (one event per rule per iteration).
    """
    m = traj.values_matrix
    spectra, error = _window_signals(m, cfg.window)
    if error is not None:
        raise error
    rates = [None] * min(cfg.window, len(m)) + [None if s is None else s[0] for s in spectra]
    events: list[ControlEvent] = []
    for t, rate in enumerate(rates):
        events.extend(_interventions_at(m, t, rate))
    return events


# Steps per segment of `run_controlled`: the first segment and the first
# after a strategy switch are short, and each next one twice as long, up
# to the last size.
_FIRST_SEGMENT = 16
_LAST_SEGMENT = 1024


@dataclass
class _LoopState:
    strategy: StrategySpec
    phase_index: int = 0
    phase_iters: int = 0
    had_complex: bool = False
    near_zero: bool = False


def _rules_at(state: _LoopState, m: np.ndarray, now: int,
              spectrum: tuple[float, bool, float] | None, cfg: ControllerConfig,
              cat: Mapping[str, StrategySpec], steps: int) -> tuple[list[ControlEvent], bool]:
    """Every rule at step `now` of a run of `steps` steps, in order: the
    three triggers, exploration to exploitation, boundary proximity and the
    phase schedule, given the window's signals from `_window_signals` (None
    when there is no fit). Updates `state`, whose strategy switches where a
    rule says so. Returns the step's events and whether one intervened."""
    step_events = _interventions_at(m, now, None if spectrum is None else spectrum[0])
    if spectrum is not None:
        rate, has_complex, min_abs_re = spectrum
        # exploration -> exploitation: the local spectrum just lost its
        # complex parts
        if state.had_complex and not has_complex:
            step_events.append(ControlEvent(
                now, EventKind.EXPLORATION_TO_EXPLOITATION,
                "local spectrum turned real", rate,
            ))
        state.had_complex = has_complex
        # boundary proximity (edge-triggered)
        near = min_abs_re < ZERO_MARGIN
        if near and not state.near_zero:
            detail = "eigenvalue near zero"
            if cfg.phase_schedule is None and state.strategy.id != FALLBACK_STRATEGY:
                detail += f"; switching {state.strategy.id}->{FALLBACK_STRATEGY}"
                state.strategy = cat[FALLBACK_STRATEGY]
            step_events.append(ControlEvent(
                now, EventKind.BOUNDARY_AVOID_SWITCH, detail, min_abs_re
            ))
        state.near_zero = near

    intervened = any(e.kind is EventKind.INTERVENTION for e in step_events)

    # phase schedule transitions at min_iters, deferred by interventions
    # but never past max_iters
    schedule = cfg.phase_schedule
    if schedule is not None and state.phase_index < len(schedule):
        state.phase_iters += 1
        phase = schedule[state.phase_index]
        at_max = phase.max_iters is not None and state.phase_iters >= phase.max_iters
        due = state.phase_iters >= phase.min_iters
        target = None
        if due and (at_max or not intervened):
            if state.phase_index + 1 < len(schedule):
                target = detail = schedule[state.phase_index + 1].strategy_id
            elif at_max and now < steps:
                # a bounded last phase at its max with steps left
                target, detail = FALLBACK_STRATEGY, f"{FALLBACK_STRATEGY} (fallback)"
        if target is not None:
            step_events.append(ControlEvent(
                now, EventKind.PHASE_SWITCH, f"{phase.strategy_id}->{detail}",
                float(state.phase_iters),
            ))
            state.strategy = cat[target]
            state.phase_index += 1
            state.phase_iters = 0
    return step_events, intervened


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

    state = _LoopState(strategy=cat[schedule[0].strategy_id] if schedule else sim.strategy)
    n = state.strategy.dimension
    steps = sim.iterations
    X, keys = simulator._start(sim, range(1), n)
    m = X[:, 0]
    eps = np.empty((steps, n))  # row t: the noise of step t, drawn once
    drawn = 0
    events: list[ControlEvent] = []
    window = cfg.window

    # Rows up to m[start] are settled. Each segment steps ahead with the
    # current strategy, then fits every window ending in it at once and
    # walks the rules step by step. A strategy switch at step `now` drops
    # the rows after it, and the next segment starts there.
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
            eps[drawn:stop] = simulator._normals(keys, range(drawn + 1, stop + 1), n)[:, 0]
            drawn = stop
        # an overflow ends the walk early; the next segment starts there
        stop = simulator._advance(m, start, stop, strategy, sim.dt, eps[start:stop],
                                  sim.clip_bounds)
        # windows ending at start+1 .. stop; the first ends at `first`
        first = max(start + 1, window)
        spectra, error = _window_signals(m[first - window:stop + 1], window)

        for now in range(start + 1, stop + 1):
            spectrum = None
            if now >= first:
                if now - first == len(spectra):
                    raise error
                spectrum = spectra[now - first]
            step_events, intervened = _rules_at(state, m, now, spectrum, cfg, cat, steps)
            events.extend(step_events)
            if halt_on_intervention and intervened:
                return Trajectory(simulator.session_label(0), "controlled", m[:now + 1]), events
            if state.strategy is not strategy:
                break
        start = now
        length = _FIRST_SEGMENT if state.strategy is not strategy \
            else min(2 * length, _LAST_SEGMENT)

    return Trajectory(simulator.session_label(0), "controlled", m), events


def dumps_events(events: Iterable[ControlEvent]) -> str:
    return "".join(json.dumps(e.to_dict()) + "\n" for e in events)


def parse_schedule(spec: object) -> tuple[Phase, ...]:
    """Schedule from JSON data: a list of [strategy_id, min, max|null] rows,
    each id a string and each count an integer (not a bool)."""
    if not isinstance(spec, list) or not spec:
        raise DomainError("schedule must be a non-empty list")
    phases = []
    for row in spec:
        if not (isinstance(row, list) and len(row) == 3 and isinstance(row[0], str)
                and type(row[1]) is int and (row[2] is None or type(row[2]) is int)):
            raise DomainError(f"malformed schedule row {row!r}: expected [str, int, int or null]")
        sid, lo, hi = row
        if lo < 1:
            raise DomainError(f"phase {sid!r}: min_iters must be >= 1")
        if hi is not None and hi < lo:
            raise DomainError(f"phase {sid!r}: max_iters < min_iters")
        phases.append(Phase(sid, lo, hi))
    return tuple(phases)
