"""Adaptive strategy-switching loop and intervention triggers.

Drives a live simulation step by step: after every step it refits the
local drift on a trailing window, classifies the spectrum, logs
exploration-to-exploitation and boundary-proximity transitions, applies
phase-schedule switches, and raises intervention flags when the run
crosses the configured safety thresholds (security floor, efficiency
drop, convergence-rate ceiling).

Interventions are logged, not enacted; callers may stop at the first one
via halt_on_intervention. Small windows routinely produce rank-deficient
local fits, most often because an axis sits clipped at the box for the
whole window (a constant state column, which `inference.fit_affine`
rejects before any decomposition); the controller then simply holds the
current strategy.
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
    InsufficientData,
    RankDeficientDesign,
    ScheduleExhausted,
    StrategySpec,
    Trajectory,
)

SECURITY_AXIS = 0
EFFICIENCY_AXIS = 1


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
    zero_margin: float = 0.05
    security_floor: float = 2.0
    efficiency_drop: float = 0.30
    rate_ceiling: float = 1.5
    zero_tol: float = spectral.DEFAULT_ZERO_TOL
    phase_schedule: tuple[Phase, ...] | None = None
    fallback_strategy_id: str | None = "AI"

    def __post_init__(self):
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        for name in ("zero_margin", "security_floor", "efficiency_drop",
                     "rate_ceiling", "zero_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def phased_schedule_default() -> tuple[Phase, ...]:
    """Build-up schedule: features first, then hardening, tuning, upkeep."""
    return (
        Phase("FF", 2, 3),
        Phase("SF", 3, 4),
        Phase("EF", 2, 3),
        Phase("AI", 1, None),
    )


def _window_spectrum(m: np.ndarray, t: int, window: int) -> list[complex] | None:
    """Spectrum of the affine drift fitted on the `window` steps ending at
    iteration t of m, or None before a full window exists or when the
    window regression is unsolvable (too few samples / rank deficient)."""
    if t < window:
        return None
    w = m[t - window:t + 1]
    try:
        A, _b, _sigma, _n = inference.fit_affine(w[:-1], np.diff(w, axis=0))
    except (InsufficientData, RankDeficientDesign):
        return None
    return spectral.eigen_spectrum(A)


def _interventions_at(m: np.ndarray, t: int, cfg: ControllerConfig,
                      rate: float | None) -> list[ControlEvent]:
    """The three trigger rules at iteration t of the (T+1, n) matrix m, in
    order: (a) security below the floor, (b) efficiency dropping by more
    than the configured fraction since t-1, (c) the windowed local
    convergence rate (None when there is no fit) above the ceiling."""
    events: list[ControlEvent] = []
    sec = float(m[t, SECURITY_AXIS])
    if sec < cfg.security_floor:
        events.append(ControlEvent(t, EventKind.INTERVENTION, "security_floor", sec))
    if t >= 1:
        prev = float(m[t - 1, EFFICIENCY_AXIS])
        cur = float(m[t, EFFICIENCY_AXIS])
        # drops are measured against a positive base
        if prev > 0 and cur < (1.0 - cfg.efficiency_drop) * prev:
            events.append(ControlEvent(
                t, EventKind.INTERVENTION, "efficiency_drop", 1.0 - cur / prev
            ))
    if rate is not None and rate > cfg.rate_ceiling:
        events.append(ControlEvent(t, EventKind.INTERVENTION, "rate_ceiling", rate))
    return events


def check_interventions(traj: Trajectory, cfg: ControllerConfig) -> list[ControlEvent]:
    """Offline scan of a finished trajectory for all three trigger rules.

    Applies the rules `run_controlled` applies online at every iteration,
    including the initial point (one event per rule per iteration).
    """
    m = traj.values_matrix
    events: list[ControlEvent] = []
    for t in range(len(m)):
        spectrum = _window_spectrum(m, t, cfg.window)
        rate = None if spectrum is None else -max(lam.real for lam in spectrum)
        events.extend(_interventions_at(m, t, cfg, rate))
    return events


@dataclass
class _LoopState:
    strategy: StrategySpec
    phase_index: int = 0
    phase_iters: int = 0
    had_complex: bool = False
    near_zero: bool = False


def run_controlled(
    sim: simulator.SimConfig,
    cfg: ControllerConfig,
    catalog: Mapping[str, StrategySpec] | None = None,
    halt_on_intervention: bool = False,
    session_index: int = 0,
) -> tuple[Trajectory, list[ControlEvent]]:
    """One controlled run; deterministic given (sim.base_seed, session_index).

    Starts from the schedule's first phase when one is configured,
    otherwise from sim.strategy (a balanced start by convention). Raises
    KeyError before the run when a scheduled or fallback strategy is not in
    the catalog, and ScheduleExhausted when a fully bounded schedule runs
    out with iterations remaining and no fallback strategy is configured.
    """
    cat = simulator.preset_catalog() if catalog is None else dict(catalog)
    schedule = cfg.phase_schedule
    if schedule:
        missing = [p.strategy_id for p in schedule if p.strategy_id not in cat]
        if missing:
            raise KeyError(f"scheduled strategies missing from catalog: {missing}")
    if cfg.fallback_strategy_id is not None and cfg.fallback_strategy_id not in cat:
        raise KeyError(f"fallback strategy missing from catalog: {cfg.fallback_strategy_id!r}")
    if cfg.window > sim.iterations:
        raise ValueError(
            f"window {cfg.window} > total iterations {sim.iterations}"
        )
    if session_index < 0:
        raise ValueError(f"session index must be >= 0, got {session_index}")

    if schedule:
        state = _LoopState(strategy=cat[schedule[0].strategy_id])
    else:
        state = _LoopState(strategy=sim.strategy)

    n = state.strategy.dimension
    noise = simulator._SessionStream(sim.base_seed, session_index)
    m = np.empty((sim.iterations + 1, n))
    m[0] = simulator._resolve_initial(sim, noise)
    eps = np.empty(n)
    events: list[ControlEvent] = []

    for t in range(sim.iterations):
        if state.strategy.dimension != n:
            raise DimensionMismatch(
                f"strategy {state.strategy.id!r} has dimension "
                f"{state.strategy.dimension}, the run has {n}"
            )
        noise.normal(t, eps)
        now = t + 1
        m[now] = simulator._step(m[t], state.strategy, sim.dt, eps, sim.clip_bounds)

        # local spectrum over the trailing window
        spectrum = _window_spectrum(m, now, cfg.window)
        report = None
        if spectrum is not None:
            report = spectral.classify_regime(spectrum, sim.dt, cfg.zero_tol)
        step_events = _interventions_at(
            m, now, cfg, None if report is None else report.convergence_rate
        )
        if report is not None:
            # exploration -> exploitation: the local spectrum just lost
            # its complex parts
            has_complex = any(abs(lam.imag) > cfg.zero_tol for lam in report.eigenvalues)
            if state.had_complex and not has_complex:
                step_events.append(ControlEvent(
                    now, EventKind.EXPLORATION_TO_EXPLOITATION,
                    "local spectrum turned real", report.convergence_rate,
                ))
            state.had_complex = has_complex
            # boundary proximity (edge-triggered)
            min_abs_re = min(abs(lam.real) for lam in report.eigenvalues)
            near = min_abs_re < cfg.zero_margin
            if near and not state.near_zero:
                detail = "eigenvalue near zero"
                if schedule is None and cfg.fallback_strategy_id \
                        and state.strategy.id != cfg.fallback_strategy_id:
                    detail += f"; switching {state.strategy.id}->{cfg.fallback_strategy_id}"
                    state.strategy = cat[cfg.fallback_strategy_id]
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
                        if cfg.fallback_strategy_id is None:
                            raise ScheduleExhausted(
                                f"schedule exhausted at iteration {now} with "
                                f"{sim.iterations - now} step(s) remaining"
                            )
                        target = cfg.fallback_strategy_id
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

    traj = Trajectory(simulator.session_label(session_index),
                      "controlled", m[:now + 1])
    return traj, events


def dumps_events(events: Iterable[ControlEvent]) -> str:
    return "".join(json.dumps(e.to_dict()) + "\n" for e in events)


def parse_schedule(spec: object) -> tuple[Phase, ...]:
    """Schedule from JSON-ish data: a list of [strategy_id, min, max|null]."""
    if not isinstance(spec, list) or not spec:
        raise DomainError("schedule must be a non-empty list")
    phases = []
    for row in spec:
        try:
            sid, lo, hi = row
            phases.append(Phase(str(sid), int(lo), None if hi is None else int(hi)))
        except (TypeError, ValueError) as exc:
            raise DomainError(f"malformed schedule row {row!r}: {exc}") from exc
        if phases[-1].min_iters < 1:
            raise DomainError(f"phase {sid!r}: min_iters must be >= 1")
        if phases[-1].max_iters is not None and phases[-1].max_iters < phases[-1].min_iters:
            raise DomainError(f"phase {sid!r}: max_iters < min_iters")
    return tuple(phases)
