"""Command-line entry point.

Four subcommands wire the library into reproducible runs:

    simulate   seeded trajectory generation -> JSONL
    analyze    drift / interference / spectrum / prediction / pareto bundle
    control    adaptive controlled run -> trajectory + event log JSONL
    score      static code scoring, single file or manifest batch

Every command is a pure function of its flags and input files: no clock,
no environment. Exit codes: 0 success, 1 runtime/data failure, 2 usage
error. Report JSON is emitted by a fixed-order writer with floats at 17
significant digits so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import controller, inference, pareto, scorer, simulator, spectral
from .core import (
    DimensionMismatch,
    DomainError,
    InsufficientData,
    InvalidExpectedLength,
    RecordFormatError,
    StrategySpec,
    Trajectory,
    dumps_trajectories,
    group_by_strategy,
    parse_key_values,
    read_text,
    read_trajectories,
    validate_trajectory,
)

SCHEMA_VERSION = "1"
ANALYZE_STAGES = ("drift", "interference", "spectrum", "prediction", "pareto")


# ---------------------------------------------------------------------------
# Deterministic JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"cannot emit non-finite number {x!r}")
    return format(x, ".17g")


def dumps_report(obj, indent: int = 0) -> str:
    """JSON text with insertion-ordered keys and .17g float rendering."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {dumps_report(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{dumps_report(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# Input files named by flags; config values lose to flags
# ---------------------------------------------------------------------------

def _read_file(path: str, what: str, parse):
    """parse(text) of the UTF-8 file at path. A file that cannot be read,
    decoded or parsed is a usage error naming the file."""
    try:
        return parse(read_text(path))
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError,
            DomainError) as exc:
        raise _UsageError(f"bad {what} file {path!r}: {type(exc).__name__}: {exc}") from None


def _setting(args, config: dict[str, str], name: str, cast, default):
    """The flag, else the config value (popped from `config`), else the default."""
    flag_value = getattr(args, name.replace("-", "_"))
    raw = config.pop(name, None)
    if flag_value is not None:
        return flag_value
    if raw is not None:
        try:
            return cast(raw)
        except ValueError:
            raise _UsageError(
                f"config value {name} = {raw!r} is not a valid {cast.__name__}"
            ) from None
    return default


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _resolve_strategy(name: str, sigma: float) -> StrategySpec:
    if not math.isfinite(sigma):
        raise _UsageError(f"sigma must be finite, got {sigma}")
    if name in simulator.PRESET_DRIFT_DIAGONALS:
        return simulator.preset(name, sigma)
    if Path(name).is_file():
        return _read_file(name, "strategy", lambda text: StrategySpec.from_dict(json.loads(text)))
    raise _UsageError(
        f"unknown strategy {name!r}: not a preset "
        f"({'|'.join(sorted(simulator.PRESET_DRIFT_DIAGONALS))}) or a spec file"
    )


class _UsageError(Exception):
    pass


def cmd_simulate(args) -> int:
    config = _read_file(args.config, "config", lambda text: parse_key_values(text, args.config)) \
        if args.config else {}
    sessions = _setting(args, config, "sessions", int, 1)
    iterations = _setting(args, config, "iterations", int, 10)
    seed = _setting(args, config, "seed", int, 0)
    sigma = _setting(args, config, "sigma", float, simulator.DEFAULT_SIGMA)
    dt = _setting(args, config, "dt", float, 1.0)
    strategy_name = _setting(args, config, "strategy", str, "AI")
    out = Path(_setting(args, config, "out", str, "trajectories.jsonl"))
    if config:
        raise _UsageError(f"unknown config key(s) {sorted(config)} in {args.config!r}")

    strategy = _resolve_strategy(strategy_name, sigma)
    try:
        cfg = simulator.SimConfig(
            strategy=strategy, sessions=sessions, iterations=iterations,
            dt=dt, base_seed=seed,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    data = simulator.simulate_set(cfg)
    _write_text(out, dumps_trajectories(data))
    print(f"simulate: strategy={strategy.id} sessions={sessions} "
          f"iterations={iterations} seed={seed} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    stages = ANALYZE_STAGES
    if args.only:
        stages = tuple(s.strip() for s in args.only.split(","))
        unknown = [s for s in stages if s not in ANALYZE_STAGES]
        if unknown:
            raise _UsageError(f"unknown stages {unknown}; choose from {ANALYZE_STAGES}")
    if args.tail < 1:
        raise _UsageError(f"--tail must be >= 1, got {args.tail}")
    if not args.zero_tol > 0:
        raise _UsageError(f"--zero-tol must be > 0, got {args.zero_tol}")
    if not (args.dt > 0 and math.isfinite(args.dt)):
        raise _UsageError(f"--dt must be finite and > 0, got {args.dt}")
    out_dir = Path(args.out)

    trajectories = read_trajectories(args.infile)
    if not trajectories:
        raise InsufficientData(f"no trajectory records in {args.infile}")
    by_strategy = group_by_strategy(trajectories)
    if args.strategy:
        if args.strategy not in by_strategy:
            print(f"analyze: no sessions for strategy {args.strategy!r}", file=sys.stderr)
            return 1
        by_strategy = {args.strategy: by_strategy[args.strategy]}
    widths = {data.dimension for data in by_strategy.values()}
    if len(widths) > 1:
        raise DimensionMismatch(
            "strategies differ in width: "
            + ", ".join(f"{sid}={data.dimension}" for sid, data in by_strategy.items())
        )

    needs_model = {"drift", "spectrum", "prediction"} & set(stages)
    bundles: dict[str, dict] = {s: {} for s in stages}
    for sid, data in by_strategy.items():
        stage = "drift"
        try:
            model = inference.fit_drift(data) if needs_model else None
            if "drift" in stages:
                bundles["drift"][sid] = model.to_dict()
            stage = "interference"
            if "interference" in stages:
                bundles["interference"][sid] = inference.interference_matrix(data).to_dict()
            stage = "spectrum"
            if "spectrum" in stages:
                report = spectral.classify_regime(
                    spectral.eigen_spectrum(model.A_hat), args.dt, args.zero_tol
                )
                bundles["spectrum"][sid] = report.to_dict()
            stage = "prediction"
            if "prediction" in stages:
                bundles["prediction"][sid] = inference.predictive_r2(data, model).to_dict()
            stage = "pareto"
            if "pareto" in stages:
                bundles["pareto"][sid] = pareto.efficiency_rows(data, args.tail)
        except DomainError as exc:
            print(f"analyze: {stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1

    for stage in stages:
        if stage == "pareto":
            n = next(iter(by_strategy.values())).dimension
            lines = ["strategy,session_id,efficiency,"
                     + ",".join(f"eq_{i + 1}" for i in range(n))]
            for sid in bundles["pareto"]:
                for row in bundles["pareto"][sid]:
                    lines.append(",".join(
                        [row["strategy"], row["session_id"], _fmt_float(row["efficiency"])]
                        + [_fmt_float(row[f"eq_{i + 1}"]) for i in range(n)]
                    ))
            _write_text(out_dir / "pareto.csv", "\n".join(lines) + "\n")
        else:
            doc = {"schema_version": SCHEMA_VERSION, "strategies": bundles[stage]}
            _write_text(out_dir / f"{stage}.json", dumps_report(doc) + "\n")
    print(f"analyze: {len(by_strategy)} strategies, {len(trajectories)} sessions -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# control
# ---------------------------------------------------------------------------

def cmd_control(args) -> int:
    strategy = _resolve_strategy(args.strategy, args.sigma)
    catalog = simulator.preset_catalog(args.sigma)
    if args.schedule == "default":
        schedule = controller.phased_schedule_default()
    elif args.schedule == "none":
        schedule = None
    else:
        schedule = _read_file(args.schedule, "schedule",
                              lambda text: controller.parse_schedule(json.loads(text)))
        unknown = sorted({p.strategy_id for p in schedule} - set(catalog))
        if unknown:
            raise _UsageError(f"bad schedule file {args.schedule!r}: unknown strategies {unknown}")

    try:
        sim = simulator.SimConfig(  # at the width of the run's start strategy
            strategy=catalog[schedule[0].strategy_id] if schedule else strategy,
            sessions=1, iterations=args.iterations, dt=args.dt, base_seed=args.seed,
        )
        cfg = controller.ControllerConfig(window=args.window, phase_schedule=schedule)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if args.window > args.iterations:
        raise _UsageError(f"--window {args.window} > --iterations {args.iterations}")
    traj, events = controller.run_controlled(
        sim, cfg, catalog, halt_on_intervention=args.halt_on_intervention
    )
    traj_path = Path(f"{args.out}.jsonl")
    events_path = Path(f"{args.out}.events.jsonl")
    _write_text(traj_path, dumps_trajectories([traj]))
    _write_text(events_path, controller.dumps_events(events))
    print(f"control: {len(traj) - 1} steps, {len(events)} events -> {traj_path}")
    return 0


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def _score_one(path: str, expected_length: int, as_json: bool) -> str:
    breakdown = scorer.score_all(read_text(path), expected_length)
    if as_json:
        return dumps_report(breakdown.to_dict()) + "\n"
    lines = [
        f"security={breakdown.security:g} efficiency={breakdown.efficiency:g} "
        f"functionality={breakdown.functionality:g}"
    ]
    for hit in breakdown.rule_hits:
        lines.append(f"  {hit.rule_id} x{hit.count}: {hit.delta:+g}")
    return "\n".join(lines) + "\n"


def _manifest_field(row: dict, column: str, lineno: int) -> str:
    if row[column] is None:
        raise RecordFormatError(f"manifest line {lineno}: the row has no {column} field")
    return row[column]


def _manifest_int(row: dict, column: str, lineno: int) -> int:
    try:
        return int(_manifest_field(row, column, lineno))
    except ValueError:
        raise RecordFormatError(
            f"manifest line {lineno}: {column} {row[column]!r} is not an integer"
        ) from None


def _manifest_score(row: dict, lineno: int) -> scorer.ScoreBreakdown:
    expected_length = _manifest_int(row, "expected_length", lineno)
    try:
        return scorer.score_all(read_text(_manifest_field(row, "path", lineno)),
                                expected_length)
    except InvalidExpectedLength as exc:
        raise InvalidExpectedLength(f"manifest line {lineno}: {exc}") from None


def _manifest_rows(text: str) -> list[tuple[int, dict]]:
    """Each row after the header (the first non-blank row) as (the physical
    line it starts on, the row keyed by the header, None for a missing field)."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, start, header = [], 1, None
    try:
        for values in reader:
            if header is None:
                header = values or None
            elif values:
                rows.append((start, dict(zip(header, values + [None] * len(header)))))
            start = reader.line_num + 1
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise RecordFormatError(f"manifest line {start}: {exc}") from None
    return rows


def _manifest_trajectories(rows: list[tuple[int, dict]], scores: list) -> list[Trajectory]:
    """One validated trajectory per session_id, points ordered by iteration.

    Iterations of a session must be exactly 0..T (any row order) and its
    rows must agree on the strategy; anything else is a RecordFormatError.
    """
    sessions: dict[str, tuple[str, dict[int, list[float]]]] = {}
    for (lineno, row), b in zip(rows, scores):
        sid = _manifest_field(row, "session_id", lineno)
        strategy = _manifest_field(row, "strategy", lineno)
        first_strategy, points = sessions.setdefault(sid, (strategy, {}))
        if strategy != first_strategy:
            raise RecordFormatError(
                f"manifest line {lineno}: session {sid!r} changes strategy "
                f"{first_strategy!r} -> {strategy!r}"
            )
        it = _manifest_int(row, "iteration", lineno)
        if it in points:
            raise RecordFormatError(
                f"manifest line {lineno}: session {sid!r} repeats iteration {it}"
            )
        points[it] = [b.security, b.efficiency, b.functionality]
    trajs = []
    for sid, (strategy, points) in sessions.items():
        iterations = sorted(points)
        if iterations != list(range(len(iterations))):
            raise RecordFormatError(
                f"manifest session {sid!r} has iterations {iterations}, "
                f"expected 0..{len(iterations) - 1}"
            )
        trajs.append(validate_trajectory(
            Trajectory(sid, strategy, [points[i] for i in iterations])
        ))
    return trajs


def cmd_score(args) -> int:
    if args.src and args.manifest:
        raise _UsageError("--src and --manifest cannot be given together")
    if args.out and not args.manifest:
        raise _UsageError("--out needs --manifest; a --src score goes to stdout")
    if args.manifest and args.expected_length is not None:
        raise _UsageError("--expected-length needs --src; a manifest row gives its own")
    if args.manifest and args.json:
        raise _UsageError("--json needs --src; a manifest score is always JSON lines")
    if args.manifest:
        rows = _manifest_rows(read_text(args.manifest, newline=""))
        if not rows:
            raise _UsageError(f"empty manifest {args.manifest!r}")
        columns = set(rows[0][1])
        if not {"path", "expected_length"} <= columns:
            raise _UsageError(f"manifest {args.manifest!r} needs path,expected_length columns")
        scores = [_manifest_score(row, lineno) for lineno, row in rows]
        if {"session_id", "strategy", "iteration"} <= columns:
            text = dumps_trajectories(_manifest_trajectories(rows, scores))
        else:
            text = "".join(
                json.dumps({
                    "path": row["path"],
                    "security": b.security,
                    "efficiency": b.efficiency,
                    "functionality": b.functionality,
                }) + "\n"
                for (_, row), b in zip(rows, scores)
            )
        if args.out:
            _write_text(Path(args.out), text)
            print(f"score: {len(rows)} files -> {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    if not args.src:
        raise _UsageError("score requires --src FILE or --manifest FILE")
    expected_length = 1 if args.expected_length is None else args.expected_length
    if expected_length < 1:
        raise _UsageError(f"--expected-length must be >= 1, got {expected_length}")
    sys.stdout.write(_score_one(args.src, expected_length, args.json))
    return 0


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="driftlab",
        description="Simulate, estimate, and control multi-objective score dynamics.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate seeded trajectories as JSONL")
    sim.add_argument("--strategy", help="EF|SF|FF|AI or a strategy spec JSON file")
    sim.add_argument("--sessions", type=int)
    sim.add_argument("--iterations", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--sigma", type=float, help="diffusion scale (sigma * I)")
    sim.add_argument("--dt", type=float)
    sim.add_argument("--out")
    sim.add_argument("--config", help="key = value defaults file (flags win)")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="full report bundle from trajectory JSONL")
    ana.add_argument("--in", dest="infile", required=True)
    ana.add_argument("--strategy", help="restrict to one strategy")
    ana.add_argument("--tail", type=int, default=3)
    ana.add_argument("--dt", type=float, default=1.0)
    ana.add_argument("--zero-tol", type=float, default=spectral.DEFAULT_ZERO_TOL)
    ana.add_argument("--out", default="analysis")
    ana.add_argument("--only", help=f"comma list of stages {ANALYZE_STAGES}")
    ana.set_defaults(func=cmd_analyze)

    ctl = sub.add_parser("control", help="adaptive controlled run")
    ctl.add_argument("--iterations", type=int, default=10)
    ctl.add_argument("--seed", type=int, default=0)
    ctl.add_argument("--schedule", default="default",
                     help="default | none | JSON schedule file")
    ctl.add_argument("--window", type=int, default=5)
    ctl.add_argument("--strategy", default="AI", help="start strategy when --schedule none")
    ctl.add_argument("--sigma", type=float, default=simulator.DEFAULT_SIGMA)
    ctl.add_argument("--dt", type=float, default=1.0)
    ctl.add_argument("--halt-on-intervention", action="store_true")
    ctl.add_argument("--out", default="controlled")
    ctl.set_defaults(func=cmd_control)

    sc = sub.add_parser("score", help="static scoring of source files")
    sc.add_argument("--src", help="source file to score")
    sc.add_argument("--expected-length", type=int, default=None,
                    help="expected line count of --src (default 1)")
    sc.add_argument("--json", action="store_true", help="print the --src score as JSON")
    sc.add_argument("--manifest", help="CSV of path,expected_length[,session_id,strategy,iteration]")
    sc.add_argument("--out", help="output path for manifest batch mode")
    sc.set_defaults(func=cmd_score)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"{args.command}: out of memory: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
