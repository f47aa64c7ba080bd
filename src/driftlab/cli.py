"""Command-line entry point.

Four subcommands wire the library into reproducible runs:

    simulate   seeded trajectory generation -> JSONL
    analyze    drift / interference / spectrum / prediction / pareto bundle
    control    adaptive controlled run -> trajectory + event log JSONL
    score      static code scoring, single file or manifest batch

Every command is a pure function of its flags and input files: no clock,
no environment (the JSONL writer and reader and `score --manifest` read
the CPUs they may use, only to share large work out among forked
processes, with the same bytes). Exit codes: 0 success, 1
runtime/data failure, 2 usage error. Report JSON is emitted by a
fixed-order writer with floats at 17 significant digits so repeated runs
are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from itertools import chain
from pathlib import Path

from . import controller, inference, pareto, scorer, simulator, spectral
from .core import (
    DimensionMismatch,
    DomainError,
    InsufficientData,
    InvalidExpectedLength,
    NonFinite,
    RecordFormatError,
    StrategySpec,
    Trajectory,
    _fork_map,
    _shown,
    check_finite_positive,
    dumps_trajectories,
    group_by_strategy,
    parse_key_values,
    read_text,
    read_trajectories,
    validate_trajectory,
)

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# Deterministic JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise NonFinite(f"cannot emit non-finite number {x!r}")
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
    if isinstance(obj, float):
        return _fmt_float(obj)
    return json.dumps(obj)


_CSV_QUOTE_RE = re.compile(r'[,"\r\n]')


def _csv_field(text: str) -> str:
    """`text` as one CSV field, quoted as the `csv` module's default dialect
    quotes it (QUOTE_MINIMAL): only when it holds a comma, a quote or a line
    break, with inner quotes doubled. (A `csv.writer` with the "\\n" line
    end `pareto.csv` uses leaves a lone "\\r" unquoted on Python 3.11.)"""
    if _CSV_QUOTE_RE.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_rows(strategy: str, rows: list[tuple]) -> list[str]:
    """The `pareto.csv` lines of one strategy's `(session_id, *values)`
    rows: the strategy field, the session id field and each value as
    `_fmt_float` writes it, all through one `%` format per row. A
    non-finite value raises `_fmt_float`'s error for the first one."""
    session_ids, *columns = zip(*rows)
    if not all(map(math.isfinite, chain.from_iterable(columns))):
        for _, *values in rows:
            for value in values:
                _fmt_float(value)
    row = strategy.replace("%", "%%") + ",%s" + ",%.17g" * len(columns)
    return list(map(row.__mod__, zip(map(_csv_field, session_ids), *columns)))


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
                f"config value {name} = {_shown(raw)} is not a valid {cast.__name__}"
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
    try:
        is_file = Path(name).is_file()
    except OSError:  # a name no file can have, too long say
        is_file = False
    if is_file:
        return _read_file(name, "strategy", lambda text: StrategySpec.from_dict(json.loads(text)))
    raise _UsageError(
        f"unknown strategy {_shown(name)}: not a preset "
        f"({'|'.join(sorted(simulator.PRESET_DRIFT_DIAGONALS))}) or a spec file"
    )


class _UsageError(Exception):
    pass


def cmd_simulate(args) -> int:
    config = _read_file(args.config, "config", parse_key_values) if args.config else {}
    sessions = _setting(args, config, "sessions", int, 1)
    iterations = _setting(args, config, "iterations", int, 10)
    seed = _setting(args, config, "seed", int, 0)
    sigma = _setting(args, config, "sigma", float, simulator.DEFAULT_SIGMA)
    dt = _setting(args, config, "dt", float, 1.0)
    strategy_name = _setting(args, config, "strategy", str, "AI")
    out = Path(_setting(args, config, "out", str, "trajectories.jsonl"))
    if config:
        raise _UsageError(f"unknown config key(s) {_shown(sorted(config))} in {args.config!r}")

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

# Each stage's record of one strategy, from its sessions, their drift fit
# (None when no requested stage reads it) and the flags: one record per
# strategy in `<stage>.json`, or the strategy's rows of `pareto.csv`.

def _drift_record(data, model, args) -> dict:
    return {"A_hat": model.A_hat.tolist(), "b_hat": model.b_hat.tolist(),
            "sigma_hat": model.sigma_hat.tolist(), "sample_count": model.sample_count}


def _interference_record(data, model, args) -> dict:
    return {"entries": inference.interference_matrix(data).entries.tolist()}


def _spectrum_record(data, model, args) -> dict:
    report = spectral.classify_regime(spectral.eigen_spectrum(model.A_hat), args.dt,
                                      args.zero_tol)
    return {"eigenvalues": [[z.real, z.imag] for z in report.eigenvalues],
            "discrete_eigenvalues": [[z.real, z.imag] for z in report.discrete_eigenvalues],
            "convergence_rate": report.convergence_rate, "regime": report.regime.value,
            "discrete_stable": report.discrete_stable}


def _prediction_record(data, model, args) -> dict:
    report = inference.predictive_r2(data, model)
    return {"r_squared": report.r_squared,
            "per_dimension_r_squared": list(report.per_dimension_r_squared),
            "step_count": report.step_count}


def _json_text(records: dict, n: int) -> str:
    return dumps_report({"schema_version": SCHEMA_VERSION, "strategies": records}) + "\n"


def _pareto_text(records: dict, n: int) -> str:
    lines = ["strategy,session_id,efficiency," + ",".join(f"eq_{i + 1}" for i in range(n))]
    for sid, rows in records.items():
        lines += _csv_rows(_csv_field(sid), rows)
    return "\n".join(lines) + "\n"


# Each stage's file, the builder of one strategy's record, and the renderer
# of the file's text from every strategy's record (in strategy order) and the
# objective count n. The stages run in this order, whatever the order
# `--only` names them in; the drift fit is made, and fails, at the drift stage.
_STAGES = {
    "drift": ("drift.json", _drift_record, _json_text),
    "interference": ("interference.json", _interference_record, _json_text),
    "spectrum": ("spectrum.json", _spectrum_record, _json_text),
    "prediction": ("prediction.json", _prediction_record, _json_text),
    "pareto": ("pareto.csv", lambda data, model, args: pareto.efficiency_rows(data, args.tail),
               _pareto_text),
}
ANALYZE_STAGES = tuple(_STAGES)


def cmd_analyze(args) -> int:
    stages = ANALYZE_STAGES
    if args.only:
        stages = tuple(s.strip() for s in args.only.split(","))
        unknown = [s for s in stages if s not in ANALYZE_STAGES]
        if unknown:
            raise _UsageError(f"unknown stages {_shown(unknown)}; choose from {ANALYZE_STAGES}")
    if args.tail < 1:
        raise _UsageError(f"--tail must be >= 1, got {_shown(args.tail)}")
    try:
        check_finite_positive("--zero-tol", args.zero_tol)
        check_finite_positive("--dt", args.dt)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    out_dir = Path(args.out)

    by_strategy = group_by_strategy(read_trajectories(args.infile))
    if not by_strategy:
        raise InsufficientData(f"no trajectory records in {args.infile}")
    if args.strategy:
        if args.strategy not in by_strategy:
            print(f"analyze: no sessions for strategy {_shown(args.strategy)}", file=sys.stderr)
            return 1
        by_strategy = {args.strategy: by_strategy[args.strategy]}
    sessions = sum(map(len, by_strategy.values()))
    widths = {data.dimension for data in by_strategy.values()}
    if len(widths) > 1:
        raise DimensionMismatch("strategies differ in width: " + ", ".join(
            f"{sid}={data.dimension}" for sid, data in by_strategy.items()))

    models = dict.fromkeys(by_strategy)  # fitted only if a stage that reads the fit is asked
    texts = {}  # each asked file's text: none is written until every one has rendered
    try:
        for stage, (name, build, render) in _STAGES.items():
            if stage == "drift" and not {"drift", "spectrum", "prediction"}.isdisjoint(stages):
                models = {sid: inference.fit_drift(data) for sid, data in by_strategy.items()}
            if stage in stages:
                records = {sid: build(data, models[sid], args) for sid, data in by_strategy.items()}
                texts[out_dir / name] = render(records, *widths)
    except DomainError as exc:
        print(f"analyze: {stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for path, text in texts.items():
        _write_text(path, text)
    print(f"analyze: {len(by_strategy)} strategies, {sessions} sessions -> {out_dir}")
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
        schedule = _read_file(args.schedule, "schedule", lambda text: controller.ControllerConfig(
            phase_schedule=json.loads(text) or []).phase_schedule)  # JSON null is not unscheduled
        unknown = sorted({p.strategy_id for p in schedule} - set(catalog))
        if unknown:
            raise _UsageError(
                f"bad schedule file {args.schedule!r}: unknown strategies {_shown(unknown)}")

    try:
        sim = simulator.SimConfig(  # at the width of the run's start strategy
            strategy=catalog[schedule[0].strategy_id] if schedule else strategy,
            sessions=1, iterations=args.iterations, dt=args.dt, base_seed=args.seed,
        )
        cfg = controller.ControllerConfig(window=args.window, phase_schedule=schedule)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if args.window > args.iterations:
        raise _UsageError(
            f"--window {_shown(args.window)} > --iterations {_shown(args.iterations)}")
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
        return dumps_report({"security": breakdown.security, "efficiency": breakdown.efficiency,
                             "functionality": breakdown.functionality,
                             "rule_hits": [hit._asdict() for hit in breakdown.rule_hits]}) + "\n"
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


# An integer field as int() reads it: a sign and digits, in groups joined by
# single underscores, within white space.
_INT_FIELD = re.compile(r"\s*([+-]?)\d+(?:_\d+)*\s*")


def _manifest_int(row: dict, column: str, lineno: int) -> int | float:
    """The column's integer. One with more digits than int() converts
    (sys.get_int_max_str_digits()) lies beyond every bound a manifest
    checks, so it reads as inf or -inf."""
    field = _manifest_field(row, column, lineno)
    try:
        return int(field)
    except ValueError:
        match = _INT_FIELD.fullmatch(field)
        if match:
            return -math.inf if match[1] == "-" else math.inf
        raise RecordFormatError(
            f"manifest line {lineno}: {column} {_shown(field)} is not an integer"
        ) from None


def _manifest_score(row: dict, lineno: int) -> scorer.ScoreBreakdown:
    expected_length = _manifest_int(row, "expected_length", lineno)
    try:
        return scorer.score_all(read_text(_manifest_field(row, "path", lineno)),
                                expected_length)
    except InvalidExpectedLength as exc:
        raise InvalidExpectedLength(f"manifest line {lineno}: {exc}") from None


# A manifest whose files hold fewer bytes than this is scored in one
# process. A forked child costs about 5 ms (fork, copy-on-write faults,
# reaping); on a 2-CPU Xeon the second CPU wins that back from about 40 KiB
# of source, and at 64 KiB the split takes ~10% off the command.
_FORK_MIN_BYTES = 64 * 1024


def _file_bytes(row: dict) -> int:
    try:
        return os.stat(row["path"]).st_size
    except (OSError, TypeError, ValueError):  # scoring the row raises its error
        return 0


def _scored(rows: list[tuple[int, dict]]) -> list[scorer.ScoreBreakdown]:
    """The scores of `rows` in order, up to the first row that raises; the
    caller scores that row again to raise its error in manifest order."""
    scores = []
    try:
        for lineno, row in rows:
            scores.append(_manifest_score(row, lineno))
    except Exception:
        pass
    return scores


def _manifest_scores(rows: list[tuple[int, dict]]) -> list[scorer.ScoreBreakdown]:
    """`_manifest_score` of each row, in order, or the error of the first
    row that raises. With k shares, at most one per row, share j is
    rows[j::k], scored by `_fork_map`. A row a share did not score (it
    raised) is scored here again."""
    shares = _fork_map(_scored, lambda k: [rows[j::k] for j in range(min(k, len(rows)))],
                       sum(_file_bytes(row) for _, row in rows), _FORK_MIN_BYTES)
    scores = []
    for i, (lineno, row) in enumerate(rows):
        share, at = shares[i % len(shares)], i // len(shares)
        scores.append(share[at] if at < len(share) else _manifest_score(row, lineno))
    return scores


def _manifest_rows(text: str) -> tuple[list[str] | None, list[tuple[int, dict]]]:
    """The header (the first non-blank row, or None) and each row after it as
    (the physical line it starts on, the row keyed by the header, None for a missing field)."""
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
    return header, rows


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
                f"manifest line {lineno}: session {_shown(sid)} changes strategy "
                f"{_shown(first_strategy)} -> {_shown(strategy)}"
            )
        it = _manifest_int(row, "iteration", lineno)
        if not 0 <= it < len(rows):  # no session of these rows reaches iteration len(rows)
            raise RecordFormatError(
                f"manifest line {lineno}: iteration {_shown(row['iteration'])} is outside "
                f"the manifest's row range 0..{len(rows) - 1}"
            )
        if it in points:
            raise RecordFormatError(
                f"manifest line {lineno}: session {_shown(sid)} repeats iteration {it}"
            )
        points[it] = [b.security, b.efficiency, b.functionality]
    trajs = []
    for sid, (strategy, points) in sessions.items():
        iterations = sorted(points)
        if iterations != list(range(len(iterations))):
            raise RecordFormatError(
                f"manifest session {_shown(sid)} has iterations {iterations}, "
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
        header, rows = _manifest_rows(read_text(args.manifest, newline=""))
        if not rows:
            raise _UsageError(f"empty manifest {args.manifest!r}")
        if not {"path", "expected_length"} <= set(header):
            raise _UsageError(f"manifest {args.manifest!r} needs path,expected_length columns")
        for column in ("path", "expected_length", "session_id", "strategy", "iteration"):
            if header.count(column) > 1:  # a row keeps only the last one's field
                raise _UsageError(f"manifest {args.manifest!r} repeats the {column} column")
        scores = _manifest_scores(rows)
        if {"session_id", "strategy", "iteration"} <= set(header):
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
    try:
        scorer._check_expected_length(expected_length, "--expected-length")
    except InvalidExpectedLength as exc:
        raise _UsageError(str(exc)) from None
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
