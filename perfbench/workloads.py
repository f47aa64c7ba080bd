"""The four benchmark workloads: their inputs, commands and output checks.

Each workload is one closed-loop caller that runs its CLI commands one
after another. Inputs are a pure function of the workload seed. Output
checks use only the wire formats and properties that hold for any correct
program; only the corpus coverage check calls the scorer, because the
rules it must fire are the scorer's own.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("sweep", "long_horizon", "control_long", "score_batch")

SIZES = {
    "full": {
        "sweep": {"sessions": 2000, "iterations": 20},
        "long_horizon": {"sessions": 4, "iterations": 4000},
        "control_long": {"iterations": 10000, "sigma": 2.0},
        "score_batch": {"files": 200, "lines": 50000},
    },
    "toy": {
        "sweep": {"sessions": 40, "iterations": 5},
        "long_horizon": {"sessions": 2, "iterations": 200},
        "control_long": {"iterations": 200, "sigma": 2.0},
        "score_batch": {"files": 8, "lines": 800},
    },
}

OUTPUTS = {
    "sweep": ("traj.jsonl", "analysis/drift.json", "analysis/interference.json",
              "analysis/spectrum.json", "analysis/prediction.json", "analysis/pareto.csv"),
    "control_long": ("ctl.jsonl", "ctl.events.jsonl"),
    "score_batch": ("scores.jsonl",),
}
OUTPUTS["long_horizon"] = OUTPUTS["sweep"]

SECURITY_FLOOR = 2.0  # ControllerConfig default, which `control` does not override

# Every scorer rule the score_batch corpus must fire at least once.
REQUIRED_RULES = frozenset({
    "security.eval_exec_call", "security.shell_true", "security.sql_string_build",
    "security.exception_handling", "security.input_validation",
    "efficiency.invalid_baseline", "efficiency.depth_beyond_free",
    "efficiency.nested_loop_pair", "efficiency.extra_control_flow",
    "functionality.feature.functions", "functionality.feature.classes",
    "functionality.feature.imports", "functionality.feature.returns",
    "functionality.feature.docstrings", "functionality.feature.error_handling",
    "functionality.length_scale",
})


def commands(workload: str, scale: str, seed: int) -> list[tuple[str, list[str]]]:
    """The (label, argv) list of one pass, with paths relative to the workdir."""
    size = SIZES[scale][workload]
    if workload in ("sweep", "long_horizon"):
        return [
            ("simulate", ["simulate", "--strategy", "SF", "--sessions", str(size["sessions"]),
                          "--iterations", str(size["iterations"]), "--seed", str(seed),
                          "--out", "traj.jsonl"]),
            ("analyze", ["analyze", "--in", "traj.jsonl", "--out", "analysis"]),
        ]
    if workload == "control_long":
        return [("control", ["control", "--schedule", "none", "--strategy", "AI",
                             "--sigma", str(size["sigma"]),
                             "--iterations", str(size["iterations"]),
                             "--seed", str(seed), "--out", "ctl"])]
    return [("score", ["score", "--manifest", "manifest.csv", "--out", "scores.jsonl"])]


# ---------------------------------------------------------------------------
# Seeded source corpus for score_batch
# ---------------------------------------------------------------------------

_WORDS = ("alpha", "beta", "gamma", "delta", "omega", "parse", "merge", "count",
          "load", "store", "split", "scale", "order", "group", "build", "check")
_TABLES = ("users", "orders", "events", "items", "accounts")


def _ident(rng: random.Random) -> str:
    return f"{rng.choice(_WORDS)}_{rng.choice(_WORDS)}_{rng.randrange(1000)}"


def _block(kind: str, rng: random.Random) -> list[str]:
    """One top-level definition of the given kind, with seeded names and constants."""
    name, k = _ident(rng), rng.randrange(2, 97)
    if kind == "loop":
        return [f"def {name}(items, limit={k}):",
                f'    """Sum the items above {k}."""',
                "    total = 0",
                "    for item in items:",
                "        if item > limit:",
                "            total += item",
                "        elif item < 0:",
                "            total -= item",
                "    return total"]
    if kind == "nested":
        return [f"def {name}(grid):",
                "    out = []",
                "    for row in grid:",
                "        for cell in row:",
                f"            if cell % {k} == 0:",
                "                while cell > 0:",
                "                    cell -= 1",
                "                out.append(cell)",
                "    return out"]
    if kind == "class":
        return [f"class {name.title().replace('_', '')}:",
                f'    """Hold one value scaled by {k}."""',
                "",
                "    def __init__(self, value):",
                "        if not isinstance(value, int):",
                '            raise TypeError("value must be an int")',
                "        self.value = value",
                "",
                "    def scaled(self, factor):",
                f"        return self.value * factor + {k}"]
    if kind == "guarded":
        return [f"def {name}(path):",
                "    try:",
                "        with open(path) as handle:",
                "            return handle.read()",
                "    except OSError as exc:",
                "        return str(exc)"]
    if kind == "sql":
        table = rng.choice(_TABLES)
        if rng.random() < 0.5:
            query = f'    query = "SELECT * FROM {table} WHERE id = " + str(key)'
        else:
            query = f'    query = f"DELETE FROM {table} WHERE id = {{key}}"'
        return [f"def {name}(conn, key):", query, "    return conn.execute(query)"]
    if kind == "shell":
        return [f"def {name}(cmd):",
                "    return subprocess.run(cmd, shell=True, check=False)"]
    if kind == "eval":
        return [f"def {name}(expr):", "    return eval(expr)"]
    if kind == "continued":
        return [f"def {name}(a, b, c):",
                f"    value = a * {k} + \\",
                "        b * c",
                "    return value"]
    if kind == "bracketed":
        return [f"{name.upper()} = {{",
                f'    "low": {k},',
                '    "high": [',
                f"        {k + 1}, {k + 2},",
                f"        {k + 3},",
                "    ],",
                "}"]
    if kind == "template":
        return [f'{name.upper()} = """',
                f"select {k} rows from the {rng.choice(_TABLES)} table",
                "keep the 'quoted' text and a # that is not a comment",
                '"""']
    raise ValueError(kind)


_KINDS = ("loop", "nested", "class", "guarded", "sql", "shell", "eval",
          "continued", "bracketed", "template")
_WEIGHTS = (20, 8, 12, 10, 3, 2, 2, 6, 6, 5)


def _source(rng: random.Random, target_lines: int, forced: tuple[str, ...]) -> str:
    lines = []
    if rng.random() < 0.7:
        lines += ['"""Module ' + _ident(rng) + ".", "", "Generated benchmark input.", '"""']
    lines += ["import os", "import subprocess", "from typing import Any", ""]
    kinds = list(forced)
    while len(lines) < target_lines:
        kind = kinds.pop() if kinds else rng.choices(_KINDS, _WEIGHTS)[0]
        lines += _block(kind, rng) + ["", ""]
    return "\n".join(lines) + "\n"


def write_corpus(workdir: Path, size: dict, seed: int) -> None:
    """Write `corpus/*.py` and `manifest.csv` (path,expected_length).

    The first files force coverage: one holds every block kind, one is a
    stub scored against a long expected length, and every tenth file ends
    in an unclosed bracket, so that no rule depends on luck.
    """
    rng = random.Random(seed)
    files = size["files"]
    mean_lines = size["lines"] // files
    corpus = workdir / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    rows = []
    for i in range(files):
        rel = f"corpus/f{i:03d}.py"
        if i == 1:
            text = _source(rng, 8, ("eval",))
            expected = 400
        else:
            forced = _KINDS if i == 0 else ()
            text = _source(rng, rng.randint(mean_lines // 2, mean_lines * 3 // 2), forced)
            if i % 10 == 2:
                text += "BROKEN = [1, 2,\n"
            expected = max(1, text.count("\n") + rng.randint(-20, 20))
        (workdir / rel).write_text(text, encoding="utf-8")
        rows.append((rel, expected))
    with open(workdir / "manifest.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(("path", "expected_length"))
        writer.writerows(rows)


def prepare(workload: str, workdir: Path, scale: str, seed: int) -> None:
    """Write the inputs a pass reads; only score_batch has any."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "score_batch":
        write_corpus(workdir, SIZES[scale][workload], seed)


def clear_outputs(workload: str, workdir: Path) -> None:
    for rel in OUTPUTS[workload]:
        (workdir / rel).unlink(missing_ok=True)


def digest_outputs(workload: str, workdir: Path) -> dict:
    """SHA-256 of every output file and one digest over all of them."""
    files = {}
    for rel in OUTPUTS[workload]:
        path = workdir / rel
        files[rel] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    combined = hashlib.sha256(
        "".join(f"{rel}\0{files[rel]}\n" for rel in sorted(files)).encode()
    ).hexdigest()
    return {"digest": combined, "files": files}


# ---------------------------------------------------------------------------
# Output checks: each returns a list of failure messages
# ---------------------------------------------------------------------------

def _brute_force_efficiency(points: list[list[float]]) -> float:
    """Share of points no other point dominates, one row at a time."""
    import numpy as np

    P = np.asarray(points, dtype=np.float64)
    kept = 0
    for row in P:
        dominators = np.all(P >= row, axis=1) & np.any(P > row, axis=1)
        kept += not dominators.any()
    return kept / len(P)


def _check_simulate_analyze(workdir: Path, size: dict, seed: int) -> list[str]:
    sessions, iterations = size["sessions"], size["iterations"]
    problems = []
    chosen = random.Random(seed).randrange(sessions)
    order: list[str] = []
    chosen_points: list[list[float]] = []
    with open(workdir / "traj.jsonl", encoding="utf-8") as f:
        records = 0
        for line in f:
            rec = json.loads(line)
            records += 1
            if not order or order[-1] != rec["session_id"]:
                order.append(rec["session_id"])
            if len(order) - 1 == chosen:
                chosen_points.append(rec["objectives"])
    if records != sessions * (iterations + 1):
        problems.append(f"traj.jsonl has {records} records, expected "
                        f"{sessions * (iterations + 1)}")
    if len(order) != sessions:
        problems.append(f"traj.jsonl has {len(order)} sessions, expected {sessions}")

    drift = json.loads((workdir / "analysis/drift.json").read_text(encoding="utf-8"))
    counts = [m["sample_count"] for m in drift["strategies"].values()]
    if counts != [sessions * iterations]:
        problems.append(f"drift.json sample_count {counts}, expected {sessions * iterations}")
    for stage in ("interference", "spectrum", "prediction"):
        doc = json.loads((workdir / f"analysis/{stage}.json").read_text(encoding="utf-8"))
        if not doc.get("strategies"):
            problems.append(f"{stage}.json has no strategies")

    with open(workdir / "analysis/pareto.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != sessions:
        problems.append(f"pareto.csv has {len(rows)} rows, expected {sessions}")
    bad = [r["session_id"] for r in rows if not 0.0 < float(r["efficiency"]) <= 1.0]
    if bad:
        problems.append(f"pareto.csv efficiency outside (0, 1] for {bad[:5]}")
    if chosen < len(order):
        reported = [float(r["efficiency"]) for r in rows if r["session_id"] == order[chosen]]
        expected = _brute_force_efficiency(chosen_points)
        if reported != [expected]:
            problems.append(f"pareto.csv efficiency of {order[chosen]} is {reported}, "
                            f"brute-force dominance count gives {expected!r}")
    return problems


def _check_control(workdir: Path, size: dict, seed: int) -> list[str]:
    problems = []
    with open(workdir / "ctl.jsonl", encoding="utf-8") as f:
        records = [json.loads(line) for line in f]
    if [r["iteration"] for r in records] != list(range(size["iterations"] + 1)):
        problems.append(f"ctl.jsonl has {len(records)} records, expected "
                        f"iterations 0..{size['iterations']}")
    if any(not 0.0 <= v <= 10.0 for r in records for v in r["objectives"]):
        problems.append("ctl.jsonl has a score outside [0, 10]")
    with open(workdir / "ctl.events.jsonl", encoding="utf-8") as f:
        events = [json.loads(line) for line in f]
    floor_hits = {e["iteration"] for e in events
                  if e["kind"] == "Intervention" and e["detail"] == "security_floor"}
    expected = {r["iteration"] for r in records[1:] if r["objectives"][0] < SECURITY_FLOOR}
    if floor_hits != expected:
        problems.append(f"security_floor events at {len(floor_hits)} iterations, "
                        f"the trajectory is below the floor at {len(expected)}")
    return problems


def _check_scores(workdir: Path, size: dict, seed: int) -> list[str]:
    problems = []
    with open(workdir / "manifest.csv", encoding="utf-8", newline="") as f:
        paths = [row["path"] for row in csv.DictReader(f)]
    with open(workdir / "scores.jsonl", encoding="utf-8") as f:
        records = [json.loads(line) for line in f]
    if [r["path"] for r in records] != paths:
        problems.append(f"scores.jsonl has {len(records)} records, expected one per "
                        f"manifest row ({len(paths)}) in order")
    axes = ("security", "efficiency", "functionality")
    bad = [r["path"] for r in records if not all(0.0 <= r[a] <= 10.0 for a in axes)]
    if bad:
        problems.append(f"scores outside [0, 10] for {bad[:5]}")
    return problems


CHECKS = {
    "sweep": _check_simulate_analyze,
    "long_horizon": _check_simulate_analyze,
    "control_long": _check_control,
    "score_batch": _check_scores,
}


def check_outputs(workload: str, workdir: Path, scale: str, seed: int) -> list[str]:
    missing = [rel for rel in OUTPUTS[workload] if not (workdir / rel).is_file()]
    if missing:
        return [f"missing outputs {missing}"]
    try:
        return CHECKS[workload](workdir, SIZES[scale][workload], seed)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


# Source constructs that send `scorer._clean_lines` down its slow paths.
CONSTRUCTS = {
    "triple-quoted string": lambda line: line.count('"""') == 1,
    "backslash continuation": lambda line: line.endswith("\\"),
    "multi-line bracket": lambda line: line.endswith(("(", "[", "{")),
}


def corpus_gaps(workdir: Path, src: Path) -> list[str]:
    """Required scorer rules that fire on no corpus file, read from the
    `rule_hits` of each ScoreBreakdown, and required constructs that no
    file contains."""
    import sys

    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from driftlab import scorer

    fired: set[str] = set()
    seen: set[str] = set()
    with open(workdir / "manifest.csv", encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            text = (workdir / row["path"]).read_text(encoding="utf-8")
            breakdown = scorer.score_all(text, int(row["expected_length"]))
            fired.update(hit.rule_id for hit in breakdown.rule_hits)
            lines = text.splitlines()
            seen.update(name for name, found in CONSTRUCTS.items() if any(map(found, lines)))
    return sorted(REQUIRED_RULES - fired) + sorted(set(CONSTRUCTS) - seen)
