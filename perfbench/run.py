"""driftlab benchmark runner.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs one workload for about `--seconds` seconds from the root of a source
checkout and prints, as the last line of standard output, one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json, with
`--trace 1` its per-layer metrics. The full result (every sample, the
environment, the per-layer table and the output digests) is written to a
JSON file under `--results`, which `perfbench/compare.py` reads.

A run is: set-up timing (fresh interpreters importing `driftlab.cli`), one
warm-up pass on the default seed whose output digests must equal the ones
in `perfbench/digests.json`, then passes on the run's seed until the time
is up. Every pass is one child process (`perfbench/child.py`), so its peak
RSS is its own. Passes run one after another. Gated times are corrected for
the host's speed at the moment they were measured (`perfbench/calibrate.py`);
the wall times are kept beside them in the result file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 7
SETUP_SAMPLES = 4  # before the first pass; one more follows every pass
MIN_PASSES = 3
RUN_LIMIT_S = 160.0  # no pass starts later than this, so a run ends within 180 s
NPROC = len(os.sched_getaffinity(0))

# Units of the per-layer stats and derived figures; anything else is seconds.
LAYER_UNITS = {"calls": "count", "failed": "count", "steps": "count",
               "bytes": "bytes", "computed_bytes": "bytes", "lines": "count",
               "step_us": "us", "useful_ratio": "ratio", "lines_per_s": "lines/s"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                   help="one workload, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                   help="input sizes; 'toy' is for the smoke run and skips the digest check")
    p.add_argument("--results", type=Path, default=WORK / "results",
                   help="directory for the full result JSON")
    return p.parse_args(argv)


def child_env() -> dict:
    # OpenBLAS would otherwise size its pool from the host, not this cgroup.
    return dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(NPROC))


def spawn(argv: list[str], timeout: float) -> tuple[int, str, str, float]:
    """Run a child to completion; (exit code, stdout, stderr, wall seconds).

    The wait blocks in the kernel instead of polling, so the wall time is
    exact; a timer kills the child if it outlives `timeout`.
    """
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=child_env()) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    return proc.returncode, out, err, time.perf_counter() - start


# Timed inside the fresh interpreter: its own start-up and teardown, which
# no change to driftlab can move, stay out of `setup_s`.
IMPORT_TIMER = ("import time; start = time.perf_counter(); import {}; "
                "print(time.perf_counter() - start)")


def time_import(module: str) -> float:
    """Seconds a fresh interpreter spends importing `module`."""
    code, out, err, _ = spawn([sys.executable, "-c", IMPORT_TIMER.format(module)], 60.0)
    if code != 0:
        raise RuntimeError(f"importing {module} failed: {err.strip()[-500:]}")
    return float(out)


def measure_setup() -> tuple[float, float]:
    """(import of `driftlab.cli`, import of the reference module right after)."""
    return time_import("driftlab.cli"), time_import(calibrate.REFERENCE_MODULE)


def run_child(spec: dict, timeout: float) -> tuple[dict | None, str]:
    code, out, err, seconds = spawn(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)], timeout)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        killed = " (killed at the time limit)" if seconds >= timeout else ""
        return None, f"child exited {code}{killed}: {err.strip()[-500:]}"
    return json.loads(lines[-1]), ""


def environment(args, blas: dict | None) -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    llc = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
              for d in caches.glob("index*") if (d / "level").is_file()]
    if levels:
        llc = max(levels, key=lambda level: level[0])[1]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "openblas_num_threads": NPROC, "nproc": NPROC,
            "cpu_model": cpu, "llc_size": llc, "seed": args.seed,
            "workload": args.workload, "scale": args.scale,
            "sizes": workloads.SIZES[args.scale][args.workload]}


def layer_metrics(table: dict) -> dict:
    """Flat `<module>.<function>.<stat>` values of one traced pass, plus the
    derived figures."""
    flat = {f"{name}.{key}": value for name, row in table.items()
            for key, value in row.items()}

    def get(key):
        return flat.get(key, 0)

    steps = get("simulator.em_step.calls")
    sim_self = sum(get(f"simulator.{fn}.self_s")
                   for fn in ("step_noise", "em_step", "simulate_session", "simulate_set"))
    flat["simulator.step_us"] = sim_self / steps * 1e6 if steps else 0.0
    fits = get("inference.fit_affine.calls")
    flat["inference.fit_affine.useful_ratio"] = (
        (fits - get("inference.fit_affine.failed")) / fits if fits else 0.0)
    scored = get("scorer.score_all.total_s")
    flat["scorer.lines_per_s"] = get("scorer.score_all.lines") / scored if scored else 0.0
    return flat


def is_count(key: str) -> bool:
    return LAYER_UNITS.get(key.rsplit(".", 1)[1]) in ("count", "bytes")


class Run:
    """Bookkeeping of one benchmark run: attempts, failures and samples."""

    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.passes: list[dict] = []
        self.setup: list[tuple[float, float]] = []
        self.blas = None
        self.started = time.monotonic()

    def execute(self, workdir: Path, seed: int, traced: bool, label: str) -> dict | None:
        """Run one pass; returns its report, or None when it failed."""
        cmds = workloads.commands(self.args.workload, self.args.scale, seed)
        workloads.clear_outputs(self.args.workload, workdir)
        spans = WORK / self.args.workload / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        spec = {"src": str(SRC), "workdir": str(workdir), "commands": cmds,
                "trace": traced, "probe_env": self.blas is None,
                "spans_path": str(spans / f"{label}.json"),
                "run_id": f"{self.args.workload}-seed{seed}-{label}"}
        self.attempted += len(cmds)
        timeout = max(1.0, RUN_LIMIT_S + 15.0 - (time.monotonic() - self.started))
        report, error = run_child(spec, timeout)
        if report is None:
            self.fail(len(cmds), f"{label}: {error}")
            return None
        self.blas = self.blas or report.get("blas")
        bad = [c for c in report["commands"] if c["exit_code"] != 0]
        for c in bad:
            self.fail(1, f"{label}: {c['label']} exited {c['exit_code']}: {c['stderr'].strip()}")
        if bad:
            return None
        report["digests"] = workloads.digest_outputs(self.args.workload, workdir)
        report["traced"] = traced
        return report

    def fail(self, commands: int, message: str) -> None:
        self.failed += commands
        self.failures.append(message)

    def golden_pass(self) -> dict:
        """Warm-up pass on the default seed, checked against the recorded digests."""
        workdir = WORK / self.args.workload / "golden"
        workloads.prepare(self.args.workload, workdir, self.args.scale, DEFAULT_SEED)
        report = self.execute(workdir, DEFAULT_SEED, False, "golden")
        if report is None:
            return {"seed": DEFAULT_SEED, "match": False}
        recorded = json.loads(DIGESTS.read_text())["workloads"].get(self.args.workload)
        got = report["digests"]
        match = recorded is not None and recorded["digest"] == got["digest"]
        if not match:
            differ = [rel for rel, h in got["files"].items()
                      if recorded is None or recorded["files"].get(rel) != h]
            self.fail(len(report["commands"]),
                      f"golden: outputs for seed {DEFAULT_SEED} differ from "
                      f"digests.json in {differ}")
        return {"seed": DEFAULT_SEED, "match": match, **got}

    def measure(self, workdir: Path) -> None:
        """Passes on the run's seed until the time is up.

        Set-up samples are spread over the same period, one after each
        pass, so both metrics see the same machine.
        """
        measure_setup()  # compiles byte code; not counted
        self.setup = [measure_setup() for _ in range(SETUP_SAMPLES)]
        deadline = time.monotonic() + self.args.seconds
        min_passes = MIN_PASSES + (1 if self.args.trace else 0)
        first = None
        index = 0
        while (index < min_passes or time.monotonic() < deadline) \
                and time.monotonic() - self.started < RUN_LIMIT_S:
            traced = bool(self.args.trace) and index % 2 == 0
            label = f"pass{index}"
            report = self.execute(workdir, self.args.seed, traced, label)
            self.setup.append(measure_setup())
            index += 1
            if report is None:
                continue
            if first is None:
                first = report
                problems = workloads.check_outputs(self.args.workload, workdir,
                                                   self.args.scale, self.args.seed)
                if problems:
                    self.fail(len(report["commands"]), f"{label}: " + "; ".join(problems))
            elif report["digests"]["digest"] != first["digests"]["digest"]:
                self.fail(len(report["commands"]),
                          f"{label}: outputs differ from the first pass of the same seed")
            self.passes.append(report)

    def check_counts(self) -> None:
        """Every count of the traced passes must repeat exactly."""
        tables = [layer_metrics(p["layers"]) for p in self.passes if p["traced"]]
        for key in tables[0] if tables else ():
            if is_count(key) and len({t.get(key) for t in tables}) > 1:
                self.failures.append(f"count {key} differs between passes of one seed: "
                                     f"{[t.get(key) for t in tables]}")


def pass_seconds(report: dict) -> float:
    return sum(c["seconds"] for c in report["commands"])


def command_seconds(command: dict) -> float:
    """One untraced command's time at the reference host speed."""
    return calibrate.corrected(command["seconds"], command["tick_s"])


def end_to_end(run: Run) -> dict:
    """Times at the reference host speed; the `wall_*` times are as
    measured, and `tick_s` and `reference_import_s` are the host's speed
    behind them."""
    plain = [p for p in run.passes if not p["traced"]]
    metrics = {
        "setup_s": stats.summary([calibrate.corrected(s, ref, calibrate.REFERENCE_IMPORT_S)
                                  for s, ref in run.setup], "s"),
        "wall_setup_s": stats.summary([s for s, _ in run.setup], "s"),
        "reference_import_s": stats.summary([ref for _, ref in run.setup], "s"),
    }
    if plain:
        metrics["pass_s"] = stats.summary(
            [sum(map(command_seconds, p["commands"])) for p in plain], "s")
        metrics["wall_pass_s"] = stats.summary([pass_seconds(p) for p in plain], "s")
        for label, _ in workloads.commands(run.args.workload, run.args.scale, run.args.seed):
            metrics[f"{label}_s"] = stats.summary(
                [command_seconds(c) for p in plain for c in p["commands"]
                 if c["label"] == label], "s")
        metrics["peak_rss_mb"] = stats.summary([p["peak_rss_mb"] for p in plain], "MiB")
        metrics["tick_s"] = stats.summary(
            [c["tick_s"] for p in plain for c in p["commands"]], "s")
    metrics["fail_rate"] = {"value": run.failed / run.attempted if run.attempted else 1.0,
                            "unit": "ratio"}
    return metrics


def per_layer(run: Run) -> tuple[dict, dict]:
    tables = [layer_metrics(p["layers"]) for p in run.passes if p["traced"]]
    keys = sorted({k for t in tables for k in t})
    layers = {}
    for key in keys:
        stat = key.rsplit(".", 1)[1]
        layers[key] = stats.summary([t.get(key, 0) for t in tables], LAYER_UNITS.get(stat, "s"))
        if is_count(key):  # identical in every traced pass, so exact
            layers[key]["median"] = tables[0].get(key, 0)
    traced = [pass_seconds(p) for p in run.passes if p["traced"]]
    plain = [pass_seconds(p) for p in run.passes if not p["traced"]]
    overhead = {}
    if traced and plain:
        t_med, p_med = stats.quartiles(traced)[1], stats.quartiles(plain)[1]
        overhead = {"traced_pass_s": t_med, "untraced_pass_s": p_med,
                    "overhead_s": t_med - p_med, "overhead_ratio": t_med / p_med - 1.0}
    return layers, overhead


def run_workload(args, bench: dict) -> dict:
    """One run of one workload; prints its metrics and returns the result line."""
    run = Run(args)
    started_at = time.time()
    shutil.rmtree(WORK / args.workload, ignore_errors=True)

    golden = run.golden_pass() if args.scale == "full" else None

    workdir = WORK / args.workload / "run"
    workloads.prepare(args.workload, workdir, args.scale, args.seed)
    if args.workload == "score_batch":
        gaps = workloads.corpus_gaps(workdir, SRC)
        if gaps:
            run.failures.append(f"corpus for seed {args.seed} lacks {gaps}")
    run.measure(workdir)
    if args.trace:
        run.check_counts()

    e2e = end_to_end(run)
    layers, overhead = per_layer(run) if args.trace else ({}, {})
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = layers if args.trace else e2e
    metrics = {}
    for m in wanted:
        entry = source.get(m["name"])
        if entry is None:
            run.failures.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": entry["median"], "unit": m["unit"]}

    correct = not run.failures and run.failed == 0 and bool(run.passes)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started_at": started_at, "correct": correct,
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
        "environment": environment(args, run.blas), "golden": golden,
        "end_to_end": e2e, "per_layer": layers, "trace_overhead": overhead,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in run.passes],
    }
    args.results.mkdir(parents=True, exist_ok=True)
    out = args.results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{started_at:.3f}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    print(f"== {args.workload} seed {args.seed}: {run.attempted} commands, "
          f"{run.failed} failed")
    for message in run.failures:
        print(f"FAIL {message}")
    shown = [m["name"] for m in wanted] if args.trace else list(e2e)
    for name in shown:
        entry = source.get(name)
        if entry is None:
            continue
        if "median" in entry:
            print(f"{name:40s} {entry['median']:>12.6g} {entry['unit']:8s} "
                  f"q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n {entry['n']}")
        else:
            print(f"{name:40s} {entry['value']:>12.6g} {entry['unit']}")
    if overhead:
        print(f"tracing overhead: {overhead['overhead_s']:+.4f} s per pass "
              f"({overhead['overhead_ratio']:+.1%} of {overhead['untraced_pass_s']:.4f} s)")
    print(f"result: {out}")
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "driftlab" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the root of a "
              "driftlab checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload != "all":
        line = run_workload(args, bench)
    else:
        # Every workload in turn; the metrics are keyed `<workload>.<metric>`.
        line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in workloads.WORKLOADS:
            part = run_workload(argparse.Namespace(**{**vars(args), "workload": name}), bench)
            line["correct"] = line["correct"] and part["correct"]
            line["attempted"] += part["attempted"]
            line["failed"] += part["failed"]
            line["metrics"].update((f"{name}.{k}", v) for k, v in part["metrics"].items())
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
