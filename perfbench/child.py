"""Run one pass of a workload in a fresh interpreter and report its timings.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON names the source tree to import, the working directory, the CLI
commands of the pass and whether to trace. Each command goes through
`driftlab.cli.main(argv)` in this process, timed with `time.perf_counter`
around the call. In an untraced pass a `calibrate.Probe` samples the host's
speed while each command runs; its ticks are taken off the command's time.
The last line of standard output is one JSON object with the per-command
seconds, mean tick and exit codes, the process's peak RSS, and, when traced,
the per-layer table.

Tracing replaces module attributes of the imported program with timing
wrappers, at the attribute each caller looks the function up through. It
changes no file of the program. Spans are kept in memory and written to
`spans_path` when the pass ends.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

import calibrate

# (module, attribute, span name). A function is wrapped once, where every
# caller finds it: `cli` imports names from `core`, `inference` imports
# `pooled_step_matrix` from `core`, and `controller` reaches `inference`,
# `spectral` and `simulator` through their modules.
WRAP_POINTS = (
    ("cli", "main", "cli.main"),
    ("cli", "read_trajectories", "core.read_trajectories"),
    ("core", "loads_trajectories", "core.loads_trajectories"),
    ("core", "validate_trajectory", "core.validate_trajectory"),
    ("cli", "dumps_trajectories", "core.dumps_trajectories"),
    ("cli", "group_by_strategy", "core.group_by_strategy"),
    ("inference", "pooled_step_matrix", "core.pooled_step_matrix"),
    ("inference", "fit_drift", "inference.fit_drift"),
    ("inference", "fit_affine", "inference.fit_affine"),
    ("inference", "interference_matrix", "inference.interference_matrix"),
    ("inference", "predictive_r2", "inference.predictive_r2"),
    ("spectral", "eigen_spectrum", "spectral.eigen_spectrum"),
    ("spectral", "classify_regime", "spectral.classify_regime"),
    ("pareto", "efficiency_rows", "pareto.efficiency_rows"),
    ("pareto", "pareto_efficiency", "pareto.pareto_efficiency"),
    ("pareto", "non_dominated_mask", "pareto.non_dominated_mask"),
    ("pareto", "equilibrium_estimate", "pareto.equilibrium_estimate"),
    ("simulator", "simulate_set", "simulator.simulate_set"),
    ("simulator", "simulate_session", "simulator.simulate_session"),
    ("simulator", "step_noise", "simulator.step_noise"),
    ("simulator", "em_step", "simulator.em_step"),
    ("controller", "run_controlled", "controller.run_controlled"),
    ("controller", "dumps_events", "controller.dumps_events"),
    ("scorer", "score_all", "scorer.score_all"),
    ("scorer", "score_security", "scorer.score_security"),
    ("scorer", "score_efficiency", "scorer.score_efficiency"),
    ("scorer", "score_functionality", "scorer.score_functionality"),
    ("scorer", "scan_source", "scorer.scan_source"),
)


def _dumped_bytes(args, result) -> int:
    return len(result.encode("utf-8"))


def _dominance_bytes(args, result) -> int:
    # ge and gt are each a (T, T, n) boolean temporary.
    t, n = args[0].shape
    return 2 * t * t * n


def _controlled_steps(args, result) -> int:
    return len(result[0].points) - 1


def _scored_lines(args, result) -> int:
    return args[0].count("\n") + 1


# Work counts read from a call's arguments or result after its span ends.
COUNTERS = {
    "core.dumps_trajectories": ("bytes", _dumped_bytes),
    "pareto.non_dominated_mask": ("computed_bytes", _dominance_bytes),
    "controller.run_controlled": ("steps", _controlled_steps),
    "scorer.score_all": ("lines", _scored_lines),
}


class Tracer:
    """Timing wrappers with a span stack; one instance per pass."""

    def __init__(self, domain_error: type[BaseException]):
        self.domain_error = domain_error
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []  # id, name, start, end, parent
        self.stats: dict[str, dict] = {}
        self._stack: list[list[int]] = [[-1, 0]]  # [span id, child ns]
        self._next_id = 0

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        index = len(self.names)
        self.names.append(name)
        stat = self.stats[name] = {"self_ns": 0, "total_ns": 0, "calls": 0, "failed": 0}
        count_key, counter = COUNTERS.get(name, (None, None))
        if counter is not None:
            stat[count_key] = 0
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        domain_error = self.domain_error
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1]
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except domain_error:
                stat["failed"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                stat["self_ns"] += elapsed - frame[1]
                stat["total_ns"] += elapsed
                stat["calls"] += 1
                spans.append((span_id, index, start, end, parent[0]))
            if counter is not None:
                stat[count_key] += counter(args, result)
            return result

        setattr(module, attr, traced)

    def layer_table(self) -> dict:
        table = {}
        for name, stat in self.stats.items():
            row = {"self_s": stat["self_ns"] / 1e9, "total_s": stat["total_ns"] / 1e9}
            row.update((k, v) for k, v in stat.items() if not k.endswith("_ns"))
            table[name] = row
        return table

    def write_spans(self, path: str, run_id: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run_id": run_id, "names": self.names,
                       "fields": ["id", "name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, f, separators=(",", ":"))


def blas_info() -> dict:
    """OpenBLAS build string and thread count of this process, if loaded."""
    import ctypes

    info = {"library": None, "config": None, "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(paths):
        if not os.path.isfile(path):
            continue
        lib = ctypes.CDLL(path)
        info["library"] = os.path.basename(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None:
                    continue
                threads.restype = ctypes.c_int
                info["threads"] = threads()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                return info
    return info


def run_pass(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    os.chdir(spec["workdir"])
    from driftlab import cli, core

    tracer = None
    if spec["trace"]:
        tracer = Tracer(core.DomainError)
        for module, attr, name in WRAP_POINTS:
            tracer.wrap(importlib.import_module(f"driftlab.{module}"), attr, name)

    commands = []
    calibrate.tick()  # first-call costs stay out of the probe
    for label, argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        # Traced passes run without the probe, so no tick lands in a span.
        probe = contextlib.nullcontext() if tracer is not None else calibrate.Probe()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                with probe:
                    code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the flags
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # reported as a failed command, never hidden
                code = -1
                traceback.print_exc()
            seconds = time.perf_counter() - start
        entry = {"label": label, "seconds": seconds, "exit_code": code,
                 "stderr": err.getvalue()[-2000:]}
        if tracer is None:
            entry.update(seconds=seconds - probe.spent, tick_s=probe.mean(),
                         ticks=len(probe.samples))
        commands.append(entry)
    report = {
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_table()
        tracer.write_spans(spec["spans_path"], spec["run_id"])
    if spec.get("probe_env"):
        report["blas"] = blas_info()
    return report


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
