"""Toy-size smoke run: proves the harness works end to end and its result
schema holds.

    python3 perfbench/smoke.py

Runs every workload at toy sizes, untraced and traced, checks the result
line against BENCHMARK.json and the result files for their blocks, runs
`compare.py` on the results, and checks that the runner refuses to run
(exit code not 0, no result line) in a directory without the program.
Takes about a minute; exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench" / "smoke"
RESULT_BLOCKS = {"environment", "end_to_end", "per_layer", "passes", "golden",
                 "trace_overhead", "failures"}


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"smoke: FAIL {message}")
        sys.exit(1)


def check_line(line: dict, names: list[str], units: dict[str, str]) -> None:
    expect(set(line) == {"correct", "attempted", "failed", "metrics"},
           f"result keys {sorted(line)}")
    expect(line["correct"] is True and line["failed"] == 0, f"run failed: {line}")
    expect(isinstance(line["attempted"], int) and line["attempted"] >= 1, "attempted < 1")
    expect(sorted(line["metrics"]) == sorted(names),
           f"metrics {sorted(set(line['metrics']) ^ set(names))} do not match BENCHMARK.json")
    for name, entry in line["metrics"].items():
        expect(set(entry) == {"value", "unit"}, f"{name} has keys {sorted(entry)}")
        expect(isinstance(entry["value"], (int, float)), f"{name} is not a number")
        expect(entry["unit"] == units[name], f"{name} unit {entry['unit']}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(OUT, ignore_errors=True)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in bench[key]}
        results = OUT / f"trace{trace}"
        code, lines = run([str(HERE / "run.py"), "--workload", "all", "--seed", "3",
                           "--seconds", "1", "--trace", str(trace), "--scale", "toy",
                           "--results", str(results)])
        expect(code == 0, f"--trace {trace} exited {code}: {lines[-5:]}")
        line = json.loads(lines[-1])
        keyed = {f"{w}.{m}": u for w in WORKLOADS for m, u in units.items()}
        check_line(line, list(keyed), keyed)
        files = sorted(results.glob("*.json"))
        expect(len(files) == len(WORKLOADS), f"{len(files)} result files")
        for path in files:
            result = json.loads(path.read_text())
            expect(RESULT_BLOCKS <= set(result), f"{path.name} lacks {RESULT_BLOCKS - set(result)}")
            expect(result["environment"]["nproc"] >= 1, f"{path.name} environment")
            if trace:
                expect(result["trace_overhead"], f"{path.name} reports no tracing overhead")
        print(f"smoke: --trace {trace}: {len(line['metrics'])} metrics over "
              f"{len(WORKLOADS)} workloads, {line['attempted']} commands")

    code, lines = run([str(HERE / "run.py"), "--workload", "control_long", "--seed", "4",
                       "--seconds", "1", "--scale", "toy", "--results", str(OUT / "single")])
    expect(code == 0, f"single workload exited {code}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    check_line(json.loads(lines[-1]), list(units), units)

    code, lines = run([str(HERE / "compare.py"), str(OUT / "trace0"), str(OUT / "trace0")])
    expect(code == 0 and any("pass_s" in line for line in lines), f"compare: {lines[-3:]}")
    expect(not any(" worse" in line for line in lines), "compare calls a run worse than itself")

    bare = OUT / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = run([*bench["command"][1:], "--workload", "sweep", "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=bare)
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           f"without the program the runner exited {code} with {lines[-1:]}")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
