"""Compare two result sets of the benchmark: the parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files `perfbench/run.py --results DIR`
wrote. Runs pair up by workload and seed. Collect them in pairs that
alternate which side runs first (parent then change, change then parent,
...), with the same `--seconds` on both sides; this script warns when they
do not alternate.

For every workload and end-to-end metric it prints each side's median and
quartiles over its runs, the ratio change/parent with the parent median as
its base, the pairs the change won, and a verdict:

- unresolved: either side's quartile spread is wider than the metric's
  bound, unless every change run reads better than every parent run;
- improved: the change wins at least nine tenths of the pairs, ties counting
  for neither, and the medians differ by more than the parent's quartile
  distance;
- worse: the change's median is worse than the parent's by more than the
  bound;
- unchanged: otherwise.

Bounds come from BENCHMARK.json; the per-command times (`simulate_s`, ...)
and `wall_pass_s` take the bound of `pass_s`. `fail_rate` is worse whenever
the change fails more. `tick_s` and `reference_import_s` measure the host,
not the program, so they are printed without a verdict. Traced runs add a per-layer table of medians and ratios, without
verdicts. The exit code is 1 when any verdict is "worse".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict[tuple[str, int, int], dict]:
    """Result files keyed by (workload, trace, seed); the latest run wins."""
    runs = {}
    for path in sorted(directory.glob("*.json"), key=lambda p: p.stat().st_mtime):
        result = json.loads(path.read_text())
        runs[(result["workload"], result["trace"], result["seed"])] = result
    return runs


def value(result: dict, section: str, metric: str) -> float | None:
    entry = result[section].get(metric)
    if entry is None:
        return None
    return entry["median"] if "median" in entry else entry["value"]


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> tuple[str, int]:
    def better(a, b):
        return a < b if lower_is_better else a > b

    wins = sum(1 for p, c in pairs if better(c, p))
    p_q1, p_med, p_q3 = stats.quartiles(parent)
    c_med = stats.quartiles(change)[1]
    all_better = all(better(c, p) for c in change for p in parent)
    if max(stats.spread(parent), stats.spread(change)) > bound and not all_better:
        return "unresolved", wins
    if pairs and wins >= 0.9 * len(pairs) and better(c_med, p_med) \
            and abs(c_med - p_med) > p_q3 - p_q1:
        return "improved", wins
    ratio = c_med / p_med if p_med else float("inf")
    if (ratio > 1.0 + bound) if lower_is_better else (ratio < 1.0 - bound):
        return "worse", wins
    return "unchanged", wins


def compare(parent_runs: dict, change_runs: dict, bench: dict) -> list[str]:
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    command_bound = bounds["pass_s"]["bound"]
    verdicts = []
    keys = sorted(set(parent_runs) & set(change_runs))
    for workload in sorted({k[0] for k in keys}):
        plain = [k for k in keys if k[0] == workload and k[1] == 0]
        first = [parent_runs[k]["started_at"] < change_runs[k]["started_at"] for k in plain]
        if abs(sum(first) - (len(first) - sum(first))) > 1:
            print(f"warning: {workload}: the parent ran first in {sum(first)} of "
                  f"{len(first)} pairs; alternate the order")
        metrics = sorted({m for k in plain for m in parent_runs[k]["end_to_end"]})
        for metric in metrics:
            pairs = [(value(parent_runs[k], "end_to_end", metric),
                      value(change_runs[k], "end_to_end", metric)) for k in plain]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if not pairs:
                continue
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            if metric in ("tick_s", "reference_import_s"):
                print(f"{workload:13s} {metric:18s} parent {stats.quartiles(parent)[1]:.4g}  "
                      f"change {stats.quartiles(change)[1]:.4g} s  (host speed, no verdict)")
                continue
            if metric == "fail_rate":
                worse = max(change) > max(parent)
                verdicts.append("worse" if worse else "unchanged")
                print(f"{workload:13s} {metric:18s} parent max {max(parent):.4g}  "
                      f"change max {max(change):.4g}  {verdicts[-1]}")
                continue
            spec = bounds.get(metric, {"bound": command_bound, "better": "lower"})
            result, wins = verdict(parent, change, pairs, spec["bound"],
                                   spec["better"] == "lower")
            verdicts.append(result)
            p_q1, p_med, p_q3 = stats.quartiles(parent)
            c_q1, c_med, c_q3 = stats.quartiles(change)
            unit = parent_runs[plain[0]]["end_to_end"][metric].get("unit", "")
            print(f"{workload:13s} {metric:18s} parent {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]  "
                  f"change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}] {unit}  "
                  f"ratio {c_med / p_med:.3f} of {p_med:.4g} {unit}  "
                  f"wins {wins}/{len(pairs)}  bound {spec['bound']}  {result}")
        traced = [k for k in keys if k[0] == workload and k[1] == 1]
        if traced:
            names = sorted({m for k in traced for m in parent_runs[k]["per_layer"]})
            for name in names:
                parent = [value(parent_runs[k], "per_layer", name) for k in traced]
                change = [value(change_runs[k], "per_layer", name) for k in traced]
                if any(v is None for v in parent + change):
                    continue
                p_med, c_med = stats.quartiles(parent)[1], stats.quartiles(change)[1]
                if p_med == c_med == 0:
                    continue
                ratio = f"{c_med / p_med:.3f}" if p_med else "n/a"
                print(f"{workload:13s} layer {name:40s} parent {p_med:.4g}  "
                      f"change {c_med:.4g}  ratio {ratio}")
    return verdicts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare parent and change result sets.")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    verdicts = compare(load(args.parent), load(args.change), bench)
    if not verdicts:
        print("no workload and seed appears in both result sets", file=sys.stderr)
        return 2
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
