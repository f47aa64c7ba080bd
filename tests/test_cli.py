import csv
import importlib.util
import itertools
import json
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from driftlab import cli, controller, core, pareto, simulator
from driftlab.core import StrategySpec
from oracles import reference_run_controlled


def run_cli(*argv) -> int:
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_expected_cardinality(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    code = run_cli("simulate", "--strategy", "AI", "--sessions", "5",
                   "--iterations", "10", "--seed", "7", "--out", str(out))
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 5 * 11
    summary = capsys.readouterr().out
    assert "sessions=5" in summary and "seed=7" in summary


def test_simulate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert run_cli("simulate", "--strategy", "SF", "--sessions", "3",
                       "--iterations", "6", "--seed", "11", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_unknown_strategy_is_usage_error(tmp_path, capsys):
    code = run_cli("simulate", "--strategy", "nope", "--out", str(tmp_path / "x.jsonl"))
    assert code == 2
    assert "unknown strategy" in capsys.readouterr().err


def test_simulate_custom_strategy_file(tmp_path):
    spec = StrategySpec("CUSTOM", np.diag([-0.5, -0.4, -0.3]),
                        [1.0, 1.0, 1.0], 0.2 * np.eye(3))
    spec_path = tmp_path / "custom.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    out = tmp_path / "c.jsonl"
    assert run_cli("simulate", "--strategy", str(spec_path), "--sessions", "2",
                   "--iterations", "4", "--seed", "1", "--out", str(out)) == 0
    trajs = core.read_trajectories(out)
    assert all(t.strategy_id == "CUSTOM" for t in trajs)


def test_simulate_config_file_defaults_and_flag_priority(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sessions = 4\niterations = 3\nseed = 5\nstrategy = EF\n")
    out1 = tmp_path / "one.jsonl"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out1)) == 0
    trajs = core.read_trajectories(out1)
    assert len(trajs) == 4 and len(trajs[0].points) == 4
    assert trajs[0].strategy_id == "EF"
    # flags win over the file
    out2 = tmp_path / "two.jsonl"
    assert run_cli("simulate", "--config", str(cfg), "--sessions", "2",
                   "--out", str(out2)) == 0
    assert len(core.read_trajectories(out2)) == 2


def test_simulate_config_file_names_unknown_and_repeated_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "x.jsonl"
    for text, key in (("sessions = 2\nsesions = 5\n", "sesions"),
                      ("seed = 1\nsessions = 2\nsessions = 5\n", "sessions")):
        cfg.write_text(text)
        capsys.readouterr()
        # a flag for the same setting does not excuse the bad key
        assert run_cli("simulate", "--config", str(cfg), "--sessions", "3",
                       "--out", str(out)) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

@pytest.fixture()
def simulated(tmp_path):
    out = tmp_path / "sims.jsonl"
    assert run_cli("simulate", "--strategy", "AI", "--sessions", "30",
                   "--iterations", "10", "--seed", "3", "--out", str(out)) == 0
    return out


def test_analyze_emits_full_bundle(tmp_path, simulated):
    out_dir = tmp_path / "bundle"
    assert run_cli("analyze", "--in", str(simulated), "--out", str(out_dir)) == 0
    names = {p.name for p in out_dir.iterdir()}
    assert names == {"drift.json", "interference.json", "spectrum.json",
                     "prediction.json", "pareto.csv"}
    drift_doc = json.loads((out_dir / "drift.json").read_text())
    assert drift_doc["schema_version"] == "1"
    assert "AI" in drift_doc["strategies"]
    csv_lines = (out_dir / "pareto.csv").read_text().splitlines()
    assert csv_lines[0] == "strategy,session_id,efficiency,eq_1,eq_2,eq_3"
    assert len(csv_lines) == 1 + 30


def test_analyze_is_byte_deterministic(tmp_path, simulated):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert run_cli("analyze", "--in", str(simulated), "--out", str(d)) == 0
    for name in ("drift.json", "interference.json", "spectrum.json",
                 "prediction.json", "pareto.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_analyze_one_step_dataset_fails_with_stage_name(tmp_path, capsys):
    path = tmp_path / "tiny.jsonl"
    lines = [json.dumps({"session_id": "s000", "strategy": "AI",
                         "iteration": t, "objectives": [5.0, 5.0, 5.0]})
             for t in range(2)]
    path.write_text("\n".join(lines) + "\n")
    code = run_cli("analyze", "--in", str(path), "--out", str(tmp_path / "r"))
    assert code == 1
    err = capsys.readouterr().err
    assert "drift" in err and "InsufficientData" in err


def test_analyze_only_subset(tmp_path, simulated):
    out_dir = tmp_path / "partial"
    assert run_cli("analyze", "--in", str(simulated), "--out", str(out_dir),
                   "--only", "interference,pareto") == 0
    assert {p.name for p in out_dir.iterdir()} == {"interference.json", "pareto.csv"}


def _stage_file(stage: str) -> str:
    return cli._STAGES[stage][0]


@pytest.mark.parametrize("only", ["pareto,prediction,spectrum,interference,drift,prediction",
                                  "spectrum,spectrum", "pareto,interference,pareto"])
def test_analyze_only_in_any_order_writes_the_full_runs_bytes(tmp_path, simulated, only):
    full, part = tmp_path / "full", tmp_path / "part"
    assert run_cli("analyze", "--in", str(simulated), "--out", str(full)) == 0
    assert run_cli("analyze", "--in", str(simulated), "--out", str(part), "--only", only) == 0
    names = {_stage_file(stage) for stage in only.split(",")}
    assert {p.name for p in part.iterdir()} == names
    for name in names:
        assert (part / name).read_bytes() == (full / name).read_bytes(), name


@pytest.mark.parametrize("only", ["pareto,drift", "drift,pareto"])
def test_analyze_stages_fail_in_table_order_whatever_the_only_order(tmp_path, capsys, only):
    # one step fails the drift fit, and a tail of 40 fails pareto
    path = tmp_path / "tiny.jsonl"
    path.write_text("".join(json.dumps({"session_id": "s000", "strategy": "AI", "iteration": t,
                                        "objectives": [5.0, 5.0, 5.0]}) + "\n"
                            for t in range(2)))
    for stages, message in (("pareto", "pareto: TailTooLong: tail 40 > trajectory length 2"),
                            (only, "drift: InsufficientData: 1 step(s) < n+1 = 4 required "
                                   "for the fit")):
        assert run_cli("analyze", "--in", str(path), "--out", str(tmp_path / "r"),
                       "--only", stages, "--tail", "40") == 1
        assert capsys.readouterr().err == f"analyze: {message}\n"
    assert not (tmp_path / "r").exists()


def test_analyze_fails_at_the_stage_whose_file_does_not_render(tmp_path, capsys):
    # every record builds, but at this dt the spectrum's discrete eigenvalues
    # are not finite, so spectrum.json cannot be written; no file is written
    spec = StrategySpec("R15", -1.5 * np.eye(3), [7.5, 7.5, 7.5], 0.5 * np.eye(3))
    spec_path = tmp_path / "r15.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    data = tmp_path / "r15.jsonl"
    assert run_cli("simulate", "--strategy", str(spec_path), "--sessions", "100",
                   "--iterations", "10", "--out", str(data)) == 0
    capsys.readouterr()
    out_dir = tmp_path / "r"
    assert run_cli("analyze", "--in", str(data), "--dt", "1.5e308", "--out", str(out_dir)) == 1
    assert capsys.readouterr().err == (
        "analyze: spectrum: NonFinite: cannot emit non-finite number -inf\n")
    assert not out_dir.exists()


def test_analyze_reports_the_first_failing_stage_across_strategies(tmp_path, capsys):
    # SF fits and fails only at pareto (11 rows < a tail of 40); X, one
    # 2-row session, fails its drift fit, the earlier stage, so X's is reported
    sf = simulator.simulate_set(simulator.SimConfig(
        simulator.preset("SF"), sessions=10, iterations=10, base_seed=5))
    trajs = [*sf, core.Trajectory("x0", "X", [[5.0, 5.0, 5.0], [5.0, 5.0, 5.0]])]
    data = tmp_path / "two.jsonl"
    data.write_text(core.dumps_trajectories(trajs))
    out_dir = tmp_path / "r"
    assert run_cli("analyze", "--in", str(data), "--tail", "40", "--out", str(out_dir)) == 1
    assert capsys.readouterr().err == (
        "analyze: drift: InsufficientData: 1 step(s) < n+1 = 4 required for the fit\n")
    assert not out_dir.exists()


def test_analyze_contractive_custom_strategy_reports_exponential(tmp_path):
    spec = StrategySpec("NEG", np.diag([-0.5, -0.4, -0.3]),
                        [2.5, 2.0, 1.5], 0.3 * np.eye(3))
    spec_path = tmp_path / "neg.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    data = tmp_path / "neg.jsonl"
    assert run_cli("simulate", "--strategy", str(spec_path), "--sessions", "200",
                   "--iterations", "10", "--seed", "19", "--out", str(data)) == 0
    out_dir = tmp_path / "negout"
    assert run_cli("analyze", "--in", str(data), "--out", str(out_dir)) == 0
    doc = json.loads((out_dir / "spectrum.json").read_text())
    assert doc["strategies"]["NEG"]["regime"] == "Exponential"


def test_analyze_strategy_filter(tmp_path, simulated, capsys):
    assert run_cli("analyze", "--in", str(simulated), "--strategy", "FF",
                   "--out", str(tmp_path / "x")) == 1
    assert "no sessions" in capsys.readouterr().err


def test_analyze_strategy_present_reports_it_alone(tmp_path):
    trajs = [core.Trajectory(sid + t.session_id, sid, t.values_matrix)
             for sid in ("SF", "FF")
             for t in simulator.simulate_set(simulator.SimConfig(
                 simulator.preset(sid), sessions=4, iterations=6, base_seed=1))]
    data = tmp_path / "two.jsonl"
    data.write_text(core.dumps_trajectories(trajs))
    out_dir = tmp_path / "ff"
    assert run_cli("analyze", "--in", str(data), "--strategy", "FF", "--out", str(out_dir)) == 0
    for stage in ("drift", "interference", "spectrum", "prediction"):
        doc = json.loads((out_dir / f"{stage}.json").read_text())
        assert list(doc["strategies"]) == ["FF"], stage
    with open(out_dir / "pareto.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4 and {r["strategy"] for r in rows} == {"FF"}


def test_analyze_strategy_summary_counts_only_its_sessions(tmp_path, capsys):
    trajs = [core.Trajectory(sid + t.session_id, sid, t.values_matrix)
             for sid, sessions in (("SF", 30), ("FF", 20))
             for t in simulator.simulate_set(simulator.SimConfig(
                 simulator.preset(sid), sessions=sessions, iterations=6, base_seed=2))]
    data = tmp_path / "two.jsonl"
    data.write_text(core.dumps_trajectories(trajs))
    out_dir = tmp_path / "ff"
    assert run_cli("analyze", "--in", str(data), "--strategy", "FF", "--out", str(out_dir)) == 0
    assert capsys.readouterr().out == f"analyze: 1 strategies, 20 sessions -> {out_dir}\n"
    assert len((out_dir / "pareto.csv").read_text().splitlines()) == 1 + 20
    assert run_cli("analyze", "--in", str(data), "--out", str(tmp_path / "all")) == 0
    assert capsys.readouterr().out.startswith("analyze: 2 strategies, 50 sessions -> ")


def test_analyze_pareto_csv_equals_rows_built_one_session_at_a_time(tmp_path):
    # two strategies in one writer-form file, their sessions interleaved and
    # of unequal lengths: runs of equal short lengths take the stacked
    # check, and sessions longer than pareto._BLOCK take the sweep
    iterations = {"SF": (20, 20, 600, 7, 20), "FF": (600, 11, 11)}
    assert max(map(max, iterations.values())) + 1 > pareto._BLOCK
    sets = {sid: [core.Trajectory(f"{sid}-{k}", sid, simulator.simulate_set(simulator.SimConfig(
                      simulator.preset(sid), iterations=its, base_seed=k)).values_matrix)
                  for k, its in enumerate(runs)]
            for sid, runs in iterations.items()}
    trajs = [t for pair in itertools.zip_longest(*sets.values()) for t in pair if t]
    data = tmp_path / "two.jsonl"
    data.write_text(core.dumps_trajectories(trajs))
    out_dir = tmp_path / "p"
    assert run_cli("analyze", "--in", str(data), "--only", "pareto", "--tail", "4",
                   "--out", str(out_dir)) == 0
    lines = ["strategy,session_id,efficiency,eq_1,eq_2,eq_3"]
    for sid, group in sets.items():
        for t in group:
            values = [pareto.pareto_efficiency(t), *pareto.equilibrium_estimate(t, 4)]
            lines.append(",".join([sid, t.session_id] + [format(float(x), ".17g")
                                                         for x in values]))
    assert (out_dir / "pareto.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_analyze_pareto_csv_quotes_ids_that_need_it(tmp_path):
    # ids holding the delimiter, a quote or a line break are quoted, and
    # csv.reader gives back every id and one field per header column
    rows = simulator.simulate_set(simulator.SimConfig(
        simulator.preset("SF"), iterations=6, base_seed=3)).values_matrix
    ids = {'S,"1"': ["a,b", 'q"x', "line\nbreak", "cr\rhere", "plain"], "T\r\n": ["c"]}
    trajs = [core.Trajectory(session_id, strategy, rows)
             for strategy, sessions in ids.items() for session_id in sessions]
    data = tmp_path / "odd.jsonl"
    data.write_text(core.dumps_trajectories(trajs))
    out_dir = tmp_path / "p"
    assert run_cli("analyze", "--in", str(data), "--only", "pareto", "--tail", "2",
                   "--out", str(out_dir)) == 0
    with open(out_dir / "pareto.csv", encoding="utf-8", newline="") as f:
        header, *table = csv.reader(f)
    assert header == ["strategy", "session_id", "efficiency", "eq_1", "eq_2", "eq_3"]
    assert [row[:2] for row in table] == [[strategy, session_id]
                                          for strategy, sessions in ids.items()
                                          for session_id in sessions]
    assert all(len(row) == len(header) for row in table)
    assert b"plain," in (out_dir / "pareto.csv").read_bytes()  # quoted only when needed


def test_analyze_pareto_csv_writes_percent_signs_literally(tmp_path):
    # each row is one `%` format, so a `%` in an id must not act as one
    rows = simulator.simulate_set(simulator.SimConfig(
        simulator.preset("SF"), iterations=6, base_seed=3)).values_matrix
    ids = {"%": ["%s", "%%"], "%s%%": ["%(x)s", "%"], "%(x)s": ["a,%s", "%d"]}
    trajs = [core.Trajectory(session_id, strategy, rows)
             for strategy, sessions in ids.items() for session_id in sessions]
    data = tmp_path / "percent.jsonl"
    data.write_text(core.dumps_trajectories(trajs))
    out_dir = tmp_path / "p"
    assert run_cli("analyze", "--in", str(data), "--only", "pareto", "--tail", "2",
                   "--out", str(out_dir)) == 0
    with open(out_dir / "pareto.csv", encoding="utf-8", newline="") as f:
        header, *table = csv.reader(f)
    assert [row[:2] for row in table] == [[strategy, session_id]
                                          for strategy, sessions in ids.items()
                                          for session_id in sessions]
    efficiency, *eq = (format(x, ".17g") for x in (pareto.pareto_efficiency(trajs[0]),
                                                  *pareto.equilibrium_estimate(trajs[0], 2)))
    assert all(row[2:] == [efficiency, *eq] for row in table)


def test_analyze_pareto_csv_still_refuses_a_non_finite_value(tmp_path):
    # no in-box data gives a non-finite row, so one is put in by a patch; the
    # error is `_fmt_float`'s NonFinite, a one-line data error
    data = tmp_path / "t.jsonl"
    assert run_cli("simulate", "--strategy", "SF", "--sessions", "3",
                   "--iterations", "5", "--out", str(data)) == 0
    script = (
        "import sys\n"
        "from driftlab import cli, pareto\n"
        "rows = pareto.efficiency_rows\n"
        "def with_nan(data, tail):\n"
        "    out = rows(data, tail)\n"
        "    out[1] = (*out[1][:3], float('nan'), *out[1][4:])\n"
        "    return out\n"
        "pareto.efficiency_rows = with_nan\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, "analyze", "--in", str(data),
                           "--only", "pareto", "--out", str(tmp_path / "r")],
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr == "analyze: pareto: NonFinite: cannot emit non-finite number nan\n"
    assert not (tmp_path / "r" / "pareto.csv").exists()


def _non_plain_values(report) -> list[str]:
    """The type names of the values in a report that are not a plain dict,
    list, str, bool, int, float or None, and of any dict key not a str."""
    todo, found = [report], []
    while todo:
        value = todo.pop()
        if type(value) is dict:
            found += [type(k).__name__ for k in value if type(k) is not str]
            todo += value.values()
        elif type(value) is list:
            todo += value
        elif type(value) not in (str, bool, int, float, type(None)):
            found.append(type(value).__name__)
    return found


def test_reports_hold_only_plain_python_values(tmp_path, simulated, monkeypatch):
    reports = []
    dumps_report = cli.dumps_report

    def spy(obj, indent=0):
        if indent == 0:
            reports.append(obj)
        return dumps_report(obj, indent)

    monkeypatch.setattr(cli, "dumps_report", spy)
    assert run_cli("analyze", "--in", str(simulated), "--out", str(tmp_path / "r")) == 0
    target = tmp_path / "sample.py"
    target.write_text("import os\ndef f(x):\n    assert x\n    return eval(x)\n")
    assert run_cli("score", "--src", str(target), "--json") == 0
    assert [sorted(r) for r in reports] == [["schema_version", "strategies"]] * 4 + [
        ["efficiency", "functionality", "rule_hits", "security"]]
    assert reports[-1]["rule_hits"]
    for report in reports:
        assert _non_plain_values(report) == [], report


# ---------------------------------------------------------------------------
# control
# ---------------------------------------------------------------------------

def test_control_default_schedule_emits_switches(tmp_path):
    prefix = tmp_path / "run"
    assert run_cli("control", "--iterations", "10", "--seed", "4",
                   "--out", str(prefix)) == 0
    events = [json.loads(line)
              for line in (tmp_path / "run.events.jsonl").read_text().splitlines()]
    assert sum(e["kind"] == "PhaseSwitch" for e in events) >= 2
    trajs = core.read_trajectories(tmp_path / "run.jsonl")
    assert len(trajs) == 1 and len(trajs[0].points) == 11


def test_control_schedule_none_sigma_zero_quiet(tmp_path):
    prefix = tmp_path / "quiet"
    assert run_cli("control", "--iterations", "10", "--seed", "4",
                   "--schedule", "none", "--sigma", "0", "--out", str(prefix)) == 0
    assert (tmp_path / "quiet.events.jsonl").read_text() == ""


def test_control_halt_on_intervention(tmp_path):
    prefix = tmp_path / "halted"
    assert run_cli("control", "--iterations", "10", "--seed", "6",
                   "--schedule", "none", "--strategy", "FF",
                   "--halt-on-intervention", "--out", str(prefix)) == 0
    events = [json.loads(line)
              for line in (tmp_path / "halted.events.jsonl").read_text().splitlines()]
    interventions = [e for e in events if e["kind"] == "Intervention"]
    assert interventions
    first = min(e["iteration"] for e in interventions)
    trajs = core.read_trajectories(tmp_path / "halted.jsonl")
    assert len(trajs[0].points) - 1 == first


def test_control_schedule_file(tmp_path):
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps([["FF", 2, 3], ["AI", 1, None]]))
    prefix = tmp_path / "filed"
    assert run_cli("control", "--iterations", "8", "--seed", "1",
                   "--schedule", str(sched), "--out", str(prefix)) == 0
    events = [json.loads(line)
              for line in (tmp_path / "filed.events.jsonl").read_text().splitlines()]
    assert any(e["kind"] == "PhaseSwitch" and e["detail"].startswith("FF->AI")
               for e in events)


def test_control_malformed_schedule_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('[["FF", 3, 2]]')
    assert run_cli("control", "--schedule", str(bad),
                   "--out", str(tmp_path / "x")) == 2
    assert "schedule" in capsys.readouterr().err


_ROW = "expected [str, int, int or null]"


@pytest.mark.parametrize("text, message", [
    ("null", "DomainError: schedule must be a non-empty list"),
    ("[]", "DomainError: schedule must be a non-empty list"),
    ('{"FF": [1, null]}', "DomainError: schedule must be a non-empty list"),
    ('[["FF", 0, 3]]', "DomainError: phase 'FF': min_iters must be >= 1"),
    ('[["FF", 3, 1]]', "DomainError: phase 'FF': max_iters < min_iters"),
    ('[["FF", 2.5, 3.5]]', f"DomainError: malformed schedule row ['FF', 2.5, 3.5]: {_ROW}"),
    ('[["FF", true, true]]', f"DomainError: malformed schedule row ['FF', True, True]: {_ROW}"),
    ('[[1, 2, 3]]', f"DomainError: malformed schedule row [1, 2, 3]: {_ROW}"),
    ('[["FF", 2]]', f"DomainError: malformed schedule row ['FF', 2]: {_ROW}"),
    ('[["FF", 1, null], ["XX", 1, null]]', "unknown strategies ['XX']"),
    ("[[", "JSONDecodeError: Expecting value: line 1 column 3 (char 2)"),
])
def test_control_schedule_file_errors_keep_their_lines(tmp_path, capsys, text, message):
    # the schedule is checked before the window, and names the file once
    path = tmp_path / "s.json"
    path.write_text(text)
    assert run_cli("control", "--schedule", str(path), "--window", "1",
                   "--out", str(tmp_path / "c")) == 2
    assert capsys.readouterr().err == f"control: bad schedule file {str(path)!r}: {message}\n"
    assert not list(tmp_path.glob("c*"))


def test_control_deterministic(tmp_path):
    p1, p2 = tmp_path / "d1", tmp_path / "d2"
    for p in (p1, p2):
        assert run_cli("control", "--iterations", "10", "--seed", "12",
                       "--out", str(p)) == 0
    assert (tmp_path / "d1.jsonl").read_bytes() == (tmp_path / "d2.jsonl").read_bytes()
    assert (tmp_path / "d1.events.jsonl").read_bytes() == (tmp_path / "d2.events.jsonl").read_bytes()


def _control_bytes(tmp_path, name, *flags):
    assert run_cli("control", *flags, "--out", str(tmp_path / name)) == 0
    return ((tmp_path / f"{name}.jsonl").read_bytes(),
            (tmp_path / f"{name}.events.jsonl").read_bytes())


def _library_bytes(sim, cfg, catalog):
    traj, events = controller.run_controlled(sim, cfg, catalog)
    return (core.dumps_trajectories([traj]).encode(),
            controller.dumps_events(events).encode())


def test_control_sigma_reaches_every_scheduled_phase(tmp_path):
    flags = ("--iterations", "10", "--seed", "7")
    wide = _control_bytes(tmp_path, "wide", *flags, "--sigma", "3")
    assert wide[0] != _control_bytes(tmp_path, "narrow", *flags, "--sigma", "0.5")[0]
    sim = simulator.SimConfig(strategy=simulator.preset("AI", 3.0), iterations=10, base_seed=7)
    cfg = controller.ControllerConfig(phase_schedule=controller.phased_schedule_default())
    assert wide == _library_bytes(sim, cfg, simulator.preset_catalog(3.0))


def test_control_sigma_reaches_the_fallback_after_a_switch(tmp_path):
    got = _control_bytes(tmp_path, "sf", "--schedule", "none", "--strategy", "SF",
                         "--sigma", "3", "--iterations", "20", "--seed", "7")
    switches = [json.loads(line)["iteration"] for line in got[1].decode().splitlines()
                if "switching SF->AI" in line]
    assert switches and switches[0] < 20
    sim = simulator.SimConfig(strategy=simulator.preset("SF", 3.0), iterations=20, base_seed=7)
    cfg = controller.ControllerConfig()
    assert got == _library_bytes(sim, cfg, simulator.preset_catalog(3.0))


def test_control_scheduled_run_starts_at_its_first_phase_width(tmp_path):
    # a 2-D --strategy under the default schedule: the run starts at FF's
    # width, as the step-by-step reference does
    spec = tmp_path / "two_d.json"
    two_d = StrategySpec("TD", np.diag([-0.5, -0.3]), np.ones(2), 0.5 * np.eye(2))
    spec.write_text(json.dumps(two_d.to_dict()))
    got = _control_bytes(tmp_path, "td", "--strategy", str(spec), "--iterations", "10")
    sim = simulator.SimConfig(strategy=two_d, iterations=10)
    cfg = controller.ControllerConfig(phase_schedule=controller.phased_schedule_default())
    traj, events = reference_run_controlled(sim, cfg, simulator.preset_catalog())
    assert got == (core.dumps_trajectories([traj]).encode(),
                   controller.dumps_events(events).encode())


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def test_score_single_file(tmp_path, capsys):
    target = tmp_path / "sample.py"
    target.write_text("x = eval(input())\n")
    assert run_cli("score", "--src", str(target), "--expected-length", "5") == 0
    out = capsys.readouterr().out
    assert "security=3" in out


def test_score_json_output(tmp_path, capsys):
    target = tmp_path / "sample.py"
    target.write_text("def f():\n    return 1\n")
    assert run_cli("score", "--src", str(target), "--expected-length", "5",
                   "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"security", "efficiency", "functionality", "rule_hits"}


def test_score_json_writes_an_empty_rule_hit_list(tmp_path, capsys):
    target = tmp_path / "plain.py"
    target.write_text("x = 1\n")
    assert run_cli("score", "--src", str(target), "--json") == 0
    out = capsys.readouterr().out
    assert '\n  "rule_hits": []\n}\n' in out and json.loads(out)["rule_hits"] == []


def test_score_src_reads_a_file_with_a_bom_as_python_does(tmp_path, capsys):
    source = b"def f(x):\n    return x\n"
    (tmp_path / "bom.py").write_bytes(b"\xef\xbb\xbf" + source)
    (tmp_path / "plain.py").write_bytes(source)
    outs = []
    for name in ("bom.py", "plain.py"):
        assert run_cli("score", "--src", str(tmp_path / name), "--json") == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and json.loads(outs[0])["efficiency"] == 10


def _input_file_cases(tmp_path) -> dict:
    """For each kind of input file: its bytes and the argv of a run that
    reads it as {inp} and writes under {out}."""
    source = tmp_path / "src.py"
    source.write_text("def f(x):\n    return eval(x)\n")
    spec = StrategySpec("CUSTOM", np.diag([-0.5, -0.4]), [1.0, 1.0], 0.2 * np.eye(2))
    sims = simulator.simulate_set(simulator.SimConfig(
        strategy=simulator.preset("SF"), sessions=20, iterations=8, base_seed=4))
    return {
        "config": (b"sessions = 3\r\niterations = 4\nseed = 2\n",
                   ["simulate", "--config", "{inp}", "--out", "{out}/t.jsonl"]),
        "strategy": (json.dumps(spec.to_dict()).encode(),
                     ["simulate", "--strategy", "{inp}", "--sessions", "2", "--iterations", "4",
                      "--out", "{out}/t.jsonl"]),
        "schedule": (b'[["SF", 2, 4], ["FF", 1, null]]',
                     ["control", "--schedule", "{inp}", "--iterations", "30", "--out", "{out}/c"]),
        "manifest": (f"path,expected_length\n{source},3\n{source},1\n".encode(),
                     ["score", "--manifest", "{inp}", "--out", "{out}/s.jsonl"]),
        "analyze-in": (core.dumps_trajectories(sims).encode(),
                       ["analyze", "--in", "{inp}", "--out", "{out}/a"]),
    }


@pytest.mark.parametrize("kind", ["config", "strategy", "schedule", "manifest", "analyze-in"])
def test_every_input_file_drops_a_leading_bom(tmp_path, kind):
    data, argv = _input_file_cases(tmp_path)[kind]
    outs = []
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        path, out = tmp_path / f"{name}.in", tmp_path / name
        path.write_bytes(bom + data)
        out.mkdir()
        assert run_cli(*[arg.format(inp=path, out=out) for arg in argv]) == 0
        outs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert outs[0] and outs[0] == outs[1]


@pytest.mark.parametrize("kind", ["score", "config", "analyze-in"])
def test_an_input_file_drops_only_one_leading_bom(tmp_path, capsys, kind):
    # the second BOM is text: Python rejects such a source, a config key
    # holds it, and JSON rejects such a record
    sims = simulator.simulate_set(simulator.SimConfig(
        strategy=simulator.preset("SF"), sessions=3, iterations=4, base_seed=4))
    data, argv, code, err = {
        "score": (b"def f(x):\n    return x\n", ["score", "--src", "{inp}", "--json"], 0, ""),
        "config": (b"sessions = 3\niterations = 4\n",
                   ["simulate", "--config", "{inp}", "--out", "{out}/t.jsonl"], 2,
                   "simulate: unknown config key(s) ['\\ufeffsessions'] in '{inp}'\n"),
        "analyze-in": (core.dumps_trajectories(sims).encode(),
                       ["analyze", "--in", "{inp}", "--out", "{out}/a"], 1,
                       "analyze: RecordFormatError: line 1: malformed record (Unexpected UTF-8 "
                       "BOM (decode using utf-8-sig): line 1 column 1 (char 0))\n"),
    }[kind]
    path = tmp_path / "two-boms.in"
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbf" + data)
    assert run_cli(*[arg.format(inp=path, out=tmp_path) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == err.format(inp=path)
    if kind == "score":
        report = json.loads(captured.out)
        assert (report["security"], report["efficiency"], report["functionality"]) == (5, 2, 2.5)
    else:
        assert not list(tmp_path.glob("t.jsonl")) and not (tmp_path / "a").exists()


@pytest.mark.parametrize("ch", ["\x85", "\u2028", "\u2029"])
def test_analyze_reads_a_raw_separator_inside_an_id(tmp_path, ch):
    # the writer escapes it; a JSON Lines file may hold it raw in a string
    trajs = [core.Trajectory(f"s{i}{ch}", "SF", t.values_matrix) for i, t in enumerate(
        simulator.simulate_set(simulator.SimConfig(
            strategy=simulator.preset("SF"), sessions=20, iterations=8, base_seed=4)))]
    escaped = core.dumps_trajectories(trajs)
    raw = escaped.replace(json.dumps(ch)[1:-1], ch)
    assert raw != escaped
    bundles = []
    for name, text in (("escaped", escaped), ("raw", raw)):
        (tmp_path / f"{name}.jsonl").write_text(text, encoding="utf-8")
        assert run_cli("analyze", "--in", str(tmp_path / f"{name}.jsonl"),
                       "--out", str(tmp_path / name)) == 0
        bundles.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert bundles[0] == bundles[1]
    assert ch.encode() in bundles[0]["pareto.csv"]


def test_score_src_expected_length_defaults_to_1(tmp_path, capsys):
    target = tmp_path / "sample.py"
    target.write_text("def f():\n    return 1\n")
    assert run_cli("score", "--src", str(target), "--json") == 0
    default = capsys.readouterr().out
    assert run_cli("score", "--src", str(target), "--expected-length", "1", "--json") == 0
    assert capsys.readouterr().out == default
    assert run_cli("score", "--src", str(target), "--expected-length", "50", "--json") == 0
    assert capsys.readouterr().out != default


def test_score_requires_src_or_manifest(capsys):
    assert run_cli("score") == 2


def test_score_manifest_without_metadata(tmp_path, capsys):
    f1 = tmp_path / "a.py"
    f1.write_text("x = 1\n")
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"path,expected_length\n{f1},5\n")
    assert run_cli("score", "--manifest", str(manifest)) == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["path"] == str(f1)
    assert 0.0 <= rec["security"] <= 10.0


def test_score_manifest_header_is_the_first_non_blank_row(tmp_path, capsys):
    f1 = tmp_path / "a.py"
    f1.write_text("x = 1\n")
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"path,expected_length\n{f1},5\n")
    assert run_cli("score", "--manifest", str(manifest)) == 0
    want = capsys.readouterr().out
    manifest.write_text(f"\n\npath,expected_length\n\n{f1},5\n")
    assert run_cli("score", "--manifest", str(manifest)) == 0
    assert capsys.readouterr().out == want


_MANIFEST_FIELDS = {"path": "a.py", "expected_length": "3", "session_id": "s0",
                    "strategy": "X", "iteration": "0"}


@pytest.mark.parametrize("header", [
    "path,expected_length,path",
    "expected_length,path,expected_length",
    "path,expected_length,session_id,strategy,iteration,session_id",
    "strategy,path,expected_length,session_id,strategy,iteration",
    "iteration,path,expected_length,session_id,strategy,iteration",
])
def test_score_manifest_refuses_a_read_column_named_twice(tmp_path, capsys, monkeypatch,
                                                          header):
    # a row keyed by the header keeps only the last of two same-named fields,
    # so `a.py,3,b.py` under `path,expected_length,path` would score b.py alone
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text("y = 2\n")
    names = header.split(",")
    column = next(name for name in names if names.count(name) > 1)
    values = [_MANIFEST_FIELDS[name] for name in names]
    values[len(names) - 1 - names[::-1].index(column)] = "b.py" if column == "path" else "4"
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"{header}\n{','.join(values)}\n")
    out = tmp_path / "scored.jsonl"
    monkeypatch.chdir(tmp_path)
    assert run_cli("score", "--manifest", str(manifest), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"score: manifest {str(manifest)!r} repeats the {column} column\n")
    assert not out.exists()


def test_score_manifest_keeps_a_repeated_column_it_does_not_read(tmp_path, capsys):
    f1 = tmp_path / "a.py"
    f1.write_text("x = 1\n")
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"path,expected_length\n{f1},5\n")
    assert run_cli("score", "--manifest", str(manifest)) == 0
    want = capsys.readouterr().out
    manifest.write_text(f"note,path,expected_length,note,,\nx,{f1},5,y,,\n")
    assert run_cli("score", "--manifest", str(manifest)) == 0
    assert capsys.readouterr().out == want


def test_score_manifest_with_metadata_emits_trajectories(tmp_path):
    files = []
    for i in range(3):
        f = tmp_path / f"iter{i}.py"
        f.write_text("def f():\n    return %d\n" % i)
        files.append(f)
    manifest = tmp_path / "m.csv"
    rows = ["path,expected_length,session_id,strategy,iteration"]
    rows += [f"{f},5,s000,AI,{i}" for i, f in enumerate(files)]
    manifest.write_text("\n".join(rows) + "\n")
    out = tmp_path / "scored.jsonl"
    assert run_cli("score", "--manifest", str(manifest), "--out", str(out)) == 0
    trajs = core.read_trajectories(out)
    assert len(trajs) == 1
    assert len(trajs[0].points) == 3
    assert trajs[0].strategy_id == "AI"


def test_missing_input_file_is_runtime_error(tmp_path, capsys):
    assert run_cli("score", "--src", str(tmp_path / "ghost.py")) == 1


# ---------------------------------------------------------------------------
# module execution and report formatting
# ---------------------------------------------------------------------------

def test_module_invocation_matches_direct_call(tmp_path):
    out = tmp_path / "m.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "driftlab.cli", "simulate", "--strategy", "EF",
         "--sessions", "2", "--iterations", "3", "--seed", "8", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    direct = tmp_path / "d.jsonl"
    assert run_cli("simulate", "--strategy", "EF", "--sessions", "2",
                   "--iterations", "3", "--seed", "8", "--out", str(direct)) == 0
    assert out.read_bytes() == direct.read_bytes()


def test_package_runs_as_a_module_with_one_line_errors():
    proc = subprocess.run(
        [sys.executable, "-m", "driftlab", "control", "--window", "9", "--iterations", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert "--window 9 > --iterations 3" in proc.stderr


def test_usage_error_from_argparse_is_exit_2(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "driftlab.cli", "simulate", "--bogus-flag"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_report_floats_have_17_significant_digits():
    text = cli.dumps_report({"v": 1.0 / 3.0})
    assert "0.33333333333333331" in text


def test_dumps_report_rejects_non_finite():
    with pytest.raises(core.NonFinite, match="cannot emit non-finite number nan"):
        cli.dumps_report({"v": float("nan")})


def test_score_manifest_gapped_iterations_exit_1(tmp_path, capsys):
    # a second session's row puts iteration 2 inside the row range 0..2, so
    # the gap rule, not the row-range rule, rejects s000's rows
    f = tmp_path / "a.py"
    f.write_text("def f():\n    return 1\n")
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,expected_length,session_id,strategy,iteration\n"
                        f"{f},5,s000,AI,0\n{f},5,s000,AI,2\n{f},5,s001,AI,0\n")
    out = tmp_path / "scored.jsonl"
    assert run_cli("score", "--manifest", str(manifest), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == ("score: RecordFormatError: manifest session 's000' has iterations [0, 2], "
                   "expected 0..1\n")
    assert not out.exists()


def test_score_manifest_duplicated_iteration_exit_1(tmp_path, capsys):
    f = tmp_path / "a.py"
    f.write_text("def f():\n    return 1\n")
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,expected_length,session_id,strategy,iteration\n"
                        f"{f},5,s000,AI,0\n{f},5,s000,AI,1\n{f},5,s000,AI,1\n")
    assert run_cli("score", "--manifest", str(manifest)) == 1
    assert "RecordFormatError" in capsys.readouterr().err


def test_score_manifest_matches_trajectory_writer(tmp_path, capsys):
    files = []
    for i, body in enumerate(["x = eval(input())\n", "def f():\n    return 1\n"]):
        f = tmp_path / f"{i}.py"
        f.write_text(body)
        files.append(f)
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,expected_length,session_id,strategy,iteration\n"
                        f"{files[1]},5,s000,AI,1\n{files[0]},5,s000,AI,0\n")
    assert run_cli("score", "--manifest", str(manifest)) == 0
    text = capsys.readouterr().out
    assert core.dumps_trajectories(core.loads_trajectories(text)) == text
    assert [json.loads(line)["iteration"] for line in text.splitlines()] == [0, 1]


# ---------------------------------------------------------------------------
# score --manifest over several processes
# ---------------------------------------------------------------------------

def _load_corpus_writer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.write_corpus


write_corpus = _load_corpus_writer()


def _seeded_manifest(workdir, form: str, files: int = 13) -> Path:
    """A manifest of a seeded corpus that fires every scorer rule, its paths
    relative to `workdir`. In trajectory form its rows give three sessions
    and come in a shuffled order."""
    write_corpus(workdir, {"files": files, "lines": 100 * files}, 35)
    manifest = workdir / "manifest.csv"
    if form == "trajectory":
        with open(manifest, newline="") as f:
            rows = [(row["path"], row["expected_length"], f"s{i % 3}", ("AI", "SF", "FF")[i % 3],
                     i // 3) for i, row in enumerate(csv.DictReader(f))]
        random.Random(35).shuffle(rows)
        manifest.write_text("path,expected_length,session_id,strategy,iteration\n"
                            + "".join("%s,%s,%s,%s,%d\n" % row for row in rows))
    return manifest


def _scored_manifest(manifest: Path, out: Path, capsys) -> tuple[int, str, bytes | None]:
    code = run_cli("score", "--manifest", str(manifest), "--out", str(out))
    return code, capsys.readouterr().err, out.read_bytes() if out.exists() else None


def _manifest_runs(manifest: Path, parts: int) -> list[list[int]]:
    """The indices of the manifest's rows in each run `score` cuts at
    `parts` CPUs, its paths read from the working directory."""
    rows = cli._manifest_rows(manifest.read_text())[1]
    ends = list(itertools.accumulate(cli._file_bytes(row) for _, row in rows))
    return core._runs(list(range(len(rows))), ends, parts)


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("form", ["plain", "trajectory", "one file of most bytes"])
def test_score_manifest_split_over_processes_writes_the_inline_bytes(
        tmp_path, monkeypatch, capsys, cpus, parts, form):
    monkeypatch.chdir(tmp_path)
    manifest = _seeded_manifest(tmp_path, "plain" if form == "one file of most bytes" else form)
    if form == "one file of most bytes":  # the first: one run holds it alone
        first = tmp_path / "corpus" / "f000.py"
        first.write_text(first.read_text() * 60)
    runs = _manifest_runs(manifest, parts)
    assert sum(runs, []) == list(range(13))
    assert len(runs) == (2 if form == "one file of most bytes" else parts)
    cpus(1)
    inline = _scored_manifest(manifest, tmp_path / "inline.jsonl", capsys)
    assert cpus.forks == [] and inline[0] == 0 and inline[1] == ""
    cpus(parts)
    assert _scored_manifest(manifest, tmp_path / "split.jsonl", capsys) == inline
    assert len(cpus.forks) == len(runs) - 1


_BAD_ROWS = {  # kind -> (path, expected_length, a fragment of its error line)
    "missing file": ("corpus/absent.py", "5", "No such file or directory: 'corpus/absent.py'"),
    "not UTF-8": ("latin1.py", "5", "latin1.py: not UTF-8 text"),
    "expected_length 0": ("corpus/f000.py", "0", "expected_length must be >= 1, got 0"),
}


# placement -> the (run, row of the run) of each bad row, None for the
# run's middle row; run 0 is the parent's
_PLACEMENTS = {
    "first row": [(0, 0)],
    "parent": [(0, None)],
    "child": [(1, None)],
    "last row": [(-1, -1)],
    "parent then child": [(0, None), (-1, None)],
    "child then child": [(1, None), (2, None)],
}


@pytest.mark.parametrize("parts, placement", [(parts, placement) for parts in (2, 3)
                                              for placement in _PLACEMENTS
                                              if placement != "child then child" or parts == 3])
@pytest.mark.parametrize("kind", list(_BAD_ROWS))
def test_score_manifest_split_over_processes_fails_on_the_first_failing_row(
        tmp_path, monkeypatch, capsys, cpus, parts, kind, placement):
    kinds = list(_BAD_ROWS)
    monkeypatch.chdir(tmp_path)
    manifest = _seeded_manifest(tmp_path, "plain")
    (tmp_path / "latin1.py").write_bytes(b"x = '\xe9'\n")
    runs = _manifest_runs(manifest, parts)
    at = [runs[run][len(runs[run]) // 2 if row is None else row]
          for run, row in _PLACEMENTS[placement]]
    lines = manifest.read_text().splitlines()
    for j, row in enumerate(at):  # a second bad row is of the next kind
        path, expected_length, _ = _BAD_ROWS[kinds[(kinds.index(kind) + j) % 3]]
        lines[1 + row] = f"{path},{expected_length}"
    manifest.write_text("\n".join(lines) + "\n")
    # the bad rows, which change the files' bytes, stay in their runs
    runs = _manifest_runs(manifest, parts)
    assert len(runs) == parts
    assert all(row in runs[run] for row, (run, _) in zip(at, _PLACEMENTS[placement]))
    cpus(1)
    inline = _scored_manifest(manifest, tmp_path / "inline.jsonl", capsys)
    assert inline[0] == 1 and inline[2] is None
    assert inline[1].startswith("score: ") and inline[1].count("\n") == 1
    assert _BAD_ROWS[kind][2] in inline[1]
    cpus(parts)
    assert _scored_manifest(manifest, tmp_path / "split.jsonl", capsys) == inline
    assert len(cpus.forks) == parts - 1


@pytest.mark.parametrize("death", ["exit before writing", "bytes that do not unpickle",
                                   "no fork"])
def test_score_manifest_scores_again_what_a_dead_child_did_not_send(
        tmp_path, monkeypatch, capsys, cpus, death):
    monkeypatch.chdir(tmp_path)
    manifest = _seeded_manifest(tmp_path, "trajectory")
    cpus(1)
    inline = _scored_manifest(manifest, tmp_path / "inline.jsonl", capsys)
    parent = os.getpid()
    if death == "exit before writing":
        scored = cli._score_rows

        def exiting(rows):
            if os.getpid() != parent:
                os._exit(1)
            return scored(rows)

        monkeypatch.setattr(cli, "_score_rows", exiting)
    elif death == "bytes that do not unpickle":
        dumps = pickle.dumps
        monkeypatch.setattr(pickle, "dumps", lambda obj: dumps(obj)[:-7])
    cpus(3)
    if death == "no fork":  # as at a process limit: the parent scores every part
        fork, failed = os.fork, [0]

        def refused():
            if failed[0] == 0:
                failed[0] = 1
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", refused)
    assert _scored_manifest(manifest, tmp_path / "split.jsonl", capsys) == inline
    assert len(cpus.forks) == (1 if death == "no fork" else 2)


def test_score_manifest_interrupted_in_the_parent_reaps_its_children(
        tmp_path, monkeypatch, cpus):
    monkeypatch.chdir(tmp_path)
    manifest = _seeded_manifest(tmp_path, "plain")
    parent, scored = os.getpid(), cli._score_rows

    def interrupted(rows):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return scored(rows)

    monkeypatch.setattr(cli, "_score_rows", interrupted)
    cpus(3)
    with pytest.raises(KeyboardInterrupt):
        run_cli("score", "--manifest", str(manifest), "--out", "split.jsonl")
    assert len(cpus.forks) == 2 and not (tmp_path / "split.jsonl").exists()


@pytest.mark.parametrize("case", ["one CPU", "under the cut-off", "one row", "no os.fork",
                                  "no CPU set, one CPU"])
def test_score_manifest_forks_nothing_where_a_split_cannot_pay(
        tmp_path, monkeypatch, capsys, cpus, case):
    monkeypatch.chdir(tmp_path)
    manifest = _seeded_manifest(tmp_path, "plain", files=1 if case == "one row" else 13)
    cpus(1)
    inline = _scored_manifest(manifest, tmp_path / "inline.jsonl", capsys)
    size = sum(p.stat().st_size for p in (tmp_path / "corpus").iterdir())
    cpus(1 if case == "one CPU" else 3, size + 1 if case == "under the cut-off" else 0)
    if case == "no os.fork":
        monkeypatch.delattr(os, "fork")
    if case == "no CPU set, one CPU":
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert _scored_manifest(manifest, tmp_path / "split.jsonl", capsys) == inline
    assert cpus.forks == []
    if case == "under the cut-off":  # at the cut-off exactly, it splits
        cpus(3, size)
        assert _scored_manifest(manifest, tmp_path / "split.jsonl", capsys) == inline
        assert len(cpus.forks) == 2


def test_importing_the_cli_loads_no_process_pool():
    # driftlab forks by hand (`core._fork_map`): a pool's import would cost
    # every command more than a split saves
    script = ("import sys, driftlab.cli; print(sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    assert done.stdout == "[]\n"


def test_analyze_mixed_widths_exit_1_before_writing(tmp_path, capsys):
    spec = StrategySpec("P2", np.diag([-0.5, -0.4]), [2.5, 2.0], 0.3 * np.eye(2))
    spec_path = tmp_path / "p2.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    narrow, wide = tmp_path / "narrow.jsonl", tmp_path / "wide.jsonl"
    assert run_cli("simulate", "--strategy", str(spec_path), "--sessions", "20",
                   "--iterations", "10", "--seed", "1", "--out", str(narrow)) == 0
    assert run_cli("simulate", "--strategy", "AI", "--sessions", "20",
                   "--iterations", "10", "--seed", "2", "--out", str(wide)) == 0
    renamed = [core.Trajectory("w" + t.session_id, t.strategy_id, t.values_matrix)
               for t in core.read_trajectories(wide)]
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(narrow.read_text() + core.dumps_trajectories(renamed))
    capsys.readouterr()
    out_dir = tmp_path / "report"
    assert run_cli("analyze", "--in", str(mixed), "--out", str(out_dir)) == 1
    err = capsys.readouterr().err
    assert "DimensionMismatch" in err and err.count("\n") == 1
    assert not out_dir.exists()


def test_cli_paths_never_build_per_point_objects(tmp_path, monkeypatch):
    def forbidden(self):
        raise AssertionError("Trajectory.points used on a CLI path")

    checked = []  # session ids given to the checked constructor
    init = core.Trajectory.__init__

    def counted(self, session_id, *args):
        checked.append(session_id)
        init(self, session_id, *args)

    monkeypatch.setattr(core.Trajectory, "points", property(forbidden))
    monkeypatch.setattr(core.Trajectory, "__init__", counted)
    data = tmp_path / "t.jsonl"
    assert run_cli("simulate", "--strategy", "SF", "--sessions", "20",
                   "--iterations", "8", "--seed", "3", "--out", str(data)) == 0
    assert run_cli("analyze", "--in", str(data), "--out", str(tmp_path / "r")) == 0
    # the simulated set and the writer-form text are checked as whole
    # arrays; no session is copied and checked on its own
    assert checked == []
    assert run_cli("control", "--iterations", "12", "--seed", "3",
                   "--out", str(tmp_path / "c")) == 0


def _walked_outputs(workdir, monkeypatch, capsys) -> tuple[dict, str]:
    """The files and stdout of `simulate` with one session and with many,
    `analyze` of the second file, and `control` under the default
    schedule, with none, and halting, all run in workdir."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    for argv in (("simulate", "--strategy", "SF", "--sessions", "1", "--iterations", "12",
                  "--seed", "5", "--out", "one.jsonl"),
                 ("simulate", "--strategy", "AI", "--sessions", "30", "--iterations", "10",
                  "--seed", "3", "--out", "many.jsonl"),
                 ("analyze", "--in", "many.jsonl", "--out", "report"),
                 ("control", "--iterations", "10", "--seed", "4", "--out", "default"),
                 ("control", "--schedule", "none", "--strategy", "SF", "--sigma", "3",
                  "--iterations", "20", "--seed", "7", "--out", "none"),
                 ("control", "--iterations", "10", "--seed", "6", "--schedule", "none",
                  "--strategy", "FF", "--halt-on-intervention", "--out", "halted")):
        assert run_cli(*argv) == 0
    files = {str(p.relative_to(workdir)): p.read_bytes()
             for p in sorted(workdir.rglob("*")) if p.is_file()}
    return files, capsys.readouterr().out


def test_simulated_and_controlled_rows_are_checked_by_the_walk_alone(tmp_path, monkeypatch,
                                                                       capsys):
    checked = _walked_outputs(tmp_path / "checked", monkeypatch, capsys)
    session_cfg = simulator.SimConfig(simulator.preset("FF"), sessions=4, iterations=9,
                                      base_seed=2)
    session = core.dumps_trajectories([simulator.simulate_session(session_cfg, 3)])
    halting = (simulator.SimConfig(simulator.preset("FF"), iterations=10, base_seed=6),
               controller.ControllerConfig())
    reference = reference_run_controlled(*halting, simulator.preset_catalog(),
                                         halt_on_intervention=True)

    def refused(self, *args):
        raise AssertionError("walked rows given to the checked Trajectory constructor")

    monkeypatch.setattr(core.Trajectory, "__init__", refused)
    assert _walked_outputs(tmp_path / "walked", monkeypatch, capsys) == checked
    assert len(checked[0]) == 13  # two simulations, five report files, three control runs
    assert core.dumps_trajectories([simulator.simulate_session(session_cfg, 3)]) == session
    traj, events = controller.run_controlled(*halting, halt_on_intervention=True)
    assert (traj, events) == reference
    assert not traj.values_matrix.flags.writeable and traj.values_matrix.base is None
    assert events[-1].kind is controller.EventKind.INTERVENTION
    assert len(traj) - 1 == events[-1].iteration < halting[0].iterations


def _bad_invocation(tmp_path, case):
    if case == "simulate-sessions-0":
        return ["simulate", "--sessions", "0", "--out", str(tmp_path / "x.jsonl")]
    if case == "simulate-iterations-0":
        return ["simulate", "--iterations", "0", "--out", str(tmp_path / "x.jsonl")]
    if case == "control-window-1":
        return ["control", "--window", "1", "--out", str(tmp_path / "c")]
    run_flags = {
        "simulate-dt-inf": ("--dt", "inf"),
        "simulate-sigma-inf": ("--sigma", "inf"),
        "simulate-sigma-nan": ("--sigma", "nan"),
        "simulate-seed-above-64-bits": ("--seed", str(2**64 + 5)),
        "simulate-seed-negative": ("--seed", "-1"),
        "control-dt-inf": ("--dt", "inf"),
        "control-sigma-inf": ("--sigma", "inf"),
        "control-seed-above-64-bits": ("--seed", str(2**64)),
        "control-seed-negative": ("--seed", "-1"),
        # more states than one array can index: rejected before any allocation
        "simulate-iterations-above-intp": ("--iterations", str(10**20)),
        "control-iterations-above-intp": ("--iterations", str(10**20)),
        # within that range, but more bytes than any machine holds
        "simulate-iterations-out-of-memory": ("--iterations", str(2**58)),
        "control-iterations-out-of-memory": ("--schedule", "none", "--iterations", str(2**58)),
        # the first step overflows before the clip
        "control-dt-overflows": ("--dt", "1e308", "--iterations", "5"),
        # a number that the error line echoes
        "simulate-sessions-60-digits": ("--sessions", "9" * 60),
        "simulate-sessions-negative-60-digits": ("--sessions", "-" + "9" * 60),
        "simulate-iterations-60-digits": ("--iterations", "9" * 60),
        "simulate-seed-60-digits": ("--seed", "9" * 60),
        "control-iterations-60-digits": ("--iterations", "9" * 60),
        "control-seed-60-digits": ("--seed", "9" * 60),
        "control-window-60-digits": ("--window", "9" * 60),
        "control-window-negative-60-digits": ("--window", "-" + "9" * 60),
    }
    if case in run_flags:
        command = case.split("-")[0]
        out = tmp_path / ("x.jsonl" if command == "simulate" else "c")
        return [command, *run_flags[case], "--out", str(out)]
    analyze_flags = {
        "analyze-tail-0": ("--tail", "0"),
        "analyze-zero-tol-0": ("--zero-tol", "0"),
        "analyze-zero-tol-inf": ("--zero-tol", "inf"),
        "analyze-dt-0": ("--dt", "0"),
        "analyze-dt-negative": ("--dt", "-0.5"),
        "analyze-dt-inf": ("--dt", "inf"),
        # a value that the error line echoes
        "analyze-long-strategy": ("--strategy", "Z" * 5000),
        "analyze-long-only": ("--only", "Z" * 5000),
        "analyze-tail-60-digits": ("--tail", "9" * 60),
        "analyze-tail-negative-60-digits": ("--tail", "-" + "9" * 60),
    }
    if case in analyze_flags:
        data = tmp_path / "t.jsonl"
        assert run_cli("simulate", "--strategy", "AI", "--sessions", "10",
                       "--iterations", "6", "--seed", "1", "--out", str(data)) == 0
        flag, value = analyze_flags[case]
        return ["analyze", "--in", str(data), flag, value, "--out", str(tmp_path / "r")]
    if case == "analyze-no-records":
        data = tmp_path / "empty.jsonl"
        data.write_text("")
        return ["analyze", "--in", str(data), "--out", str(tmp_path / "r")]
    if case == "analyze-deep-nesting":
        data = tmp_path / "deep.jsonl"
        data.write_text("[" * 100_000 + "\n")
        return ["analyze", "--in", str(data), "--out", str(tmp_path / "r")]
    if case in ("analyze-long-session-not-contiguous", "analyze-iteration-long-list"):
        # a long id, or a long iteration value, that the error line echoes
        long_id, other = "s" * 5000, "t"
        if case == "analyze-iteration-long-list":
            long_id, other = "s", None
        sessions = [long_id, other, long_id] if other else [long_id]
        records = [{"session_id": sid, "strategy": "AI", "iteration": t,
                    "objectives": [5.0, 5.0, 5.0]} for sid in sessions for t in range(2)]
        if case == "analyze-iteration-long-list":
            records[1]["iteration"] = [0] * 3000
        data = tmp_path / "long.jsonl"
        data.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        return ["analyze", "--in", str(data), "--out", str(tmp_path / "r")]
    if case in ("analyze-long-row-outside-box", "analyze-long-mixed-point-shapes",
                "analyze-long-mixed-dimensions"):
        # a row, or a list of widths, that the error line echoes
        if case == "analyze-long-row-outside-box":
            sessions = [("s", [[11.0] * 3000] * 2)]
        elif case == "analyze-long-mixed-point-shapes":
            sessions = [("s", [[5.0] * width for width in range(2, 502)])]
        else:
            sessions = [(f"s{width}", [[5.0] * width] * 2) for width in range(2, 502)]
        records = [{"session_id": sid, "strategy": "AI", "iteration": t, "objectives": row}
                   for sid, rows in sessions for t, row in enumerate(rows)]
        data = tmp_path / "long.jsonl"
        data.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        return ["analyze", "--in", str(data), "--out", str(tmp_path / "r")]
    if case == "config-missing":
        return ["simulate", "--config", str(tmp_path / "missing.cfg"),
                "--out", str(tmp_path / "x.jsonl")]
    if case == "config-is-directory":
        return ["simulate", "--config", str(tmp_path), "--out", str(tmp_path / "x.jsonl")]
    if case == "config-not-int":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sessions = abc\n")
        return ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.jsonl")]
    configs = {
        "config-not-utf8": b"strategy = \xe9t\xe9\n",
        "config-no-equals": b"sessions 2\n",
        "config-unknown-key": b"sessions = 2\nsesions = 5\n",
        "config-repeated-key": b"sessions = 2\nsessions = 5\n",
        # a value, or a key, that the error line echoes
        "config-long-value": b"sessions = 1" + b"0" * 4999 + b"\n",
        "config-long-unknown-key": b"k" * 5000 + b" = 1\n",
        "config-long-repeated-key": (b"k" * 5000 + b" = 1\n") * 2,
    }
    if case in configs:
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(configs[case])
        return ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.jsonl")]
    schedules = {
        "control-schedule-unknown-strategy": '[["XX", 1, null]]',
        "control-schedule-float-count": '[["FF", 2.7, null]]',
        "control-schedule-bool-count": '[["FF", 1, true]]',
        "control-schedule-string-count": '[["FF", "2", null]]',
        "control-schedule-deep-nesting": "[" * 100_000,
        # a row, or a strategy id, that the error line echoes
        "control-schedule-long-row": json.dumps([["FF", 1, list(range(3000))]]),
        "control-schedule-long-phase": json.dumps([["F" * 5000, 0, None]]),
        "control-schedule-long-unknown-strategy": json.dumps([["Q" * 5000, 1, None]]),
    }
    if case in schedules:
        schedule = tmp_path / "schedule.json"
        schedule.write_text(schedules[case])
        return ["control", "--schedule", str(schedule), "--out", str(tmp_path / "c")]
    if case == "control-2d-strategy-iterations-above-intp":
        # within the byte range at the spec's width, not at the width of the
        # default schedule's first phase, where the run starts
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"id": "X", "drift_matrix": [[-0.5, 0], [0, -0.5]],
                                    "drift_intercept": [0, 0], "diffusion": [[1, 0], [0, 1]]}))
        return ["control", "--strategy", str(spec), "--iterations", str(4 * 10**17),
                "--out", str(tmp_path / "c")]
    if case in ("strategy-bad-json", "strategy-deep-nesting"):
        spec = tmp_path / "spec.json"
        spec.write_text('{"id": "X", "drift_matrix": [[0.1, 0' if case == "strategy-bad-json"
                        else "[" * 100_000)
        return ["simulate", "--strategy", str(spec), "--out", str(tmp_path / "x.jsonl")]
    if case == "simulate-strategy-1e999-entry":  # a finite-looking number that reads as inf
        spec = tmp_path / "spec.json"
        spec.write_text('{"id": "X", "drift_matrix": [[1e999, 0], [0, -0.5]], '
                        '"drift_intercept": [0, 0], "diffusion": [[1, 0], [0, 1]]}')
        return ["simulate", "--strategy", str(spec), "--out", str(tmp_path / "x.jsonl")]
    strategy_files = {
        "strategy-id-not-str": {"id": 7, "drift_matrix": [[-0.5, 0], [0, -0.5]],
                                "drift_intercept": [0, 0], "diffusion": [[1, 0], [0, 1]]},
        "strategy-1x1": {"id": "X", "drift_matrix": [[-0.5]], "drift_intercept": [0],
                         "diffusion": [[1]]},
        "strategy-overflows": {"id": "X", "drift_matrix": [[1e308, 0], [0, 0]],
                               "drift_intercept": [0, 0], "diffusion": [[1, 0], [0, 1]]},
        "strategy-bool-entry": {"id": "X", "drift_matrix": [[-0.5, 0], [0, -0.5]],
                                "drift_intercept": [0, 0], "diffusion": [[True, 0], [0, 1]]},
        "strategy-string-entry": {"id": "X", "drift_matrix": [["-0.5", 0], [0, -0.5]],
                                  "drift_intercept": [0, 0], "diffusion": [[1, 0], [0, 1]]},
        "strategy-int-too-large": {"id": "X", "drift_matrix": [[-10**400, 0], [0, -0.5]],
                                   "drift_intercept": [0, 0], "diffusion": [[1, 0], [0, 1]]},
        "strategy-long-list-id": {"id": [0] * 2000, "drift_matrix": [[-0.5, 0], [0, -0.5]],
                                  "drift_intercept": [0, 0], "diffusion": [[1, 0], [0, 1]]},
        "strategy-long-string-entry": {"id": "X", "drift_matrix": [["5" * 5000, 0], [0, -0.5]],
                                       "drift_intercept": [0, 0],
                                       "diffusion": [[1, 0], [0, 1]]},
        "strategy-not-square": {"id": "X", "drift_matrix": [[-0.5, 0, 0], [0, -0.5, 0]],
                                "drift_intercept": [0, 0], "diffusion": [[1, 0], [0, 1]]},
        "strategy-diffusion-shape": {"id": "X", "drift_matrix": [[-0.5, 0], [0, -0.5]],
                                     "drift_intercept": [0, 0], "diffusion": [[1, 0]]},
        "strategy-intercept-shape": {"id": "X", "drift_matrix": [[-0.5, 0], [0, -0.5]],
                                     "drift_intercept": [0, 0, 0],
                                     "diffusion": [[1, 0], [0, 1]]},
        # json.dumps writes the infinity as `Infinity`, which json.loads reads
        "strategy-infinite-entry": {"id": "X", "drift_matrix": [[-0.5, 0], [0, -0.5]],
                                    "drift_intercept": [0, float("inf")],
                                    "diffusion": [[1, 0], [0, 1]]},
    }
    if case == "simulate-strategy-name-too-long":  # longer than any file name
        return ["simulate", "--strategy", "Q" * 5000, "--out", str(tmp_path / "x.jsonl")]
    command, _, kind = case.partition("-")
    if kind in strategy_files:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(strategy_files[kind]))
        if command == "simulate":
            return ["simulate", "--strategy", str(spec), "--out", str(tmp_path / "x.jsonl")]
        return ["control", "--schedule", "none", "--strategy", str(spec),
                "--out", str(tmp_path / "c")]
    if case == "score-not-utf8":
        src = tmp_path / "latin1.py"
        src.write_bytes(b"name = '\xe9t\xe9'\n")
        return ["score", "--src", str(src)]
    if case == "analyze-in-not-utf8":
        data = tmp_path / "latin1.jsonl"
        data.write_bytes(b'{"session_id": "s\xe9", "strategy": "AI", "iteration": 0, '
                         b'"objectives": [5.0, 5.0, 5.0]}\n')
        return ["analyze", "--in", str(data), "--out", str(tmp_path / "r")]
    if case == "manifest-not-utf8":
        manifest = tmp_path / "m.csv"
        manifest.write_bytes(b"path,expected_length\n\xe9t\xe9.py,1\n")
        return ["score", "--manifest", str(manifest)]
    if case == "manifest-field-too-large":
        manifest = tmp_path / "m.csv"
        manifest.write_text(f'path,expected_length\n"{"a" * 200_000}",1\n')
        return ["score", "--manifest", str(manifest)]
    if case == "manifest-length-not-int":
        src = tmp_path / "a.py"
        src.write_text("x = 1\n")
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"path,expected_length\n{src},five\n")
        return ["score", "--manifest", str(manifest)]
    # the bad row starts on physical line 4, after a row that spans two
    # lines, after a blank line, or after two blank lines and the header
    line4_manifests = {
        "manifest-after-multiline-field": 'path,expected_length,note\n{0},5,"two\nlines"\n'
                                          '{0},five,ok\n',
        "manifest-after-blank-line": "path,expected_length\n{0},5\n\n{0},five\n",
        "manifest-after-leading-blank-lines": "\n\npath,expected_length\n{0},five\n",
        "manifest-strategy-change-after-blank-line":
            "path,expected_length,session_id,strategy,iteration\n{0},5,s,X,0\n\n{0},5,s,Y,1\n",
    }
    if case in line4_manifests:
        src = tmp_path / "a.py"
        src.write_text("x = 1\n")
        manifest = tmp_path / "m.csv"
        manifest.write_text(line4_manifests[case].format(src))
        return ["score", "--manifest", str(manifest)]
    short_manifests = {
        # a row that lacks a column the command reads, or a length below 1
        "manifest-row-without-path": "expected_length,path\n5\n",
        "manifest-row-without-strategy":
            "path,expected_length,iteration,session_id,strategy\n{0},5,0,s\n{0},5,1,s\n",
        "manifest-length-0": "path,expected_length\n{0},5\n{0},0\n",
        "manifest-length-too-large": "path,expected_length\n{0},5\n{0},1%s\n" % ("0" * 400),
        "manifest-length-negative-401-digits":
            "path,expected_length\n{0},5\n{0},-1%s\n" % ("0" * 400),
        # more digits than int() converts
        "manifest-length-5001-digits": "path,expected_length\n{0},5\n{0},1%s\n" % ("0" * 5000),
        "manifest-iteration-5001-digits":
            "path,expected_length,session_id,strategy,iteration\n{0},5,s,X,1%s\n" % ("0" * 5000),
        "manifest-iteration-400-digits":
            "path,expected_length,session_id,strategy,iteration\n{0},5,s,X,0\n{0},5,s,X,1%s\n"
            % ("0" * 400),
        "manifest-length-long-not-int": "path,expected_length\n{0},%s\n" % ("5" * 5000 + "x"),
        "manifest-long-session-changes-strategy":
            "path,expected_length,session_id,strategy,iteration\n{0},5,%s,X,0\n{0},5,%s,Y,1\n"
            % ("s" * 5000, "s" * 5000),
    }
    if case in short_manifests:
        src = tmp_path / "a.py"
        src.write_text("x = 1\n")
        manifest = tmp_path / "m.csv"
        manifest.write_text(short_manifests[case].format(src))
        return ["score", "--manifest", str(manifest)]
    if case in ("score-expected-length-0", "score-expected-length-too-large",
                "score-expected-length-negative-401-digits"):
        src = tmp_path / "a.py"
        src.write_text("x = 1\n")
        length = {"score-expected-length-0": "0",
                  "score-expected-length-too-large": str(10**400),
                  "score-expected-length-negative-401-digits": str(-10**400)}[case]
        return ["score", "--src", str(src), "--expected-length", length]
    if case in ("score-out-without-manifest", "score-src-with-manifest",
                "manifest-with-expected-length", "manifest-with-json"):
        src = tmp_path / "a.py"
        src.write_text("x = 1\n")
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"path,expected_length\n{src},1\n")
        if case == "score-out-without-manifest":
            return ["score", "--src", str(src), "--out", str(tmp_path / "o.jsonl")]
        if case == "manifest-with-expected-length":  # the flag's default value, given
            return ["score", "--manifest", str(manifest), "--expected-length", "1"]
        if case == "manifest-with-json":
            return ["score", "--manifest", str(manifest), "--json"]
        return ["score", "--src", str(src), "--manifest", str(manifest)]
    if case == "manifest-header-only":
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,expected_length\n")
        return ["score", "--manifest", str(manifest)]
    if case == "manifest-no-length-column":
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"path\n{tmp_path / 'a.py'}\n")
        return ["score", "--manifest", str(manifest)]
    raise AssertionError(case)


@pytest.mark.parametrize("case, code", [
    ("simulate-sessions-0", 2),
    ("simulate-iterations-0", 2),
    ("control-window-1", 2),
    ("simulate-dt-inf", 2),
    ("simulate-sigma-inf", 2),
    ("simulate-sigma-nan", 2),
    ("simulate-seed-above-64-bits", 2),
    ("simulate-seed-negative", 2),
    ("control-dt-inf", 2),
    ("control-sigma-inf", 2),
    ("control-seed-above-64-bits", 2),
    ("control-seed-negative", 2),
    ("analyze-tail-0", 2),
    ("analyze-zero-tol-0", 2),
    ("analyze-zero-tol-inf", 2),
    ("analyze-dt-0", 2),
    ("analyze-dt-negative", 2),
    ("analyze-dt-inf", 2),
    ("analyze-long-strategy", 1),
    ("analyze-long-only", 2),
    ("analyze-no-records", 1),
    ("analyze-deep-nesting", 1),
    ("analyze-long-session-not-contiguous", 1),
    ("analyze-iteration-long-list", 1),
    ("analyze-long-row-outside-box", 1),
    ("analyze-long-mixed-point-shapes", 1),
    ("analyze-long-mixed-dimensions", 1),
    ("config-not-int", 2),
    ("config-not-utf8", 2),
    ("config-unknown-key", 2),
    ("config-repeated-key", 2),
    ("config-no-equals", 2),
    ("config-long-value", 2),
    ("config-long-unknown-key", 2),
    ("config-long-repeated-key", 2),
    ("control-schedule-unknown-strategy", 2),
    ("control-schedule-float-count", 2),
    ("control-schedule-bool-count", 2),
    ("control-schedule-string-count", 2),
    ("control-schedule-deep-nesting", 2),
    ("control-schedule-long-row", 2),
    ("control-schedule-long-phase", 2),
    ("control-schedule-long-unknown-strategy", 2),
    ("control-2d-strategy-iterations-above-intp", 2),
    ("strategy-bad-json", 2),
    ("strategy-deep-nesting", 2),
    ("simulate-strategy-id-not-str", 2),
    ("control-strategy-id-not-str", 2),
    ("simulate-strategy-1x1", 2),
    ("control-strategy-1x1", 2),
    ("simulate-strategy-bool-entry", 2),
    ("simulate-strategy-string-entry", 2),
    ("control-strategy-bool-entry", 2),
    ("control-strategy-string-entry", 2),
    ("simulate-strategy-int-too-large", 2),
    ("simulate-strategy-long-list-id", 2),
    ("simulate-strategy-long-string-entry", 2),
    ("simulate-strategy-not-square", 2),
    ("simulate-strategy-diffusion-shape", 2),
    ("simulate-strategy-intercept-shape", 2),
    ("simulate-strategy-infinite-entry", 2),
    ("simulate-strategy-1e999-entry", 2),
    ("simulate-strategy-name-too-long", 2),
    ("simulate-iterations-above-intp", 2),
    ("control-iterations-above-intp", 2),
    ("simulate-iterations-out-of-memory", 1),
    ("control-iterations-out-of-memory", 1),
    ("config-missing", 2),
    ("config-is-directory", 2),
    ("simulate-strategy-overflows", 1),
    ("control-dt-overflows", 1),
    ("simulate-sessions-60-digits", 2),
    ("simulate-sessions-negative-60-digits", 2),
    ("simulate-iterations-60-digits", 2),
    ("simulate-seed-60-digits", 2),
    ("control-iterations-60-digits", 2),
    ("control-seed-60-digits", 2),
    ("control-window-60-digits", 2),
    ("control-window-negative-60-digits", 2),
    ("analyze-tail-60-digits", 1),
    ("analyze-tail-negative-60-digits", 2),
    ("score-not-utf8", 1),
    ("manifest-length-not-int", 1),
    ("manifest-no-length-column", 2),
    ("manifest-header-only", 2),
    ("analyze-in-not-utf8", 1),
    ("manifest-not-utf8", 1),
    ("manifest-field-too-large", 1),
    ("manifest-after-multiline-field", 1),
    ("manifest-after-blank-line", 1),
    ("manifest-after-leading-blank-lines", 1),
    ("manifest-strategy-change-after-blank-line", 1),
    ("manifest-row-without-path", 1),
    ("manifest-row-without-strategy", 1),
    ("manifest-length-0", 1),
    ("manifest-length-too-large", 1),
    ("manifest-length-negative-401-digits", 1),
    ("manifest-length-5001-digits", 1),
    ("manifest-iteration-5001-digits", 1),
    ("manifest-iteration-400-digits", 1),
    ("manifest-length-long-not-int", 1),
    ("manifest-long-session-changes-strategy", 1),
    ("score-expected-length-0", 2),
    ("score-expected-length-too-large", 2),
    ("score-expected-length-negative-401-digits", 2),
    ("score-out-without-manifest", 2),
    ("score-src-with-manifest", 2),
    ("manifest-with-expected-length", 2),
    ("manifest-with-json", 2),
])
def test_bad_input_exits_with_one_line(tmp_path, capsys, case, code):
    argv = _bad_invocation(tmp_path, case)
    capsys.readouterr()
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    assert err.strip() and err.count("\n") == 1
    assert not any((tmp_path / "r").glob("*"))  # analyze wrote nothing
    if case.endswith(("strategy-id-not-str", "strategy-1x1", "-entry", "strategy-int-too-large",
                      "strategy-bad-json", "strategy-deep-nesting", "strategy-not-square",
                      "-shape")):
        assert "bad strategy file" in err
    strategy_errors = {
        "simulate-strategy-not-square": "NonSquare: drift matrix must be square, got shape (2, 3)",
        "simulate-strategy-diffusion-shape": "DimensionMismatch: diffusion shape (1, 2) != (2, 2)",
        "simulate-strategy-intercept-shape": "DimensionMismatch: intercept shape (3,) != (2,)",
        "simulate-strategy-infinite-entry": "NonFinite: drift_intercept has non-finite entries",
        "simulate-strategy-1e999-entry": "NonFinite: drift_matrix has non-finite entries",
    }
    if case in strategy_errors:
        assert err.endswith(f"spec.json': {strategy_errors[case]}\n"), err
    if case.startswith("control-schedule-"):
        assert "bad schedule file" in err
    if case in ("score-not-utf8", "analyze-in-not-utf8", "manifest-not-utf8"):
        assert "not UTF-8 text" in err
    if case == "manifest-field-too-large":
        assert "RecordFormatError: manifest line 2:" in err
    if case in ("manifest-after-multiline-field", "manifest-after-blank-line",
                "manifest-after-leading-blank-lines"):
        assert "RecordFormatError: manifest line 4: expected_length 'five'" in err
    if case == "manifest-strategy-change-after-blank-line":
        assert "RecordFormatError: manifest line 4: session 's' changes strategy" in err
    if case == "manifest-row-without-path":
        assert "RecordFormatError: manifest line 2: the row has no path field" in err
    if case == "manifest-row-without-strategy":
        assert "RecordFormatError: manifest line 2: the row has no strategy field" in err
    if case == "manifest-length-0":
        assert "InvalidExpectedLength: manifest line 3: expected_length must be >= 1" in err
    if case in ("manifest-length-too-large", "manifest-length-5001-digits"):
        assert "InvalidExpectedLength: manifest line 3: expected_length must be <= 1.79769e+308" \
            in err
    if case == "manifest-iteration-5001-digits":
        assert "RecordFormatError: manifest line 2: iteration '1000" in err
        assert "(5001 characters) is outside the manifest's row range 0..0" in err
    if case == "manifest-iteration-400-digits":
        assert "RecordFormatError: manifest line 3: iteration '1000" in err
        assert "(401 characters) is outside the manifest's row range 0..1" in err
    if case == "manifest-length-long-not-int":
        assert "RecordFormatError: manifest line 2: expected_length '5555" in err
        assert "(5001 characters) is not an integer" in err
    if case == "manifest-long-session-changes-strategy":
        assert "RecordFormatError: manifest line 3: session 'ssss" in err
        assert "(5000 characters) changes strategy 'X' -> 'Y'" in err
    if case == "manifest-length-negative-401-digits":
        assert "InvalidExpectedLength: manifest line 3: expected_length must be >= 1, " \
            "got -1000" in err
        assert "(402 characters)" in err
    if case == "score-expected-length-negative-401-digits":
        assert "--expected-length must be >= 1, got -1000" in err
        assert "(402 characters)" in err
    if case == "analyze-long-session-not-contiguous":
        assert "RecordFormatError: line 5: session 'ssss" in err
        assert "(5000 characters) is not contiguous" in err
    if case == "analyze-iteration-long-list":
        assert "RecordFormatError: line 2: iteration must be an integer, got [0, 0" in err
        assert "(9000 characters)" in err
    if case == "analyze-long-row-outside-box":
        assert "OutOfRangeScore: trajectory 's' iteration 0: [11.0, 11.0" in err
        assert "(18000 characters) outside [0.0, 10.0]" in err
    if case == "analyze-long-mixed-point-shapes":
        assert "DimensionMismatch: trajectory 's' mixes point shapes [(2,), (3,)" in err
        assert "(3894 characters)" in err
    if case == "analyze-long-mixed-dimensions":
        assert "DimensionMismatch: session set mixes dimensions [2, 3, 4" in err
        assert "(2394 characters)" in err
    long_echoes = {
        "config-long-value": ("config value sessions = '1000", "(5000 characters) is not"),
        "config-long-unknown-key": ("unknown config key(s) ['kkkk", "(5004 characters) in"),
        "config-long-repeated-key": ("ValueError: line 2: config key 'kkkk",
                                     "(5000 characters) repeated"),
        "analyze-long-strategy": ("analyze: no sessions for strategy 'ZZZZ", "(5000 characters)"),
        "analyze-long-only": ("unknown stages ['ZZZZ", "(5004 characters); choose from"),
        "control-schedule-long-row": ("malformed schedule row ['FF', 1, [0, 1,",
                                      "(16901 characters): expected"),
        "control-schedule-long-phase": ("phase 'FFFF", "(5000 characters): min_iters"),
        "control-schedule-long-unknown-strategy": ("unknown strategies ['QQQQ",
                                                   "(5004 characters)"),
        "simulate-strategy-long-list-id": ("TypeError: strategy id must be str, got [0, 0,",
                                           "(6000 characters)"),
        "simulate-strategy-long-string-entry": (
            "TypeError: strategy entries must be JSON numbers, got '5555",
            "(5000 characters)"),
        "simulate-strategy-name-too-long": ("unknown strategy 'QQQQ",
                                            "(5000 characters): not a preset"),
    }
    if case in long_echoes:
        assert all(part in err for part in long_echoes[case]), err
    if "60-digits" in case:
        # `_shown` cuts each echoed number after 40 characters
        assert len(err) <= 250 and "characters)" in err, err
        assert not re.search("[0-9]{41}", err), err
    if case in ("config-no-equals", "config-repeated-key", "config-long-repeated-key"):
        # `_read_file` names the file; the parser names only the line
        assert err.count("run.cfg") == 1 and ": line " in err
    if case in long_echoes or case.startswith(("manifest-", "analyze-long-",
                                               "analyze-iteration-", "score-expected-length-")):
        # a field or value is shown by a bounded prefix at most; the temporary
        # path may be named more than once
        assert len(err) < 200 + err.count(str(tmp_path)) * len(str(tmp_path))
    if case == "manifest-header-only":
        assert "score: empty manifest" in err
    if case == "score-expected-length-0":
        assert "--expected-length must be >= 1, got 0" in err
    if case == "score-expected-length-too-large":
        assert "--expected-length must be <=" in err
    if case == "analyze-zero-tol-inf":
        assert "--zero-tol must be finite and > 0, got inf" in err
    if case == "score-out-without-manifest":
        assert "--out needs --manifest" in err
        assert not (tmp_path / "o.jsonl").exists()
    if case == "score-src-with-manifest":
        assert "--src and --manifest cannot be given together" in err
    if case == "manifest-with-expected-length":
        assert "--expected-length needs --src; a manifest row gives its own" in err
    if case == "manifest-with-json":
        assert "--json needs --src; a manifest score is always JSON lines" in err
