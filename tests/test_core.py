import itertools
import json
import os
import threading

import numpy as np
import pytest

from driftlab import core, simulator
from driftlab.core import (
    DimensionMismatch,
    DomainError,
    DriftModel,
    InsufficientData,
    InterferenceMatrix,
    NonFinite,
    NonSquare,
    OutOfRangeScore,
    RecordFormatError,
    SessionSet,
    StrategySpec,
    TooShort,
    Trajectory,
    validate_trajectory,
)

from oracles import reference_loads, reference_pooled_steps


def traj(points, session_id="s000", strategy_id="AI"):
    return Trajectory(session_id, strategy_id, points)


# ---------------------------------------------------------------------------
# validate_trajectory
# ---------------------------------------------------------------------------

def test_validate_accepts_well_formed():
    t = traj([[5, 5, 5], [6, 4, 5], [7, 3, 5]])
    assert validate_trajectory(t) is t


def test_validate_rejects_out_of_range_component():
    with pytest.raises(OutOfRangeScore):
        validate_trajectory(traj([[5, 5, 5], [10.5, 5, 5]]))
    with pytest.raises(OutOfRangeScore):
        validate_trajectory(traj([[5, 5, 5], [-0.01, 5, 5]]))


def test_validate_accepts_exact_bounds():
    validate_trajectory(traj([[0, 0, 0], [10, 10, 10]]))


def test_validate_rejects_single_point():
    with pytest.raises(TooShort):
        validate_trajectory(traj([[5, 5, 5]]))


def test_validate_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        validate_trajectory(traj([[5, 5, 5], [5, 5]]))


# ---------------------------------------------------------------------------
# immutability
# ---------------------------------------------------------------------------

def test_core_arrays_are_readonly():
    t = traj([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        t.values_matrix[0, 0] = 9.0
    s = StrategySpec("X", np.eye(3), np.zeros(3), np.eye(3))
    with pytest.raises(ValueError):
        s.drift_matrix[0, 0] = 2.0


def test_types_are_frozen():
    t = traj([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(Exception):
        t.values_matrix = np.zeros((2, 3))


# ---------------------------------------------------------------------------
# fitted records reject what they cannot hold
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("A, b, sigma, count, error, message", [
    (np.eye(3), np.zeros(2), np.eye(3), 10, DimensionMismatch,
     r"inconsistent shapes A\(3, 3\) b\(2,\) sigma\(3, 3\)"),
    (np.eye(3), np.zeros(3), np.eye(2), 10, DimensionMismatch, "inconsistent shapes"),
    (np.ones((3, 2)), np.zeros(3), np.eye(3), 10, DimensionMismatch, "inconsistent shapes"),
    (np.eye(2), np.zeros(2), [[1.0, 0.5], [0.0, 1.0]], 10, DomainError,
     "sigma_hat must be symmetric"),
    (np.eye(2), np.zeros(2), [[1.0, 0.0], [0.0, -1.0]], 10, DomainError,
     "sigma_hat must be positive semi-definite"),
    (np.eye(3), np.zeros(3), np.eye(3), 3, InsufficientData,
     r"sample_count 3 < n\+1 = 4: regression unsolvable"),
    (1.0, [0.0], [[1.0]], 5, DimensionMismatch,
     r"inconsistent shapes A\(\) b\(1,\) sigma\(1, 1\)"),
])
def test_drift_model_rejects(A, b, sigma, count, error, message):
    with pytest.raises(error, match=message):
        DriftModel(A, b, sigma, count)


def test_drift_model_accepts_n_plus_one_samples_and_a_psd_sigma():
    model = DriftModel(np.eye(3), np.zeros(3), np.diag([1.0, 0.0, 2.0]), 4)
    assert model.sample_count == 4


@pytest.mark.parametrize("entries, error, message", [
    (np.zeros((2, 3)), NonSquare, r"interference matrix must be square, got \(2, 3\)"),
    (np.zeros(3), NonSquare, "interference matrix must be square"),
    ([[0.0, 0.1], [0.1, 1e-300]], DomainError, "interference diagonal must be exactly zero"),
    ([[0.0, 0.1], [0.2, 0.0]], DomainError, "interference matrix must be symmetric"),
    ([[0.0, 1.5], [1.5, 0.0]], DomainError, r"interference entries must lie in \[-1, 1\]"),
    ([[0.0, -1.01], [-1.01, 0.0]], DomainError, r"interference entries must lie in \[-1, 1\]"),
    ([[0.0, np.nan], [np.nan, 0.0]], NonFinite, "interference matrix has non-finite entries"),
    ([[0.0, np.inf], [np.inf, 0.0]], NonFinite, "interference matrix has non-finite entries"),
    ([[0.0, -np.inf], [-np.inf, 0.0]], NonFinite, "interference matrix has non-finite entries"),
])
def test_interference_matrix_rejects(entries, error, message):
    with pytest.raises(error, match=message):
        InterferenceMatrix(entries)


def test_interference_matrix_accepts_the_closed_range():
    assert InterferenceMatrix([[0.0, -1.0], [-1.0, 0.0]])[0, 1] == -1.0


# ---------------------------------------------------------------------------
# serialization round trips (bit-exact)
# ---------------------------------------------------------------------------

def test_trajectory_jsonl_round_trip_bit_exact():
    rng = np.random.default_rng(7)
    trajs = []
    for i in range(5):
        pts = rng.uniform(0, 10, size=(rng.integers(2, 8), 3))
        # values with no short decimal representation
        pts[0, 0] = 0.1 + 0.2
        trajs.append(Trajectory(f"s{i:03d}", "AI", pts))
    text = core.dumps_trajectories(trajs)
    back = core.loads_trajectories(text)
    assert len(back) == len(trajs)
    for a, b in zip(trajs, back):
        assert a == b
    # and serializing again is byte-identical
    assert core.dumps_trajectories(back) == text


def test_jsonl_record_shape_matches_wire_format():
    t = traj([[5.0, 5.0, 5.0], [6.0, 4.0, 5.0]], session_id="s001")
    first = core.dumps_trajectories([t]).splitlines()[0]
    assert json.loads(first) == {
        "session_id": "s001", "strategy": "AI",
        "iteration": 0, "objectives": [5.0, 5.0, 5.0],
    }


def test_strategy_spec_round_trip():
    s = StrategySpec("FF", np.diag([-0.82, -0.88, 0.9]), [0.0, 0.1, -0.2], 0.5 * np.eye(3))
    assert StrategySpec.from_dict(json.loads(json.dumps(s.to_dict()))) == s


# ---------------------------------------------------------------------------
# JSONL reader rejections
# ---------------------------------------------------------------------------

def _record(sid, it, objectives=(5.0, 5.0, 5.0), strategy="AI"):
    return json.dumps({"session_id": sid, "strategy": strategy,
                       "iteration": it, "objectives": list(objectives)})


def test_reader_rejects_iteration_gap():
    text = "\n".join([_record("s0", 0), _record("s0", 2)]) + "\n"
    with pytest.raises(RecordFormatError):
        core.loads_trajectories(text)


def test_reader_rejects_noncontiguous_session():
    text = "\n".join([_record("s0", 0), _record("s0", 1),
                      _record("s1", 0), _record("s1", 1),
                      _record("s0", 2)]) + "\n"
    with pytest.raises(RecordFormatError):
        core.loads_trajectories(text)


def test_reader_rejects_strategy_change_mid_session():
    text = "\n".join([_record("s0", 0), _record("s0", 1, strategy="FF")]) + "\n"
    with pytest.raises(RecordFormatError):
        core.loads_trajectories(text)


def test_reader_rejects_nonzero_start():
    text = "\n".join([_record("s0", 1), _record("s0", 2)]) + "\n"
    with pytest.raises(RecordFormatError):
        core.loads_trajectories(text)


def test_reader_rejects_malformed_record():
    with pytest.raises(RecordFormatError):
        core.loads_trajectories('{"session_id": "s0", "iteration": 0}\n')


def test_reader_enforces_score_range():
    text = "\n".join([_record("s0", 0), _record("s0", 1, objectives=(11.0, 5.0, 5.0))]) + "\n"
    with pytest.raises(OutOfRangeScore):
        core.loads_trajectories(text)


# ---------------------------------------------------------------------------
# session sets
# ---------------------------------------------------------------------------

def test_session_set_invariants():
    with pytest.raises(core.InsufficientData):
        SessionSet("AI", [])
    t1 = traj([[1, 1, 1], [2, 2, 2]], session_id="a")
    t2 = traj([[1, 1], [2, 2]], session_id="b")
    with pytest.raises(DimensionMismatch):
        SessionSet("AI", [t1, t2])
    t3 = traj([[1, 1, 1], [2, 2, 2]], session_id="c", strategy_id="FF")
    with pytest.raises(core.DomainError):
        SessionSet("AI", [t1, t3])


def test_group_by_strategy():
    ts = [traj([[1, 1, 1], [2, 2, 2]], session_id="a", strategy_id="AI"),
          traj([[1, 1, 1], [2, 2, 2]], session_id="b", strategy_id="FF"),
          traj([[3, 3, 3], [4, 4, 4]], session_id="c", strategy_id="AI")]
    groups = core.group_by_strategy(ts)
    assert set(groups) == {"AI", "FF"}
    assert [t.session_id for t in groups["AI"]] == ["a", "c"]


def test_session_set_builds_its_trajectories_on_first_use():
    data = SessionSet("AI", [traj([[1, 1, 1], [2, 2, 2]], session_id="a"),
                             traj([[3, 3, 3]], session_id="b")])
    assert data.session_ids == ("a", "b") and len(data) == 2
    assert "trajectories" not in vars(data)
    first = data.trajectories
    assert data.trajectories is first and [len(t) for t in data] == [2, 1]
    assert np.shares_memory(first[1].values_matrix, data.values_matrix)


def test_pooled_steps_are_built_once_and_read_only():
    data = SessionSet("AI", [traj([[1, 1, 1], [2, 3, 4]], session_id="a"),
                             traj([[5, 5, 5], [4, 4, 4], [6, 5, 4]], session_id="b")])
    states, deltas = core.pooled_step_matrix(data)
    again = core.pooled_step_matrix(data)
    assert again[0] is states and again[1] is deltas
    assert not states.flags.writeable and not deltas.flags.writeable
    assert states.tolist() == [[1, 1, 1], [5, 5, 5], [4, 4, 4]]
    assert deltas.tolist() == [[1, 2, 3], [-1, -1, -1], [2, 1, 0]]


def test_session_set_error_shows_long_ids_cut():
    others = [traj([[1, 1, 1], [2, 2, 2]], session_id=f"s{i}", strategy_id="FF")
              for i in range(500)]
    with pytest.raises(core.DomainError) as info:
        SessionSet("A" * 5000, others)
    message = str(info.value)
    assert message.startswith("sessions ['s0', 's1', 's2', ")
    assert "(3890 characters) do not belong to strategy 'AAAA" in message
    assert message.endswith("(5000 characters)") and len(message) < 200


def test_set_of_rows_holds_read_only_views_of_its_array():
    rows = np.full((6, 3), 5.0)
    offsets = np.array([0, 2, 2, 4, 6])
    data = SessionSet._of_rows("X", ["a", "b", "c", "d"], rows.copy(), offsets)
    assert [len(t) for t in data] == [2, 0, 2, 2] and data.dimension == 3
    for t in data:  # read-only views of the set's one array
        assert np.shares_memory(t.values_matrix, data.values_matrix) or len(t) == 0
        assert not t.values_matrix.flags.writeable
    assert data.trajectories[2] == traj(rows[2:4], session_id="c", strategy_id="X")


def _unequal_sessions():
    """Simulated SF sessions of 2, 5 and 9 rows, interleaved."""
    sets = [simulator.simulate_set(simulator.SimConfig(simulator.preset("SF"), sessions=3,
                                                       iterations=its, base_seed=its))
            for its in (1, 4, 8)]
    return [Trajectory(f"{len(t)}-{t.session_id}", "SF", t.values_matrix)
            for group in zip(*sets) for t in group]


@pytest.mark.parametrize("build", ["trajectories", "per-line reader", "writer-form reader"])
def test_pooled_steps_equal_per_session_concatenation(build):
    trajs = _unequal_sessions()
    text = core.dumps_trajectories(trajs)
    if build == "per-line reader":
        trajs = core._read_lines(text)
    elif build == "writer-form reader":
        trajs = core._read_writer_form(text)
    data = core.group_by_strategy(trajs)["SF"]
    assert [len(t) for t in data] == [2, 5, 9] * 3
    states, deltas = core.pooled_step_matrix(data)
    want_states, want_deltas = reference_pooled_steps(data)
    assert states.shape == want_states.shape == (3 * (1 + 4 + 8), 3)
    assert states.tobytes() == want_states.tobytes()
    assert deltas.tobytes() == want_deltas.tobytes()


# ---------------------------------------------------------------------------
# trajectory storage: one read-only (T+1, n) matrix
# ---------------------------------------------------------------------------

def test_trajectory_holds_one_readonly_matrix():
    src = np.array([[5.0, 5.0, 5.0], [6.0, 4.0, 5.0]])
    t = traj(src)
    assert t.values_matrix.shape == (2, 3) and t.values_matrix.dtype == np.float64
    with pytest.raises(ValueError):
        t.values_matrix[0, 0] = 1.0
    src[0, 0] = 9.0  # the trajectory keeps its own copy
    assert t.values_matrix[0, 0] == 5.0
    assert len(t) == 2 and t.dimension == 3
    assert np.array_equal(t.points, [[5, 5, 5], [6, 4, 5]])
    assert traj([np.array([5, 5, 5]), [6, 4, 5]]) == t


@pytest.mark.parametrize("points", [
    [[5, 5, 5], [5, 5]],  # ragged
    [5, 5, 5],  # 1-D
    [[5], [6]],  # n < 2
    [],  # no points, so no dimension
])
def test_trajectory_rejects_bad_shapes(points):
    with pytest.raises(DimensionMismatch):
        traj(points)


def test_trajectory_rejects_non_finite():
    with pytest.raises(core.NonFinite):
        traj([[5, 5, 5], [5, float("inf"), 5]])


@pytest.mark.parametrize("session_id, strategy_id", [
    (7, "X"),
    ("s000", None),
    (b"s000", "X"),
])
def test_trajectory_rejects_non_str_ids(session_id, strategy_id):
    # the writer would put the id on the wire as is, in a file its own
    # reader rejects
    with pytest.raises(TypeError, match="session_id and strategy_id must be str"):
        Trajectory(session_id, strategy_id, [[1, 2], [3, 4]])


def test_validate_names_first_offending_iteration():
    with pytest.raises(OutOfRangeScore, match=r"iteration 2: \[5\.0, -1\.0, 5\.0\]"):
        validate_trajectory(traj([[5, 5, 5], [5, 5, 5], [5, -1, 5], [11, 5, 5]]))


@pytest.mark.parametrize("field, value", [
    ("iteration", True),
    ("iteration", 1.9),
    ("session_id", 7),
    ("strategy", 3),
    ("objectives", "555"),
    ("objectives", ["5.0", True, 5]),
    ("objectives", [5.0, False, 5.0]),
])
def test_reader_rejects_mistyped_fields(field, value):
    # every other field is well formed, so only the mistyped value can fail
    records = [{"session_id": "s0", "strategy": "AI", "iteration": t,
                "objectives": [5.0, 5.0, 5.0]} for t in range(2)]
    for rec in records[1:] if field == "iteration" else records:
        rec[field] = value
    text = "".join(json.dumps(rec) + "\n" for rec in records)
    with pytest.raises(RecordFormatError):
        core.loads_trajectories(text)


def test_reader_rejects_deep_nesting_with_its_line():
    text = _record("s0", 0) + "\n" + "[" * 100_000 + "\n"
    with pytest.raises(RecordFormatError, match=r"^line 2: malformed record \(.*recursion"):
        core.loads_trajectories(text)


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r"])
def test_well_formed_lines_decode_in_place(sep, monkeypatch):
    # whatever the line break, every record reads back, and no line is
    # decoded more than once
    trajs = [traj([[1, 2, 3], [4.5, 0.0, 10.0]], session_id=f"s{i}") for i in range(3)]
    text = core.dumps_trajectories(trajs).replace("\n", sep)
    decoded = []
    loads = json.loads
    monkeypatch.setattr(core.json, "loads", lambda line: decoded.append(line) or loads(line))
    for tail in ("", sep + sep):
        decoded.clear()
        assert core.loads_trajectories(text + tail) == trajs
        assert len(decoded) == len(set(decoded))


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
def test_only_a_line_break_ends_a_record(sep):
    # `str.splitlines` also breaks at these, JSON Lines does not: records
    # joined by one are one line, which is not one JSON value
    trajs = [traj([[1, 2, 3], [4.5, 0.0, 10.0]], session_id=f"s{i}") for i in range(2)]
    text = core.dumps_trajectories(trajs).replace("\n", sep)
    for read in (core.loads_trajectories, reference_loads):
        with pytest.raises(RecordFormatError, match=r"^line 1: malformed record \(Extra data"):
            read(text)


@pytest.mark.parametrize("ch", ["\x85", "\u2028", "\u2029"])
def test_a_raw_separator_inside_a_string_stays_in_its_record(ch):
    # JSON lets these stand raw inside a string
    records = [{"session_id": f"a{ch}b", "strategy": "AI", "iteration": t,
                "objectives": [5.0, 4.0]} for t in range(2)]
    text = "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in records)
    assert ch in text
    got = core.loads_trajectories(text)
    assert got == reference_loads(text) == [traj([[5.0, 4.0]] * 2, session_id=f"a{ch}b")]


@pytest.mark.parametrize("text, lines", [
    ("", []),
    ("\n", [""]),
    ("a", ["a"]),
    ("a\n", ["a"]),
    ("a\r\nb\rc\n\n", ["a", "b", "c", ""]),
    ("\r\r\n", ["", ""]),
    ("\ufeffa\x0bb\x0c\x1c\x1d\x1e\x85\u2028\u2029\n",
     ["\ufeffa\x0bb\x0c\x1c\x1d\x1e\x85\u2028\u2029"]),
    ("\ufeff\ufeffa", ["\ufeff\ufeffa"]),  # `read_text` drops a file's BOM, not this
])
def test_physical_lines_end_at_a_line_break_only(text, lines):
    assert core.physical_lines(text) == lines


def test_reader_drops_a_leading_bom(tmp_path):
    # a file's BOM goes where it is decoded; a str holds none to drop, as in json.loads
    text = core.dumps_trajectories([traj([[1, 2], [3, 4]])])
    (tmp_path / "t.jsonl").write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert core.loads_trajectories(core.read_text(tmp_path / "t.jsonl")) == \
        core.loads_trajectories(text)
    with pytest.raises(RecordFormatError,
                       match=r"^line 1: malformed record \(Unexpected UTF-8 BOM"):
        core.loads_trajectories("\ufeff" + text)


@pytest.mark.parametrize("value, shown", [
    ("abc", "'abc'"),
    ({"x": 1}, "{'x': 1}"),
    (5, "5"),
    (None, "None"),
    (True, "True"),
])
def test_reader_wants_objectives_as_an_array(value, shown):
    text = _record("s0", 0) + "\n" + json.dumps(
        {"session_id": "s0", "strategy": "AI", "iteration": 1, "objectives": value}) + "\n"
    with pytest.raises(RecordFormatError) as info:
        core.loads_trajectories(text)
    assert str(info.value) == f"line 2: malformed record (objectives must be a JSON array, " \
                              f"got {shown})"


@pytest.mark.parametrize("chunk", [core._CHUNK, 1000])
def test_simulated_text_is_read_without_a_per_line_decode(chunk, monkeypatch):
    # 300 sessions of 21 records, about 0.7 MB: several chunks either way
    sim = simulator.SimConfig(simulator.preset("SF"), sessions=300, iterations=20,
                              base_seed=23)
    trajs = list(simulator.simulate_set(sim))
    text = core.dumps_trajectories(trajs)
    monkeypatch.setattr(core, "_CHUNK", chunk)
    monkeypatch.setattr(core.json, "loads", None)
    assert core.loads_trajectories(text) == trajs


# ---------------------------------------------------------------------------
# parse_key_values
# ---------------------------------------------------------------------------

def test_parse_key_values_skips_blank_and_comment_lines():
    text = "# weights\n\n  a = 1.5  \nb=x = y\n   # indented comment\n"
    assert core.parse_key_values(text) == {"a": "1.5", "b": "x = y"}


@pytest.mark.parametrize("text, message", [
    ("a = 1\n\nno equals sign\n", "line 3: expected key = value"),
    ("a = 1\n# c\n a = 2\n", "line 3: config key 'a' repeated"),
])
def test_parse_key_values_names_the_bad_line(text, message):
    with pytest.raises(ValueError) as info:
        core.parse_key_values(text)
    assert str(info.value) == message


def test_parse_key_values_reads_physical_lines():
    assert core.parse_key_values("a = 1\r\nb = 2\rc = x\u2028y\n") == {
        "a": "1", "b": "2", "c": "x\u2028y"}
    assert core.parse_key_values("\ufeffa = 1\n") == {"\ufeffa": "1"}  # a str's BOM is text
    with pytest.raises(ValueError, match="^line 3: expected key = value$"):
        core.parse_key_values("a = 1\r\n\rno equals sign")


# ---------------------------------------------------------------------------
# read_text
# ---------------------------------------------------------------------------

def test_read_text_drops_one_leading_bom(tmp_path):
    path = tmp_path / "f.txt"
    for data, text in [(b"\xef\xbb\xbfa\r\nb", "a\nb"), (b"a\xef\xbb\xbf", "a\ufeff"),
                       (b"\xef\xbb\xbf\xef\xbb\xbfa", "\ufeffa"), (b"", "")]:
        path.write_bytes(data)
        assert core.read_text(path) == text
    path.write_bytes(b"\xef\xbb\xbf\r\n")
    assert core.read_text(path, newline="") == "\r\n"


def test_read_text_names_the_files_own_byte_offset(tmp_path):
    # the BOM is dropped after decoding, so the offset counts its 3 bytes
    path = tmp_path / "f.txt"
    path.write_bytes(b"\xef\xbb\xbfab\xff")
    with pytest.raises(DomainError, match=r"not UTF-8 text \(invalid start byte at byte 5\)$"):
        core.read_text(path)


# ---------------------------------------------------------------------------
# work shared among forked processes: `_fork_map`, the JSONL writer and reader
# (the `cpus` fixture, in conftest.py, checks that no child is left)
# ---------------------------------------------------------------------------

def _pid_of(share):
    return share, os.getpid()


@pytest.mark.parametrize("k", [2, 3])
def test_fork_map_runs_share_0_here_and_each_other_share_in_a_child(cpus, k):
    cpus(k)
    got = core._fork_map(_pid_of, lambda parts: list(range(parts)), 1, 1)
    assert [share for share, _ in got] == list(range(k))
    assert got[0][1] == os.getpid() and len({pid for _, pid in got}) == k
    assert len(cpus.forks) == k - 1


@pytest.mark.parametrize("case", ["one CPU", "under the cut-off", "no os.fork",
                                  "a running thread", "one share"])
def test_fork_map_forks_nothing_where_it_cannot_or_need_not(cpus, monkeypatch, case):
    cpus(1 if case == "one CPU" else 2)
    if case == "no os.fork":
        monkeypatch.delattr(os, "fork")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "a running thread":  # a library caller's: a child would hold no copy of it
        thread.start()
    try:
        got = core._fork_map(_pid_of, lambda parts: list(range(1 if case == "one share" else parts)),
                             10, 11 if case == "under the cut-off" else 10)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10)
            assert not thread.is_alive()
    assert got == [(0, os.getpid())] and cpus.forks == []


@pytest.mark.parametrize("failure", ["the child dies", "fn raises in the child", "no fork",
                                     "no pipe"])
def test_fork_map_runs_here_a_share_that_did_not_come_back(cpus, monkeypatch, failure):
    parent = os.getpid()

    def fn(share):
        if os.getpid() != parent:
            if failure == "the child dies":
                os._exit(1)
            raise ValueError(share)
        return share, os.getpid()

    cpus(3)
    if failure == "no fork":  # as at a process limit, once
        fork = os.fork
        refusals = iter([BlockingIOError(11, "Resource temporarily unavailable")])

        def refused():
            for error in refusals:
                raise error
            return fork()

        monkeypatch.setattr(os, "fork", refused)
    if failure == "no pipe":
        pipe = os.pipe
        refusals = iter([OSError(24, "Too many open files")])

        def no_pipe():
            for error in refusals:
                raise error
            return pipe()

        monkeypatch.setattr(os, "pipe", no_pipe)
    got = core._fork_map(fn, lambda parts: list(range(parts)), 1, 1)
    assert got == [(share, parent) for share in range(3)]


def test_fork_map_raises_here_the_error_of_a_share_and_reaps_every_child(cpus):
    def fn(share):
        if share == 2:
            raise ValueError(f"share {share}")
        return share

    cpus(3)
    with pytest.raises(ValueError, match="^share 2$"):
        core._fork_map(fn, lambda parts: list(range(parts)), 1, 1)
    assert len(cpus.forks) == 2


def test_fork_map_interrupted_here_reaps_its_children(cpus):
    parent = os.getpid()

    def fn(share):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return share

    cpus(3)
    with pytest.raises(KeyboardInterrupt):
        core._fork_map(fn, lambda parts: list(range(parts)), 1, 1)
    assert len(cpus.forks) == 2


def _sessions_of_width(widths, lengths, seed) -> list[Trajectory]:
    rng = np.random.default_rng(seed)
    return [Trajectory(f"w{width}-{i}", ("AI", "SF")[i % 2], rng.uniform(0.0, 10.0, (length, width)))
            for i, (width, length) in enumerate(zip(widths, lengths))]


_LAYOUTS = {  # name -> (widths, lengths) of the sessions
    **{f"unequal, width {n}": ([n] * 40, [2 + (7 * i) % 53 for i in range(40)])
       for n in (2, 3, 4, 5)},
    "widths 2 to 5": ([2 + i % 4 for i in range(40)], [2 + (11 * i) % 37 for i in range(40)]),
    "a cut on the last session": ([3] * 2, [200, 3]),
    "a long first session": ([3] * 3, [150, 60, 3]),
}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_writer_split_over_processes_writes_the_one_process_bytes(cpus, layout, k):
    trajs = _sessions_of_width(*_LAYOUTS[layout], seed=len(layout))
    cpus(1, 0, "dump")
    one = core.dumps_trajectories(trajs)
    assert one == "".join(map(core._dumps, [[t] for t in trajs]))
    cpus(k, 0, "dump")
    assert core.dumps_trajectories(iter(trajs)) == one
    runs = core._runs(trajs, list(itertools.accumulate(map(len, trajs))), k)
    assert sum(runs, []) == trajs and len(cpus.forks) == len(runs) - 1 > 0


def test_writer_cuts_at_the_session_end_nearest_each_share():
    trajs = _sessions_of_width([3] * 4, [3, 3, 3, 200], seed=1)
    ends = list(itertools.accumulate(map(len, trajs)))
    assert core._runs(trajs, ends, 2) == [trajs[:3], trajs[3:]]
    assert core._runs(trajs[3:], ends[:1], 2) == [trajs[3:]]
    trajs = _sessions_of_width([3] * 4, [10, 10, 10, 10], seed=1)
    ends = list(itertools.accumulate(map(len, trajs)))
    assert core._runs(trajs, ends, 2) == [trajs[:2], trajs[2:]]
    assert core._runs(trajs, ends, 3) == [trajs[:1], trajs[1:3], trajs[3:]]
    assert core._runs([], [], 2) == [[]]


@pytest.mark.parametrize("sizes, k, lengths", [
    # a missing file is 0 bytes: its row joins the run its neighbours fall in
    ([0, 0, 100, 100, 0, 100, 100, 0], 2, [4, 4]),
    ([0, 0, 100, 100, 0, 100, 100, 0], 3, [3, 3, 2]),
    ([0, 0, 0], 2, [1, 2]),
    # one file of most of the bytes: fewer runs than CPUs
    ([10, 10, 1000], 3, [2, 1]),
    ([1000, 10, 10, 10], 3, [1, 3]),
    ([1000, 10, 10, 10], 2, [1, 3]),
])
def test_runs_cut_manifest_rows_by_their_files_bytes(sizes, k, lengths):
    rows = [(2 + i, {"path": f"f{i}.py"}) for i in range(len(sizes))]
    runs = core._runs(rows, list(itertools.accumulate(sizes)), k)
    assert [len(run) for run in runs] == lengths and sum(runs, []) == rows


@pytest.mark.parametrize("one_session", [False, True])
def test_writer_forks_nothing_for_one_session_or_under_its_cut_off(cpus, one_session):
    trajs = _sessions_of_width([3] * 3, [50, 50, 50], seed=2)[:1 if one_session else 3]
    cpus(1, 0, "dump")
    one = core.dumps_trajectories(trajs)
    cpus(2, 1 if one_session else 151, "dump")
    assert core.dumps_trajectories(trajs) == one and cpus.forks == []


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_reader_split_over_processes_reads_the_one_process_trajectories(cpus, layout, k):
    text = core.dumps_trajectories(_sessions_of_width(*_LAYOUTS[layout], seed=len(layout)))
    cpus(1, 0, "read")
    one = core.loads_trajectories(text)
    cpus(k, 0, "read")
    two = core.loads_trajectories(text)
    assert two == one
    spans = core._line_spans(text, k)
    assert len(cpus.forks) == len(spans) - 1 > 0
    assert "".join(text[start:end] for start, end in spans) == text
    assert all(text.startswith('{"session_id"', start) for start, _ in spans)
    if layout != "widths 2 to 5":  # one width: views of one array, not the per-line reader's
        assert all(t.values_matrix.base is two[0].values_matrix.base is not None for t in two)


def test_reader_cuts_at_the_first_session_at_or_after_each_share():
    trajs = _sessions_of_width([3] * 4, [3, 3, 3, 200], seed=3)
    text = core.dumps_trajectories(trajs)
    # the middle falls inside the last session: no session starts after it
    assert core._line_spans(text, 2) == [(0, len(text))]
    text = core.dumps_trajectories(trajs[::-1])
    last = text.index('"session_id": "w3-2"') - 1
    assert core._line_spans(text, 2) == [(0, last), (last, len(text))]


@pytest.mark.parametrize("width", [core._MAX_WIDTH, core._MAX_WIDTH + 1, 5000])
def test_reader_reads_rows_wider_than_its_bound_one_line_at_a_time(width):
    # a pattern of 5,000 numbers takes about a second to compile, and is kept
    trajs = _sessions_of_width([width] * 2, [2, 3], seed=6)
    text = core.dumps_trajectories(trajs)
    core._read_writer_form(core.dumps_trajectories(trajs[:1]))  # compiles what it may, once
    cached = core._writer_line_of_width.cache_info().currsize
    whole = core._read_writer_form(text)
    assert core._writer_line_of_width.cache_info().currsize == cached
    assert (whole is not None) == (width <= core._MAX_WIDTH)
    assert core.loads_trajectories(text) == core._read_lines(text) == trajs


def _broken(text: str, kind: str) -> tuple[str, int]:
    """`text` with one fault, and the index of the line it is on: in the
    last fifth of the lines, or in the session that ends the first span."""
    lines = text.splitlines(keepends=True)
    at = len(lines) - len(lines) // 5
    if kind == "a malformed line":
        lines[at] = lines[at].replace("]}", "]")
    elif kind == "an iteration gap":
        lines[at] = lines[at].replace('"iteration": ', '"iteration": 9')
    elif kind == "a row outside the box":
        lines[at] = lines[at].replace('"objectives": [', '"objectives": [1')
    elif kind == "an id of the first span again":
        sid, again = (json.loads(lines[i])["session_id"] for i in (0, at))
        lines = [line.replace(f'"{again}"', f'"{sid}"') for line in lines]
    elif kind == "a session of one row":  # the one that ends the first span
        at = text.count("\n", 0, core._line_spans(text, 2)[1][0]) - 1
        sid = json.loads(lines[at])["session_id"]
        lines = [line for line in lines
                 if json.loads(line)["session_id"] != sid or '"iteration": 0,' in line]
        at = next(i for i, line in enumerate(lines) if f'"{sid}"' in line)
    return "".join(lines), at


@pytest.mark.parametrize("kind", ["a malformed line", "an iteration gap", "a row outside the box",
                                  "an id of the first span again", "a session of one row"])
def test_reader_split_over_processes_raises_the_one_process_error(cpus, kind):
    trajs = _sessions_of_width([3] * 30, [20 + i % 7 for i in range(30)], seed=4)
    text, at = _broken(core.dumps_trajectories(trajs), kind)
    spans = core._line_spans(text, 2)
    assert len(spans) == 2
    # the fault lies in the second span, or ends the first
    assert text.count("\n", 0, spans[1][0]) <= at + (kind == "a session of one row")
    cpus(1, 0, "read")
    with pytest.raises(DomainError) as one:
        core.loads_trajectories(text)
    cpus(2, 0, "read")
    with pytest.raises(DomainError) as two:
        core.loads_trajectories(text)
    assert (type(two.value), str(two.value)) == (type(one.value), str(one.value))
    assert len(cpus.forks) == 1


@pytest.mark.parametrize("stage", ["dump", "read"])
@pytest.mark.parametrize("case", ["the child dies", "no fork", "one CPU", "a running thread"])
def test_text_stages_give_the_one_process_result_when_a_share_is_not_forked(
        cpus, monkeypatch, stage, case):
    trajs = _sessions_of_width([3] * 30, [20 + i % 7 for i in range(30)], seed=5)
    text = core.dumps_trajectories(trajs)
    parent, step = os.getpid(), core.dumps_trajectories if stage == "dump" else core.loads_trajectories
    given = trajs if stage == "dump" else text
    cpus(1, 0, stage)
    one = step(given)
    cpus(1 if case == "one CPU" else 2, 0, stage)
    if case == "the child dies":
        name = "_dumps" if stage == "dump" else "_read_span"
        fn = getattr(core, name)

        def dies(*args):
            if os.getpid() != parent:
                os._exit(1)
            return fn(*args)

        monkeypatch.setattr(core, name, dies)
    if case == "no fork":
        def refused():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refused)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "a running thread":
        thread.start()
    try:
        assert step(given) == one
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10)
            assert not thread.is_alive()
    assert len(cpus.forks) == (1 if case == "the child dies" else 0)
