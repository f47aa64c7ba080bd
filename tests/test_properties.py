"""Property tests of the JSONL trajectory format: a write then a read gives
back the same trajectories, and a record with any one field corrupted is
rejected with a DomainError, never with a bare exception. The writer is
byte-identical, whatever its group size, and the reader gives the same
trajectories or the same error, as the one-`json`-call-per-record
reference in `oracles`, whatever its chunk size; text in the writer's own form is read whole, and any other
text is left to the per-line path. Also: the
Pareto mask and the per-session efficiencies equal a brute-force scan
whatever the sweep's block size. And the scorer's source cleaner gives the
same logical lines, validity flag and non-blank count as the reference
that walks one character at a time, and its source scan the same signals
as the reference that runs every rule pattern on every logical line,
on rule-pattern sources and on indented block structure."""

import json
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from driftlab import core, pareto, scorer
from driftlab.core import DomainError, SessionSet, Trajectory

from oracles import (brute_efficiency, brute_non_dominated, reference_clean_lines,
                     reference_dumps, reference_loads, reference_records,
                     reference_scan_source)

# Examples are fixed and no example database is written (conftest.py).
_SETTINGS = settings(max_examples=40, deadline=None)

# Digits and dots make number-like strings; the rest must be escaped by the
# JSONL writer or split lines under `str.splitlines`. A fixed alphabet also
# spares Hypothesis from building its Unicode tables.
_text = st.text(alphabet="a5.\x00\n\"\\\u00e9\u2028\U0001f600", max_size=6)
# Ids the JSONL writer leaves as they are, the ends of its id class among them.
_plain_text = st.text(alphabet="a5. !#[]~", max_size=6)
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _text),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_text, inner, max_size=3)),
    max_leaves=5,
)
# A single objective value that no trajectory may hold: not a JSON number,
# outside [0, 10], non-finite, or too large for a float.
_bad_scores = st.one_of(
    st.none(), st.booleans(), _text, st.lists(st.integers(0, 10), max_size=2),
    st.floats().filter(lambda x: not 0 <= x <= 10),
    st.integers().filter(lambda i: not 0 <= i <= 10),
    st.just(10**400),
)


@st.composite
def trajectory_lists(draw, ids=_text, one_width=False):
    width = draw(st.integers(2, 4)) if one_width else None
    trajectories = []
    for sid in draw(st.lists(ids, min_size=1, max_size=4, unique=True)):
        n = width or draw(st.integers(2, 4))
        rows = draw(st.lists(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n),
                             min_size=2, max_size=5))
        trajectories.append(Trajectory(sid, draw(ids), rows))
    return trajectories


def _is_valid_row(value, n):
    return (type(value) is list and len(value) == n
            and all(type(v) in (int, float) and 0 <= v <= 10 for v in value))


@_SETTINGS
@given(trajectory_lists())
def test_jsonl_round_trip_is_identity(trajectories):
    text = core.dumps_trajectories(trajectories)
    back = core.loads_trajectories(text)
    assert back == trajectories
    assert core.dumps_trajectories(back) == text


@_SETTINGS
@given(trajectory_lists(_plain_text, one_width=True), st.integers(1, 60))
def test_jsonl_round_trip_reads_the_writer_form_whole_in_any_chunks(trajectories, chunk):
    # chunks of a few dozen characters: sessions, and a session's rows,
    # straddle them
    text = core.dumps_trajectories(trajectories)
    with mock.patch.object(core, "_CHUNK", chunk):
        assert core._read_writer_form(text) == trajectories
        back = core.loads_trajectories(text)
    assert back == trajectories
    assert core.dumps_trajectories(back) == text


_FIELDS = ("session_id", "strategy", "iteration", "objectives", "one objective", "missing")


def _corrupt_one_field(records, field, data):
    """Corrupt `field` of one drawn record in place."""
    rec = records[data.draw(st.integers(0, len(records) - 1))]
    if field in ("session_id", "strategy"):
        old = rec[field]
        rec[field] = data.draw(st.one_of(_json_values, _text).filter(lambda v: v != old))
    elif field == "iteration":
        old = rec["iteration"]
        rec["iteration"] = data.draw(
            _json_values.filter(lambda v: not (type(v) is int and v == old)))
    elif field == "objectives":
        n = len(rec["objectives"])
        rec["objectives"] = data.draw(_json_values.filter(lambda v: not _is_valid_row(v, n)))
    elif field == "one objective":
        i = data.draw(st.integers(0, len(rec["objectives"]) - 1))
        rec["objectives"][i] = data.draw(_bad_scores)
    else:
        del rec[data.draw(st.sampled_from(sorted(rec)))]


@pytest.mark.parametrize("field", _FIELDS)
@settings(_SETTINGS, max_examples=20)
@given(trajectory_lists(), st.data())
def test_single_field_corruption_raises_domain_error(field, trajectories, data):
    records = [rec for traj in trajectories for rec in reference_records(traj)]
    _corrupt_one_field(records, field, data)
    text = "".join(json.dumps(r) + "\n" for r in records)
    with pytest.raises(DomainError) as info:
        core.loads_trajectories(text)
    assert "\n" not in str(info.value)


# Any finite float, with the ones whose text is easiest to get wrong.
_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e16,
                     -1e16, 1.2345678901234567e16, 9007199254740993.0, 1e308]),
)


@st.composite
def finite_trajectory_lists(draw):
    trajectories = []
    for sid in draw(st.lists(_text, min_size=0, max_size=4, unique=True)):
        n = draw(st.integers(2, 4))
        rows = draw(st.lists(st.lists(_finite, min_size=n, max_size=n), max_size=4))
        trajectories.append(Trajectory(sid, draw(_text), np.array(rows).reshape(-1, n)))
    return trajectories


@_SETTINGS
@given(finite_trajectory_lists())
def test_writer_is_byte_identical_to_reference(trajectories):
    assert core.dumps_trajectories(trajectories) == reference_dumps(trajectories)


@pytest.mark.parametrize("group_rows", [1, 2, 3])
@_SETTINGS
@example([Trajectory("a", "X", [[1.5, 2.0, 0.1]] * 4), Trajectory("b", "X", np.empty((0, 3))),
          Trajectory("c", "Y", [[1.0, -0.0]] * 3), Trajectory("d", "X", [[3.0, 4.0, 5.0]] * 2),
          Trajectory("e", "X", np.empty((0, 2))), Trajectory("f", "X", [[7.0, 8.0, 9.0]])])
@given(finite_trajectory_lists())
def test_writer_groups_match_reference(group_rows, trajectories):
    # groups of a few rows: sessions straddle them, and mixed widths and
    # sessions with no rows meet their ends
    with mock.patch.object(core, "_GROUP_ROWS", group_rows):
        assert core.dumps_trajectories(trajectories) == reference_dumps(trajectories)


# Line-level damage, each kind aimed at a way a whole-text parse could
# pair records and lines up wrongly.
_DAMAGE = ("none", "two on one line", "split record", "lone bracket", "trailing comma",
           "padding", "bom", "raw u+2028", "blank line")
# Every separator `str.splitlines` knows, CRLF as one.
_SEPARATORS = ("\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029")


def _damage(lines, kind, data):
    i = data.draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    if kind == "two on one line":
        lines[i:i + 2] = [data.draw(st.sampled_from([", ", " ", ""])).join(lines[i:i + 2])]
    elif kind == "split record":
        cut = data.draw(st.integers(0, len(line)))
        lines[i:i + 1] = [line[:cut], line[cut:]]
    elif kind == "lone bracket":
        lines.insert(i, data.draw(st.sampled_from(["[", "]", "[{}", "{}]"])))
    elif kind == "trailing comma":
        lines[i] = line + ","
    elif kind == "padding":
        pads = st.sampled_from(["", " ", "\t", "\xa0"])
        lines[i] = data.draw(pads) + line + data.draw(pads)
    elif kind == "bom":
        lines[i] = "\ufeff" + line
    elif kind == "raw u+2028":
        at = line.index('"', line.index(":")) + 1  # inside the first string after a key
        lines[i] = line[:at] + "\u2028" + line[at:]
    elif kind == "blank line":
        lines.insert(i, data.draw(st.sampled_from(["", " ", "\t"])))


def _outcome(read, text):
    try:
        return read(text)
    except DomainError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("field", (None,) + _FIELDS)
@settings(_SETTINGS, max_examples=30)
@given(trajectory_lists(), st.sampled_from(_DAMAGE), st.data())
def test_reader_matches_per_line_reference(field, trajectories, kind, data):
    _check_reader_matches_reference(field, trajectories, kind, data)


# Half the texts are left whole and half have every field intact, so that
# many reach the whole-text path's later checks.
@settings(_SETTINGS, max_examples=120)
@given(st.sampled_from((None,) * len(_FIELDS) + _FIELDS),
       trajectory_lists(_plain_text, one_width=True),
       st.sampled_from(("none",) * len(_DAMAGE) + _DAMAGE), st.integers(1, 60), st.data())
def test_reader_matches_per_line_reference_in_small_chunks(field, trajectories, kind, chunk,
                                                           data):
    with mock.patch.object(core, "_CHUNK", chunk):
        _check_reader_matches_reference(field, trajectories, kind, data)


def _check_reader_matches_reference(field, trajectories, kind, data):
    records = [rec for traj in trajectories for rec in reference_records(traj)]
    if field is not None:
        _corrupt_one_field(records, field, data)
    lines = [json.dumps(r) for r in records]
    _damage(lines, kind, data)
    seps = data.draw(st.lists(st.sampled_from(_SEPARATORS),
                              min_size=len(lines), max_size=len(lines)))
    text = "".join(line + sep for line, sep in zip(lines, seps))
    if data.draw(st.booleans()):
        text = text[:-len(seps[-1])]
    assert _outcome(core.loads_trajectories, text) == _outcome(reference_loads, text)


def test_reader_keeps_records_on_their_own_lines():
    # As one bracketed JSON array these three lines parse to three valid
    # records; read line by line, line 1 is not a record.
    a, b, c = (json.dumps({"session_id": "s", "strategy": "X", "iteration": t,
                           "objectives": [1, 2]}) for t in range(3))
    text = f'{a[:-1]}, "pad": [{{}}\n{{}}]}}\n{b}, {c}\n'
    assert json.loads("[" + ",".join(text.splitlines()) + "]")[0]["iteration"] == 0
    for read in (core.loads_trajectories, reference_loads):
        with pytest.raises(core.RecordFormatError, match="^line 1: malformed record"):
            read(text)
    assert _outcome(core.loads_trajectories, text) == _outcome(reference_loads, text)


# Two sessions of three rows in the writer's form, and edits of it that the
# whole-text path must leave to the per-line reader: each line-level damage
# kind above, and each rule the whole-text path checks.
_WRITER_TEXT = core.dumps_trajectories(
    [Trajectory(f"s{i}", "AI", [[1.5, 2.0], [4.5, 0.0], [5.0, 5.0]]) for i in range(2)])
_NOT_WRITER_FORM = {
    "two on one line": lambda L: [L[0][:-1] + ", " + L[1]] + L[2:],
    "split record": lambda L: [L[0][:30] + "\n" + L[0][30:]] + L[1:],
    "lone bracket": lambda L: L[:2] + ["[\n"] + L[2:],
    "trailing comma": lambda L: [L[0][:-1] + ",\n"] + L[1:],
    "padding": lambda L: L[:4] + [" " + L[4]] + L[5:],
    "bom": lambda L: ["\ufeff" + L[0]] + L[1:],
    "raw u+2028": lambda L: L[:3] + [L[3].replace('"s1"', '"s\u20281"')] + L[4:],
    "blank line": lambda L: L[:1] + ["\n"] + L[1:],
    "crlf": lambda L: [line.replace("\n", "\r\n") for line in L],
    "no final line feed": lambda L: L[:-1] + [L[-1][:-1]],
    "integer objectives": lambda L: L[:2] + [L[2].replace("[5.0, 5.0]", "[5, 5]")] + L[3:],
    "integer -0": lambda L: L[:1] + [L[1].replace("[4.5, 0.0]", "[4.5, -0]")] + L[2:],
    "escaped id": lambda L: [line.replace('"s0"', '"s\\"0"') for line in L],
    "non-ASCII id": lambda L: [line.replace('"s0"', '"s\\u00e90"') for line in L],
    "one-row session": lambda L: L[:4],
    "repeated session": lambda L: L + L[:3],
    "strategy change": lambda L: L[:4] + [L[4].replace('"AI"', '"FF"')] + L[5:],
    "iteration gap": lambda L: L[:1] + L[2:],
    "iteration 01": lambda L: L[:1] + [L[1].replace('"iteration": 1', '"iteration": 01')] + L[2:],
    "widths differ": lambda L: L[:3] + [line.replace("]}", ", 1.0]}") for line in L[3:]],
    "one objective": lambda L: [line[:line.rindex(", ")] + "]}\n" for line in L],
    "value 10.5": lambda L: L[:4] + [L[4].replace("4.5", "10.5")] + L[5:],
    "value 1e999": lambda L: L[:4] + [L[4].replace("4.5", "1e999")] + L[5:],
    # 2-wide sessions past the first chunk, then a 3-wide one
    "width change after a chunk": lambda L: L + core.dumps_trajectories(
        [Trajectory(f"w{i}", "AI", [[1.0, 2.0]] * 2) for i in range(core._CHUNK // 80)]
        + [Trajectory("wide", "AI", [[1.0, 2.0, 3.0]] * 2)]).splitlines(keepends=True),
}
# Number texts that `float` or `json` may take but `repr` never writes, each
# put in place of one 4.5
_NOT_WRITER_FORM.update({
    f"number {number}": lambda L, number=number: L[:4] + [L[4].replace("4.5", number)] + L[5:]
    for number in ("1.", ".5", "+1.5", "01.5", "1.5e", "1.5e+", "1e", "1_0.5", "1.2_5",
                   "NaN", "Infinity")
})


def test_the_writer_form_edits_start_from_a_whole_text_read():
    assert core._read_writer_form(_WRITER_TEXT) == reference_loads(_WRITER_TEXT)
    assert set(_DAMAGE) - {"none"} <= set(_NOT_WRITER_FORM)
    lines = _NOT_WRITER_FORM["width change after a chunk"](_WRITER_TEXT.splitlines(keepends=True))
    assert "".join(lines).index("[1.0, 2.0, 3.0]") > core._CHUNK


def _exactly(trajectories):
    """Ids and the repr of every row, so that -0.0 differs from 0.0."""
    return [(t.session_id, t.strategy_id, repr(t.values_matrix.tolist())) for t in trajectories]


@pytest.mark.parametrize("number", ["5E-1", "1e0", "-0.0", "2.5e-07"])
def test_reader_takes_every_in_box_number_of_the_writer_grammar(number):
    lines = _WRITER_TEXT.splitlines(keepends=True)
    text = "".join(lines[:4] + [lines[4].replace("4.5", number)] + lines[5:])
    for chunk in (core._CHUNK, 1, 100):
        with mock.patch.object(core, "_CHUNK", chunk):
            trajectories = core._read_writer_form(text)
            assert trajectories is not None
            assert _exactly(trajectories) == _exactly(reference_loads(text))


@pytest.mark.parametrize("edit", sorted(_NOT_WRITER_FORM))
def test_reader_leaves_other_text_to_the_per_line_path(edit):
    text = "".join(_NOT_WRITER_FORM[edit](_WRITER_TEXT.splitlines(keepends=True)))
    assert text != _WRITER_TEXT
    for chunk in (core._CHUNK, 1, 100):  # one chunk, one line a chunk, and between
        with mock.patch.object(core, "_CHUNK", chunk):
            assert core._read_writer_form(text) is None
            assert _outcome(core.loads_trajectories, text) == _outcome(reference_loads, text)


# Small integer grids make ties, duplicates and block-crossing dominators common.
@st.composite
def _grids(draw):
    """Rows of a small integer grid, with copies of the lexicographic
    maximum and rows tied with it on axis 0 shuffled in, so that the row
    the sweep starts from and its duplicates meet blocks of every size."""
    n = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                         min_size=1, max_size=30))
    top = max(rows)
    tied = draw(st.lists(st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1),
                         max_size=6))
    copies = draw(st.integers(0, 4))
    return draw(st.permutations(rows + [top] * copies + [[top[0], *t] for t in tied]))


@_SETTINGS
@given(_grids(), st.integers(1, 5))
def test_pareto_mask_matches_brute_force(rows, block):
    with mock.patch.object(pareto, "_BLOCK", block):
        mask = pareto.non_dominated_mask(np.array(rows, dtype=float))
    assert mask.tolist() == brute_non_dominated(rows)


@st.composite
def grid_session_sets(draw):
    """Sessions of small integer grids, in lengths that repeat, so that
    runs of equal length span several chunks and meet longer sessions."""
    n = draw(st.integers(2, 4))
    lengths = draw(st.lists(st.sampled_from([1, 2, 3, 9]), min_size=1, max_size=20))
    return [draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                          min_size=T, max_size=T)) for T in lengths]


@_SETTINGS
@given(grid_session_sets(), st.integers(1, 5))
def test_efficiency_rows_match_per_session_efficiency(sessions, block):
    data = SessionSet("X", [Trajectory(f"s{i}", "X", rows) for i, rows in enumerate(sessions)])
    with mock.patch.object(pareto, "_BLOCK", block):
        got = [row[1] for row in pareto.efficiency_rows(data, tail=1)]
        want = [pareto.pareto_efficiency(traj) for traj in data]
    assert got == want == [brute_efficiency(rows) for rows in sessions]


# Quotes, string prefixes, backslashes mid-line and before every line break,
# brackets, comments, NUL, tabs and every `str.splitlines` separator.
_SOURCE_TOKENS = (["'", '"', "'''", '"""', "\\", "(", ")", "[", "]", "{", "}", "#",
                   "\x00", "\t", " ", "    ", "x", "=", ":", "+"]
                  + list("rbfuRBFU") + list(_SEPARATORS) + ["\\" + b for b in _SEPARATORS])


@settings(_SETTINGS, max_examples=600)
@given(st.lists(st.sampled_from(_SOURCE_TOKENS), max_size=40).map("".join))
def test_clean_lines_matches_per_character_reference(source):
    logical, valid, nonblank = scorer._clean_lines(source)
    ref_logical, ref_valid, ref_nonblank = reference_clean_lines(source)
    assert logical == ref_logical  # indent, cleaned text, each literal's text and prefix
    assert valid == ref_valid
    assert nonblank == ref_nonblank


# The rule patterns' gate words and near-misses of them, spawn calls with
# and without `shell=True`, and the quotes, brackets, comments and line
# breaks that hide a word from the patterns or join lines.
_RULE_TOKENS = ["eval(", "eval (", "x.eval(", "evaluate(", "exec (", "exec", "_exec(",
                "shell=True", "shell = True", "shell=Truex", "subprocess.run(", "os.system",
                "Popen(", "run(", "isinstance(", "x.isinstance(", "issubclass(",
                "type(x) ==", "type(x) is ", "typed(", "type(", "assert x <", "asserts",
                "assert ", "_assert x == 1", "raise ValueError", "raise TypeError",
                "raise_", "raise ", "x", " ", "(", ")", ",", ":", "==", "<", "'", '"', "# ",
                "\n", "\n    "]
# Each line's tokens as code, inside quotes, after `#` or inside brackets.
_RULE_WRAPS = [("", ""), ("'", "'"), ('"', '"'), ("# ", ""), ("y = 1  # ", ""), ("f(", ")")]
_rule_sources = st.lists(
    st.tuples(st.sampled_from(_RULE_WRAPS), st.lists(st.sampled_from(_RULE_TOKENS), max_size=6)),
    max_size=6,
).map(lambda lines: "\n".join(pre + "".join(tokens) + post for (pre, post), tokens in lines))


@settings(_SETTINGS, max_examples=600)
@given(_rule_sources)
def test_scan_source_matches_ungated_reference(source):
    assert scorer.scan_source(source) == reference_scan_source(source)


# One logical line each: the block openers, an import, a one-line `if` that
# opens no block, bare docstring literals, plain statements and a blank line.
_BLOCK_LINES = ["def f():", "class C:", "for a in b:", "while x:", "if x:", "async def g():",
                "from a import b", "if x: y", '"""doc"""', "'doc'", "pass", "x = 1", ""]
_block_sources = st.lists(
    st.tuples(st.sampled_from([0, 2, 4, 8, 12]), st.sampled_from(_BLOCK_LINES)), max_size=10,
).map(lambda lines: "".join(" " * indent + text + "\n" for indent, text in lines))


@settings(_SETTINGS, max_examples=600)
@given(_block_sources)
# The line after an opener that it fails to indent under still closes the
# enclosing blocks: the last loop does not nest in the first.
@example("for a in b:\n    for c in d:\nfor e in f:\n    pass\n")
def test_scan_source_block_walk_matches_reference(source):
    assert scorer.scan_source(source) == reference_scan_source(source)
