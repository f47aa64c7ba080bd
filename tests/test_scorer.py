import re
import textwrap

import numpy as np
import pytest

try:
    from re import _constants as sre_constants, _parser as sre_parse
except ImportError:  # Python 3.10
    import sre_constants
    import sre_parse

from driftlab import scorer
from driftlab.core import InvalidExpectedLength, read_text
from driftlab.scorer import (
    scan_source,
    score_all,
    score_efficiency,
    score_functionality,
    score_security,
)

from oracles import reconstruct_scores


def src(text: str) -> str:
    return textwrap.dedent(text).strip("\n") + "\n"


# ---------------------------------------------------------------------------
# security
# ---------------------------------------------------------------------------

def test_single_eval_call():
    score, hits = score_security(src("""
        result = eval(payload)
    """))
    assert score == 3.0
    assert [(h.rule_id, h.count) for h in hits] == [("security.eval_exec_call", 1)]


def test_empty_source_is_base():
    score, hits = score_security("")
    assert score == 5.0 and hits == []


def test_try_except_and_isinstance():
    score, _ = score_security(src("""
        try:
            value = parse(raw)
        except Exception:
            value = None
        if isinstance(raw, str):
            value = raw
    """))
    assert score == 6.5


def test_eval_and_exec_both_count_per_occurrence():
    score, _ = score_security(src("""
        a = eval(x)
        exec(y)
        b = eval(z)
    """))
    assert score == max(0.0, 5.0 - 3 * 2.0)


def test_literal_eval_not_flagged():
    score, hits = score_security(src("""
        import ast
        value = ast.literal_eval(text)
    """))
    assert all(h.rule_id != "security.eval_exec_call" for h in hits)


def test_eval_inside_string_or_comment_not_flagged():
    score, hits = score_security(src("""
        note = "never call eval(x) here"
        y = 1  # eval(x) would be bad
    """))
    assert all(h.rule_id != "security.eval_exec_call" for h in hits)


def test_shell_true_in_spawn_call():
    score, hits = score_security(src("""
        import subprocess
        subprocess.run(cmd, shell=True)
    """))
    assert ("security.shell_true", 1) in [(h.rule_id, h.count) for h in hits]
    assert score == 3.5


def test_shell_true_outside_spawn_context_ignored():
    _, hits = score_security(src("""
        configure(shell=True)
    """))
    assert all(h.rule_id != "security.shell_true" for h in hits)


def _ways(items) -> list[list]:
    """Each way through a parsed pattern's branches and plain groups, as a
    flat list of (op, argument) items."""
    ways = [[]]
    for op, av in items:
        if op is sre_constants.BRANCH:
            ways = [w + sub for w in ways for alt in av[1] for sub in _ways(alt)]
        elif op is sre_constants.SUBPATTERN and not av[1] and not av[2]:
            ways = [w + sub for w in ways for sub in _ways(av[3])]
        else:
            ways = [w + [(op, av)] for w in ways]
    return ways


def _literal_runs(way) -> list[str]:
    """The runs of consecutive literal characters on one way: every match
    taken that way holds each of them."""
    runs = [""]
    for op, av in way:
        if op is sre_constants.LITERAL:
            runs[-1] += chr(av)
        else:
            runs.append("")
    return [run for run in runs if run]


@pytest.mark.parametrize("words, rx", [
    pytest.param(("eval", "exec"), scorer._EVAL_EXEC_RE, id="eval-exec"),
    pytest.param(("shell",), scorer._SHELL_TRUE_RE, id="shell-true"),
    *(pytest.param((word,), rx, id=word) for word, rx in scorer._VALIDATION_RES),
])
def test_each_gate_word_is_needed_by_its_pattern(words, rx):
    """`scan_source` runs a pattern only on a line holding one of its gate
    words, so every match must hold one: on each way through the pattern's
    branches, a word lies in a run of literals outside any repeat. (The
    spawn search needs no word: it runs only after a `_SHELL_TRUE_RE` hit,
    and the count it adds is those hits.)"""
    assert not rx.flags & re.IGNORECASE
    for way in _ways(sre_parse.parse(rx.pattern)):
        runs = _literal_runs(way)
        assert any(w in run for w in words for run in runs), (words, rx.pattern, runs)


def test_sql_concatenation_flagged():
    score, hits = score_security(src("""
        cursor.execute("SELECT name FROM users WHERE id = " + user_id)
    """))
    assert ("security.sql_string_build", 1) in [(h.rule_id, h.count) for h in hits]


def test_sql_fstring_flagged():
    _, hits = score_security(src("""
        query = f"DELETE FROM logs WHERE day < {cutoff}"
    """))
    assert ("security.sql_string_build", 1) in [(h.rule_id, h.count) for h in hits]


def test_parameterized_sql_is_safe():
    _, hits = score_security(src("""
        cursor.execute("SELECT name FROM users WHERE id = %s", (user_id,))
    """))
    assert all(h.rule_id != "security.sql_string_build" for h in hits)


def test_raw_nul_in_code_is_not_a_literal_marker():
    plain = scan_source('f(a+1, "SELECT x")\n')
    nul = scan_source('f(\x00+1, "SELECT x")\n')
    assert nul.sql_string_builds == plain.sql_string_builds == 0
    assert not scan_source("\x00\nx = 1\n").has_docstring


def test_scores_clipped_to_zero():
    body = "\n".join(f"x{i} = eval(v{i})" for i in range(6))
    score, _ = score_security(body)
    assert score == 0.0


# ---------------------------------------------------------------------------
# efficiency
# ---------------------------------------------------------------------------

def test_flat_code_scores_ten():
    score, hits = score_efficiency(src("""
        a = 1
        b = a + 2
        c = b * 3
    """))
    assert score == 10.0 and hits == []


def test_invalid_fragment_scores_low_baseline():
    score, hits = score_efficiency("def f(:\n  ,,,((\n")
    assert score == 2.0
    assert hits[0].rule_id == "efficiency.invalid_baseline"


def test_bad_dedent_is_invalid():
    score, _ = score_efficiency("if a:\n        b = 1\n    c = 2\n")
    assert score == 2.0


def test_unbalanced_bracket_is_invalid():
    score, _ = score_efficiency("x = (1 + 2\n")
    assert score == 2.0


def test_opener_without_body_is_invalid():
    score, _ = score_efficiency("for i in range(3):\n")
    assert score == 2.0


def test_opener_followed_by_a_line_at_its_indent_is_invalid():
    score, hits = score_efficiency("def f():\nx = 1\n")
    assert score == 2.0
    assert [h.rule_id for h in hits] == ["efficiency.invalid_baseline"]


# Characters at which `str.splitlines` breaks a line and Python does not.
_NOT_PYTHON_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                           "\u2029"]


@pytest.mark.parametrize("ch", _NOT_PYTHON_LINE_BREAKS)
def test_only_python_line_breaks_end_a_line(ch):
    for source, twin in [(f"def f(x):\n    s = 'a{ch}b'\n    return s\n",
                          "def f(x):\n    s = 'ab'\n    return s\n"),
                         (f"def f(x):\n    # note{ch}if x:\n    return x\n",
                          "def f(x):\n    # note if x:\n    return x\n")]:
        compile(source, "<source>", "exec")  # one string, one comment, three lines
        assert score_all(source, 3) == score_all(twin, 3)
    assert score_all(f"def f(x):\n    s = 'a{ch}b'\n    return s\n", 3).efficiency == 10.0


@pytest.mark.parametrize("lead", ["\x0c    ", "  \x0c    ", "\t\x0c  ", "\x0c\t", "        \x0c "])
def test_a_form_feed_in_the_indentation_resets_its_column(lead):
    source = f"def f(x):\n{lead}return x\n"
    compile(source, "<source>", "exec")
    assert score_all(source, 2) == score_all("def f(x):\n    return x\n", 2)


def test_a_form_feed_dedents_a_line_as_python_reads_it():
    # the form feed takes `y` back to column 0: a statement after the block
    source = "if x:\n    z = 1\n    \x0cy = 2\n"
    compile(source, "<source>", "exec")
    assert scan_source(source).max_depth == scan_source("if x:\n    z = 1\ny = 2\n").max_depth
    assert score_all(source, 3) == score_all("if x:\n    z = 1\ny = 2\n", 3)


def test_a_leading_bom_is_not_source_text(tmp_path):
    # a file's BOM is dropped where the file is decoded, once, as Python
    # drops it from bytes; a str's BOM is a character, as in compile(str)
    source = "def f(x):\n    return x\n"
    compile(("\ufeff" + source).encode("utf-8"), "<source>", "exec")
    path = tmp_path / "bom.py"
    path.write_bytes(("\ufeff" + source).encode("utf-8"))
    assert score_all(read_text(path), 1) == score_all(source, 1)
    assert score_all(read_text(path), 1).efficiency == 10.0
    for text in ("\ufeff" + source, "\ufeff\ufeff" + source):
        with pytest.raises(SyntaxError, match="U\\+FEFF"):
            compile(text, "<source>", "exec")
        assert score_all(text, 1).efficiency == 2.0
    path.write_bytes(("\ufeff\ufeff" + source).encode("utf-8"))
    assert score_all(read_text(path), 1).efficiency == 2.0


def test_triple_nested_loop():
    score, _ = score_efficiency(src("""
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    total += i * j * k
    """))
    assert score == 6.0


def test_loop_if_loop_is_not_directly_nested():
    score, hits = score_efficiency(src("""
        for i in range(3):
            if i % 2:
                for j in range(3):
                    total += j
    """))
    # depth 3 -> -1.0; no direct loop pair; 3 constructs
    assert score == 9.0
    assert all(h.rule_id != "efficiency.nested_loop_pair" for h in hits)


def test_control_flow_beyond_free_allowance():
    body = "\n".join(f"if x{i}:\n    y = {i}" for i in range(8))
    score, hits = score_efficiency(body)
    # 8 branches: 3 beyond the first 5 at -0.25 each
    assert score == 10.0 - 0.75
    assert ("efficiency.extra_control_flow", 3) in [(h.rule_id, h.count) for h in hits]


def test_empty_source_is_trivially_parseable():
    score, hits = score_efficiency("")
    assert score == 10.0 and hits == []


# ---------------------------------------------------------------------------
# functionality
# ---------------------------------------------------------------------------

def test_empty_source_scores_zero():
    score, hits = score_functionality("", 50)
    assert score == 0.0
    assert hits[-1].rule_id == "functionality.length_scale"


def test_all_six_feature_classes():
    code = src("""
        \"\"\"Utility module.\"\"\"
        import os

        class Thing:
            def run(self):
                try:
                    return os.name
                except OSError:
                    return "?"
    """)
    score, hits = score_functionality(code, 10)
    assert score == 10.0
    features = {h.rule_id for h in hits if h.rule_id.startswith("functionality.feature.")}
    assert len(features) == 6


def test_three_feature_classes():
    code = src("""
        import os

        def f(x):
            return x + 1
    """)
    score, _ = score_functionality(code, 10)
    assert score == 5.5


def test_stub_penalty_scales_score():
    code = "def f(x):\n    return x\n"
    full, _ = score_functionality(code, 5)
    stub, _ = score_functionality(code, 100)
    assert stub < full
    # 2 nonblank lines vs 0.3 * 100 = 30 required: factor 1/15
    assert stub == pytest.approx(full * (2 / 30), abs=1e-12)


def test_expected_length_validated():
    with pytest.raises(InvalidExpectedLength):
        score_functionality("x = 1\n", 0)


@pytest.mark.parametrize("expected_length", [2.5, 2.0, True, np.float64(3.0)])
def test_expected_length_must_be_an_integer(expected_length):
    for score in (score_all, score_functionality):
        with pytest.raises(TypeError, match="^expected_length must be an integer, got "):
            score("def f(x):\n    return x\n", expected_length)


def test_a_numpy_integer_expected_length_counts_as_its_value():
    code = "def f(x):\n    return x\n"
    assert score_all(code, np.int64(40)) == score_all(code, 40)


def test_docstring_requires_first_statement_position():
    with_doc = src("""
        def f():
            "doc"
            return 1
    """)
    without_doc = src("""
        def f():
            x = 1
            return "not a doc"
    """)
    _, hits_with = score_functionality(with_doc, 3)
    _, hits_without = score_functionality(without_doc, 3)
    names = lambda hs: {h.rule_id for h in hs}
    assert "functionality.feature.docstrings" in names(hits_with)
    assert "functionality.feature.docstrings" not in names(hits_without)


@pytest.mark.parametrize("code, fired", [
    ("from pkg import name\n", {"functionality.feature.imports"}),
    ("from_x = 1\n", set()),
    ("def g():\n    yield from h()\n", {"functionality.feature.functions"}),
    ("async def f():\n    pass\n", {"functionality.feature.functions"}),
    ("try:\n    f()\nexcept:\n    pass\n",
     {"security.exception_handling", "functionality.feature.error_handling"}),
    ("try:\n    f()\nfinally:\n    pass\n", set()),
])
def test_feature_words(code, fired):
    assert {h.rule_id for h in score_all(code, 1).rule_hits} == fired
# ---------------------------------------------------------------------------
# score_all and invariants
# ---------------------------------------------------------------------------

def test_empty_source_bundle():
    b = score_all("", 10)
    assert (b.security, b.efficiency, b.functionality) == (5.0, 10.0, 0.0)


def test_determinism_byte_for_byte():
    code = src("""
        import subprocess
        def launch(cmd):
            "run a tool"
            for part in cmd:
                subprocess.run(part, shell=True)
            return eval(cmd[0])
    """)
    assert score_all(code, 20) == score_all(code, 20)


def test_all_scores_within_bounds_on_garbage():
    nasty = ["", "\x00\x01\x02", ")" * 50, "def..:::", "a" * 10_000,
             "for for for:", '"""unterminated', "if x:\n\tok()\n"]
    for text in nasty:
        b = score_all(text, 10)
        for v in (b.security, b.efficiency, b.functionality):
            assert 0.0 <= v <= 10.0


def test_reconstruction_identity():
    import numpy as np
    rng = np.random.default_rng(81)
    snippets = [
        "x = eval(a)\n",
        "try:\n    f()\nexcept Exception:\n    pass\n",
        "for i in r:\n    for j in r:\n        g(i, j)\n",
        "def f():\n    'doc'\n    return 1\n",
        "",
        "(((\n",
    ]
    for _ in range(50):
        text = "".join(s for s in snippets if rng.random() < 0.5)
        expected_length = int(rng.integers(1, 60))
        b = score_all(text, expected_length)
        rec = reconstruct_scores(b)
        assert rec["security"] == b.security
        assert rec["efficiency"] == b.efficiency
        assert rec["functionality"] == b.functionality
        axes = (score_security(text), score_efficiency(text),
                score_functionality(text, expected_length))
        assert ((b.security, b.efficiency, b.functionality), b.rule_hits) == (
            tuple(score for score, _ in axes), tuple(h for _, hits in axes for h in hits))


_EVERY_RULE = src('''
    """Tools."""
    import subprocess
    class Runner:
        def run(self, cmd, rows):
            if not isinstance(cmd, str):
                raise ValueError(cmd)
            try:
                subprocess.run(cmd, shell=True)
                cursor.execute("SELECT * FROM t WHERE id = " + cmd)
            except OSError:
                return eval(cmd)
            for row in rows:
                for cell in row:
                    if cell:
                        while cell:
                            if cell > 1:
                                cell -= 1
            return rows
''')


@pytest.mark.parametrize("source, expected_length", [
    (_EVERY_RULE, 10),  # valid
    (_EVERY_RULE + "def broken(:\n", 10),  # structurally invalid
    ("def f(x):\n    return x\n", 1),
    ("def f(x):\n    return x\n", 500),  # stub-length
    ("", 1),
])
def test_each_axis_function_is_its_axis_of_score_all(source, expected_length):
    b = score_all(source, expected_length)
    views = {"security": score_security(source), "efficiency": score_efficiency(source),
             "functionality": score_functionality(source, expected_length)}
    for axis, (score, hits) in views.items():
        assert score == getattr(b, axis)
        assert hits == [h for h in b.rule_hits if h.rule_id.startswith(axis + ".")]


def test_the_axis_sources_fire_every_rule():
    compile(_EVERY_RULE, "<source>", "exec")
    fired = {h.rule_id for source, expected_length in [
        (_EVERY_RULE, 10), (_EVERY_RULE + "def broken(:\n", 10), ("def f(x):\n    return x\n", 500)]
        for h in score_all(source, expected_length).rule_hits}
    features = ("functions", "classes", "imports", "returns", "docstrings", "error_handling")
    rules = {key for key in scorer._RULES if not key.endswith(
        (".base", ".invalid_score", ".free_depth", ".free_control_flow", ".feature_class",
         ".stub_fraction"))}
    assert fired == rules | {f"functionality.feature.{name}" for name in features} | {
        "efficiency.invalid_baseline", "functionality.length_scale"}


def test_score_all_scans_once(monkeypatch):
    calls = []

    def counting_scan(source):
        calls.append(source)
        return scan_source(source)

    monkeypatch.setattr(scorer, "scan_source", counting_scan)
    score_all("import os\nx = eval(os.environ['X'])\n", 5)
    assert len(calls) == 1


def test_scoring_never_touches_filesystem(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    score_all('open("landmine.txt", "w").write("boom")\n', 10)
    assert list(tmp_path.iterdir()) == []


def test_monotonicity_spot_checks():
    base = "def f(x):\n    return x\n"
    sec0, _ = score_security(base)
    sec1, _ = score_security(base + "y = eval(q)\n")
    assert sec1 <= sec0

    eff0, _ = score_efficiency(base)
    wrapped = "if True:\n" + textwrap.indent(base, "    ")
    eff1, _ = score_efficiency(wrapped)
    assert eff1 <= eff0

    fun0, _ = score_functionality(base, 10)
    fun1, _ = score_functionality(base + "import os\n", 10)
    assert fun1 >= fun0


def test_scan_counts():
    scan = scan_source(src("""
        import os

        def walk(tree):
            for node in tree:
                if node.ok:
                    while node.busy:
                        node.wait()
            return tree
    """))
    assert scan.structurally_valid
    assert scan.max_depth == 4
    assert scan.control_flow_count == 3
    assert {"import", "def", "return"} <= scan.words
    assert "class" not in scan.words
