import textwrap

import pytest

from driftlab import scorer
from driftlab.core import InvalidExpectedLength
from driftlab.scorer import (
    reconstruct_scores,
    scan_source,
    score_all,
    score_efficiency,
    score_functionality,
    score_security,
)


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
