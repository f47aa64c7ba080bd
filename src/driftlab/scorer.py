"""Static, execution-free scoring of source code on three 0-10 axes.

The analyzer is deliberately lightweight: block structure comes from
indentation, pattern rules from tokenized line matching. It targets
indentation-delimited source and never parses a full grammar, never
executes, spawns, or writes anything.

Rule weights live in ``scorer_rules.cfg`` next to this module, read once
at import; every score is reproducible as clip(base + sum of rule-hit
deltas, 0, 10).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, NamedTuple

from .core import (SCORE_HIGH, SCORE_LOW, InvalidExpectedLength, _shown, check_integer,
                   parse_key_values, physical_lines)

_BLOCK_KEYWORDS = {
    "def", "class", "if", "elif", "else", "for", "while", "with",
    "try", "except", "finally", "match", "case", "async",
}
_LOOP_KEYWORDS = {"for", "while"}
_CONTROL_FLOW_KEYWORDS = {"for", "while", "if", "elif"}
_ERROR_WORDS = {"try", "except"}  # both must open a line to count as handling

_EVAL_EXEC_RE = re.compile(r"(?<![\w.])(?:eval|exec)\s*\(")
_SHELL_TRUE_RE = re.compile(r"shell\s*=\s*True\b")
_SPAWN_CONTEXT_RE = re.compile(
    r"(?:subprocess\s*\.\s*\w+|(?<![\w.])Popen\s*\(|(?<![\w.])run\s*\(|"
    r"(?<![\w.])call\s*\(|check_call\s*\(|check_output\s*\(|os\s*\.\s*system)"
)
_SQL_KEYWORD_RE = re.compile(
    r"(?i)\b(?:select|insert|update|delete|drop|alter|create)\b"
)
# Each validation pattern with a word that every match of it contains, so
# a line without the word is skipped without running the pattern (a test
# parses each pattern to check that its word is still needed).
_VALIDATION_RES = (
    ("isinstance", re.compile(r"(?<![\w.])isinstance\s*\(")),
    ("issubclass", re.compile(r"(?<![\w.])issubclass\s*\(")),
    ("type", re.compile(r"(?<![\w.])type\s*\([^)]*\)\s*(?:==|is\b)")),
    ("assert", re.compile(r"(?<!\w)assert\b.*(?:<=|>=|==|<|>)")),
    ("raise", re.compile(r"(?<!\w)raise\s+(?:TypeError|ValueError)\b")),
)

_WORD_RE = re.compile(r"[A-Za-z_]\w*")
_IMPORT_RE = re.compile(r"\bimport\b")

_MARK = "\x00"  # stand-in for a string literal in cleaned code
_PAIRS = {")": "(", "]": "[", "}": "{"}
# In code, a run up to the next quote, bracket, backslash or comment.
_CODE_RUN_RE = re.compile(r"[^\"'#()\[\]{}\\]*")
# Inside a literal, its body up to the closing delimiter or the line end:
# a backslash takes the character after it, and a triple-quoted body may
# hold its quote character alone or doubled.
_LITERAL_BODY_RES = {
    **{q: re.compile(rf"(?:[^\\{q}]+|\\.?)*") for q in "'\""},
    **{q * 3: re.compile(rf"(?:[^\\{q}]+|\\.?|{q}(?!{q}{q}))*") for q in "'\""},
}


_RULES = {key: float(value) for key, value in parse_key_values(
    resources.files(__package__).joinpath("scorer_rules.cfg").read_text("utf-8")).items()}


# ---------------------------------------------------------------------------
# Lightweight source scan
# ---------------------------------------------------------------------------

class _Literal(NamedTuple):
    text: str
    prefix: str


@dataclass
class SourceScan:
    """Every signal the three axis rules read, gathered by `scan_source`:
    counts, flags and first words only, so no rule goes back to the source
    text. `words` holds the first word of each logical line, after an
    `async`, with "import" for a `from ... import` line."""

    nonblank_lines: int
    structurally_valid: bool
    max_depth: int = 0
    nested_loop_pairs: int = 0
    control_flow_count: int = 0
    words: set[str] = field(default_factory=set)
    has_docstring: bool = False
    eval_exec_calls: int = 0
    shell_true_calls: int = 0      # only on lines that spawn a process
    sql_string_builds: int = 0
    has_validation: bool = False


def _clean_lines(source: str) -> tuple[list[tuple[int, str, list[_Literal]]], bool, int]:
    """Strip strings and comments, join continuations, balance brackets.

    One state says whether a string literal is open: `close`, its closing
    delimiter, or None in code. Each step consumes a whole run with one
    precompiled match: in code, the characters up to the next quote,
    bracket, backslash or `#`; inside a literal, its body up to the close
    or the line end. A literal's prefix is the string-prefix letters
    (at most three) that end the code run before its opening quote.

    The physical lines are Python's (`physical_lines`: a leading BOM is
    dropped, and a line ends at "\n", "\r\n" or "\r" only), and a form feed
    in a line's indentation resets its column to 0, as CPython's tokenizer
    does.

    Returns the logical lines as (indent, cleaned, literals) tuples, where
    `cleaned` is the code with each literal replaced by `_MARK` and
    comments gone; a validity flag covering bracket balance and string
    termination; and the count of non-blank physical lines.
    """
    valid = True
    nonblank = 0
    logical: list[tuple[int, str, list[_Literal]]] = []
    # The open logical line's code: empty only between logical lines, as
    # every step in code appends its run, even an empty one.
    parts: list[str] = []
    literals: list[_Literal] = []
    indent = 0
    close: str | None = None
    body: list[str] = []
    prefix = ""
    brackets: list[str] = []
    feed = "\x0c" in source
    for raw in physical_lines(source):
        line = raw.expandtabs()
        blank = not line.strip()
        nonblank += not blank
        if not parts:
            if blank:
                continue
            indent = len(line) - len(line.lstrip(" "))
            if feed and line.startswith("\x0c", indent):
                lead = raw[:len(raw) - len(raw.lstrip(" \t\x0c"))]
                indent = len(lead[lead.rfind("\x0c") + 1:].expandtabs())
        i, end = 0, len(line)
        backslash_eol = False
        while True:
            if close is not None:
                m = _LITERAL_BODY_RES[close].match(line, i)
                body.append(m[0])
                i = m.end() + len(close)
                if i > end:
                    if len(close) == 3:
                        break
                    # string ran off the end of its line: recover, flag invalid
                    valid = False
                literals.append(_Literal("".join(body), prefix))
                parts.append(_MARK)
                close, body = None, []
            m = _CODE_RUN_RE.match(line, i)
            # a raw NUL in code must not pass for a literal marker
            parts.append(m[0].replace(_MARK, " "))
            i = m.end()
            if i == end or line[i] == "#":
                break
            ch = line[i]
            if ch in "\"'":
                tail = parts[-1][-3:]
                prefix = tail[len(tail.rstrip("rbfuRBFU")):]
                parts[-1] = parts[-1][:len(parts[-1]) - len(prefix)]
                close = ch * 3 if line.startswith(ch * 3, i) else ch
                i += len(close)
                continue
            i += 1
            if ch == "\\" and i == end:
                backslash_eol = True
                break
            if ch in "([{":
                brackets.append(ch)
            elif ch in _PAIRS:
                if brackets and brackets[-1] == _PAIRS[ch]:
                    brackets.pop()
                else:
                    valid = False
            parts.append(ch)
        if close is not None:
            body.append("\n")
        elif backslash_eol or brackets:
            parts.append(" ")
        else:
            logical.append((indent, "".join(parts), literals))
            parts, literals = [], []
    if parts:
        valid = False
        if close is not None:
            literals.append(_Literal("".join(body), prefix))
            parts.append(_MARK)
        logical.append((indent, "".join(parts), literals))
    return logical, valid, nonblank


def scan_source(source: str) -> SourceScan:
    """Read the source once and return every signal of all three axes.

    This is the only function that reads source text: the axis rules
    work on the `SourceScan` it returns.
    """
    logical, valid, nonblank = _clean_lines(source)
    match_word = _WORD_RE.match
    words: set[str] = set()
    max_depth = nested_loop_pairs = control_flow_count = 0
    eval_exec_calls = shell_true_calls = sql_string_builds = 0
    has_docstring = has_validation = False

    # Block analysis over logical lines: stack entries are
    # (body_indent, opener_is_loop) for each enclosing block.
    stack: list[tuple[int, bool]] = []
    pending: tuple[int, bool, bool] | None = None  # (opener_indent, is_loop, wants_doc)
    first_statement = True
    for indent, cleaned, literals in logical:
        stripped = cleaned.strip()
        if not stripped:
            continue
        if pending is not None:
            opener_indent, is_loop, wants_doc = pending
            pending = None
            if indent <= opener_indent:
                valid = False
            else:
                stack.append((indent, is_loop))
                if wants_doc and stripped == _MARK:
                    has_docstring = True
        # Also on the line after an opener it fails to indent under: that
        # line may close enclosing blocks too.
        while stack and indent < stack[-1][0]:
            stack.pop()
        if indent != (stack[-1][0] if stack else 0):
            valid = False
        if len(stack) > max_depth:
            max_depth = len(stack)
        if first_statement:
            if stripped == _MARK:
                has_docstring = True
            first_statement = False

        m = match_word(stripped)
        word = m[0] if m else ""
        if word == "async":
            m = match_word(stripped[len("async"):].lstrip())
            word = m[0] if m else ""
        elif word == "from" and _IMPORT_RE.search(stripped):
            word = "import"
        words.add(word)
        if word in _CONTROL_FLOW_KEYWORDS:
            control_flow_count += 1

        if word in _BLOCK_KEYWORDS and stripped.endswith(":"):
            is_loop = word in _LOOP_KEYWORDS
            if is_loop and stack and stack[-1][1]:
                nested_loop_pairs += 1
            wants_doc = word in ("def", "class")
            pending = (indent, is_loop, wants_doc)

        # Each pattern runs only on a line that holds what its every match
        # needs (a word, or for the spawn search a `shell=True` hit): the
        # counts are the same, and most lines skip every pattern.
        if "eval" in cleaned or "exec" in cleaned:
            eval_exec_calls += len(_EVAL_EXEC_RE.findall(cleaned))
        if "shell" in cleaned:
            shell = _SHELL_TRUE_RE.findall(cleaned)
            if shell and _SPAWN_CONTEXT_RE.search(cleaned):
                shell_true_calls += len(shell)
        if not has_validation:
            for gate, rx in _VALIDATION_RES:
                if gate in cleaned and rx.search(cleaned):
                    has_validation = True
                    break
        # SQL-keyword literals that are concatenated or interpolated
        # (f-string braces, +, %-format, .format); the cleaner puts one
        # marker in `cleaned` per literal, in order.
        pos = -1
        for text, prefix in literals:
            pos = cleaned.index(_MARK, pos + 1)
            if _SQL_KEYWORD_RE.search(text) and (
                    ("f" in prefix.lower() and "{" in text)
                    or cleaned[:pos].rstrip().endswith("+")
                    or cleaned[pos + 1:].lstrip().startswith(("+", "%", ".format("))):
                sql_string_builds += 1
    if pending is not None:
        # block opener with no body
        valid = False
    return SourceScan(
        nonblank_lines=nonblank, structurally_valid=valid, max_depth=max_depth,
        nested_loop_pairs=nested_loop_pairs, control_flow_count=control_flow_count,
        words=words, has_docstring=has_docstring, eval_exec_calls=eval_exec_calls,
        shell_true_calls=shell_true_calls, sql_string_builds=sql_string_builds,
        has_validation=has_validation,
    )


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

class RuleHit(NamedTuple):
    rule_id: str
    count: int
    delta: float


@dataclass(frozen=True)
class ScoreBreakdown:
    security: float
    efficiency: float
    functionality: float
    rule_hits: tuple[RuleHit, ...]


def _axis_score(axis: str, hits: list[RuleHit]) -> float:
    """clip(base + sum of the axis's rule-hit deltas): every score is this."""
    return min(SCORE_HIGH, max(SCORE_LOW, _RULES[f"{axis}.base"] + sum(h.delta for h in hits)))


def _check_expected_length(expected_length: int, name: str = "expected_length") -> None:
    """An expected length is an integer from 1 up to the largest float, since
    the stub-length penalty divides by it as a float. The range is checked
    first, so a manifest field too long for int(), read as +-inf, keeps its
    range message; any other non-integer raises `check_integer`'s TypeError."""
    if expected_length < 1:
        raise InvalidExpectedLength(f"{name} must be >= 1, got {_shown(expected_length)}")
    if expected_length > sys.float_info.max:
        raise InvalidExpectedLength(f"{name} must be <= {sys.float_info.max:g}")
    check_integer(name, expected_length)


def _weighted(counts: Iterable[tuple[str, int]]) -> list[RuleHit]:
    """One hit per (rule_id, count) that fired, its delta count x weight."""
    return [RuleHit(rule_id, n, n * _RULES[rule_id]) for rule_id, n in counts if n]


def _security_hits(scan: SourceScan) -> list[RuleHit]:
    return _weighted((
        ("security.eval_exec_call", scan.eval_exec_calls),
        ("security.shell_true", scan.shell_true_calls),
        ("security.sql_string_build", scan.sql_string_builds),
        ("security.exception_handling", int(_ERROR_WORDS <= scan.words)),
        ("security.input_validation", int(scan.has_validation)),
    ))


def _efficiency_hits(scan: SourceScan) -> list[RuleHit]:
    if not scan.structurally_valid:
        delta = _RULES["efficiency.invalid_score"] - _RULES["efficiency.base"]
        return [RuleHit("efficiency.invalid_baseline", 1, delta)]
    return _weighted((
        ("efficiency.depth_beyond_free",
         max(0, scan.max_depth - int(_RULES["efficiency.free_depth"]))),
        ("efficiency.nested_loop_pair", scan.nested_loop_pairs),
        ("efficiency.extra_control_flow",
         max(0, scan.control_flow_count - int(_RULES["efficiency.free_control_flow"]))),
    ))


_FEATURE_CLASSES = (
    ("functions", lambda s: "def" in s.words),
    ("classes", lambda s: "class" in s.words),
    ("imports", lambda s: "import" in s.words),
    ("returns", lambda s: "return" in s.words),
    ("docstrings", lambda s: s.has_docstring),
    ("error_handling", lambda s: _ERROR_WORDS <= s.words),
)


def _functionality_hits(scan: SourceScan, expected_length: int) -> list[RuleHit]:
    hits = [RuleHit(f"functionality.feature.{name}", 1, _RULES["functionality.feature_class"])
            for name, present in _FEATURE_CLASSES if present(scan)]
    preclip = _RULES["functionality.base"] + sum(h.delta for h in hits)
    stub_lines = _RULES["functionality.stub_fraction"] * expected_length
    factor = min(1.0, scan.nonblank_lines / stub_lines)
    if factor < 1.0:
        hits.append(RuleHit("functionality.length_scale", 1, preclip * (factor - 1.0)))
    return hits


def score_security(src: str) -> tuple[float, list[RuleHit]]:
    """Pattern-rule security score: base 5.0, unsafe calls subtract,
    exception handling and input validation add (once each)."""
    hits = _security_hits(scan_source(src))
    return _axis_score("security", hits), hits


def score_efficiency(src: str) -> tuple[float, list[RuleHit]]:
    """Complexity score from nesting depth, nested loops, and branch count.

    Structurally unparseable source short-circuits to the flat invalid
    baseline.
    """
    hits = _efficiency_hits(scan_source(src))
    return _axis_score("efficiency", hits), hits


def score_functionality(src: str, expected_length: int) -> tuple[float, list[RuleHit]]:
    """Structural-richness score with a stub-length penalty.

    The pre-clip score scales by min(1, lines / (stub_fraction *
    expected_length)) so near-empty answers to long tasks score near 0.
    """
    _check_expected_length(expected_length)
    hits = _functionality_hits(scan_source(src), expected_length)
    return _axis_score("functionality", hits), hits


def score_all(src: str, expected_length: int) -> ScoreBreakdown:
    """All three axes of one source text, from one scan. Never executes
    the input."""
    _check_expected_length(expected_length)
    scan = scan_source(src)
    sec = _security_hits(scan)
    eff = _efficiency_hits(scan)
    fun = _functionality_hits(scan, expected_length)
    return ScoreBreakdown(
        security=_axis_score("security", sec),
        efficiency=_axis_score("efficiency", eff),
        functionality=_axis_score("functionality", fun),
        rule_hits=tuple(sec + eff + fun),
    )
