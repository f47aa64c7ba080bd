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
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, NamedTuple

from .core import SCORE_HIGH, SCORE_LOW, InvalidExpectedLength

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
_VALIDATION_RES = (
    re.compile(r"(?<![\w.])isinstance\s*\("),
    re.compile(r"(?<![\w.])issubclass\s*\("),
    re.compile(r"(?<![\w.])type\s*\([^)]*\)\s*(?:==|is\b)"),
    re.compile(r"(?<!\w)assert\b.*(?:<=|>=|==|<|>)"),
    re.compile(r"(?<!\w)raise\s+(?:TypeError|ValueError)\b"),
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


# ---------------------------------------------------------------------------
# Rule table
# ---------------------------------------------------------------------------

def parse_rule_table(text: str) -> dict[str, float]:
    table: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"rule table line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        table[key.strip()] = float(value.strip())
    return table


_RULES = parse_rule_table(
    resources.files(__package__).joinpath("scorer_rules.cfg").read_text("utf-8"))


# ---------------------------------------------------------------------------
# Lightweight source scan
# ---------------------------------------------------------------------------

class _Literal(NamedTuple):
    text: str
    prefix: str


class _Logical(NamedTuple):
    indent: int
    cleaned: str          # literals replaced by a marker char, comments gone
    literals: list[_Literal]


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


def _clean_lines(source: str) -> tuple[list[_Logical], bool, int]:
    """Strip strings and comments, join continuations, balance brackets.

    One state says whether a string literal is open: `close`, its closing
    delimiter, or None in code. Each step consumes a whole run with one
    precompiled match: in code, the characters up to the next quote,
    bracket, backslash or `#`; inside a literal, its body up to the close
    or the line end. A literal's prefix is the string-prefix letters
    (at most three) that end the code run before its opening quote.

    Returns the logical lines, a validity flag covering bracket balance
    and string termination, and the count of non-blank physical lines.
    """
    valid = True
    nonblank = 0
    logical: list[_Logical] = []
    # The open logical line's code: empty only between logical lines, as
    # every step in code appends its run, even an empty one.
    parts: list[str] = []
    literals: list[_Literal] = []
    indent = 0
    close: str | None = None
    body: list[str] = []
    prefix = ""
    brackets: list[str] = []
    for raw in source.splitlines():
        line = raw.expandtabs()
        blank = not line.strip()
        nonblank += not blank
        if not parts:
            if blank:
                continue
            indent = len(line) - len(line.lstrip(" "))
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
            logical.append(_Logical(indent, "".join(parts), literals))
            parts, literals = [], []
    if parts:
        valid = False
        if close is not None:
            literals.append(_Literal("".join(body), prefix))
            parts.append(_MARK)
        logical.append(_Logical(indent, "".join(parts), literals))
    return logical, valid, nonblank


def _first_word(text: str) -> str:
    m = _WORD_RE.match(text)
    return m.group(0) if m else ""


def scan_source(source: str) -> SourceScan:
    """Read the source once and return every signal of all three axes.

    This is the only function that reads source text: the axis rules
    work on the `SourceScan` it returns.
    """
    logical, valid, nonblank = _clean_lines(source)
    scan = SourceScan(nonblank_lines=nonblank, structurally_valid=valid)

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
            if indent <= opener_indent:
                scan.structurally_valid = False
                pending = None
            else:
                stack.append((indent, is_loop))
                if wants_doc and stripped == _MARK:
                    scan.has_docstring = True
                pending = None
        if pending is None:
            while stack and indent < stack[-1][0]:
                stack.pop()
            level = stack[-1][0] if stack else 0
            if indent != level:
                scan.structurally_valid = False
        depth = len(stack)
        scan.max_depth = max(scan.max_depth, depth)
        if first_statement:
            if stripped == _MARK:
                scan.has_docstring = True
            first_statement = False

        word = _first_word(stripped)
        if word == "async":
            rest = stripped[len("async"):].lstrip()
            word = _first_word(rest)
        elif word == "from" and _IMPORT_RE.search(stripped):
            word = "import"
        scan.words.add(word)
        if word in _CONTROL_FLOW_KEYWORDS:
            scan.control_flow_count += 1

        if word in _BLOCK_KEYWORDS and stripped.endswith(":"):
            is_loop = word in _LOOP_KEYWORDS
            if is_loop and stack and stack[-1][1]:
                scan.nested_loop_pairs += 1
            wants_doc = word in ("def", "class")
            pending = (indent, is_loop, wants_doc)

        scan.eval_exec_calls += len(_EVAL_EXEC_RE.findall(cleaned))
        if _SPAWN_CONTEXT_RE.search(cleaned):
            scan.shell_true_calls += len(_SHELL_TRUE_RE.findall(cleaned))
        if not scan.has_validation:
            scan.has_validation = any(rx.search(cleaned) for rx in _VALIDATION_RES)
        # SQL-keyword literals that are concatenated or interpolated
        # (f-string braces, +, %-format, .format)
        positions = [m.start() for m in re.finditer(_MARK, cleaned)] if literals else ()
        for pos, lit in zip(positions, literals):
            if _SQL_KEYWORD_RE.search(lit.text) and (
                    ("f" in lit.prefix.lower() and "{" in lit.text)
                    or cleaned[:pos].rstrip().endswith("+")
                    or cleaned[pos + 1:].lstrip().startswith(("+", "%", ".format("))):
                scan.sql_string_builds += 1
    if pending is not None:
        # block opener with no body
        scan.structurally_valid = False
    return scan


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

    def to_dict(self) -> dict:
        return {
            "security": self.security,
            "efficiency": self.efficiency,
            "functionality": self.functionality,
            "rule_hits": [
                {"rule_id": h.rule_id, "count": h.count, "delta": h.delta}
                for h in self.rule_hits
            ],
        }


def _axis_score(axis: str, hits: list[RuleHit]) -> float:
    """clip(base + sum of the axis's rule-hit deltas): every score is this."""
    return min(SCORE_HIGH, max(SCORE_LOW, _RULES[f"{axis}.base"] + sum(h.delta for h in hits)))


def _check_expected_length(expected_length: int) -> None:
    if expected_length < 1:
        raise InvalidExpectedLength(f"expected_length must be >= 1, got {expected_length}")


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


def reconstruct_scores(breakdown: ScoreBreakdown) -> dict[str, float]:
    """Recompute each axis as clip(base + sum of its rule-hit deltas)."""
    return {
        axis: _axis_score(axis, [h for h in breakdown.rule_hits
                                 if h.rule_id.startswith(axis + ".")])
        for axis in ("security", "efficiency", "functionality")
    }
