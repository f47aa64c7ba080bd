"""Static, execution-free scoring of source code on three 0-10 axes.

The analyzer is deliberately lightweight: block structure comes from
indentation, pattern rules from tokenized line matching. It targets
indentation-delimited source and never parses a full grammar, never
executes, spawns, or writes anything.

Rule weights live in ``scorer_rules.cfg`` next to this module; every
score is reproducible as clip(base + sum of rule-hit deltas, 0, 10).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping, NamedTuple

from .core import InvalidExpectedLength

SCORE_LOW, SCORE_HIGH = 0.0, 10.0

_BLOCK_KEYWORDS = {
    "def", "class", "if", "elif", "else", "for", "while", "with",
    "try", "except", "finally", "match", "case", "async",
}
_LOOP_KEYWORDS = {"for", "while"}
_CONTROL_FLOW_KEYWORDS = {"for", "while", "if", "elif"}

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


def load_rule_table(path=None) -> dict[str, float]:
    """The packaged default table, or one loaded from `path`."""
    if path is not None:
        with open(path, "r", encoding="utf-8") as f:
            return parse_rule_table(f.read())
    text = resources.files(__package__).joinpath("scorer_rules.cfg").read_text("utf-8")
    return parse_rule_table(text)


_DEFAULT_TABLE: dict[str, float] | None = None


def default_rules() -> dict[str, float]:
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = load_rule_table()
    return _DEFAULT_TABLE


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
    counts and flags only, so no rule goes back to the source text."""

    nonblank_lines: int
    structurally_valid: bool
    max_depth: int = 0
    nested_loop_pairs: int = 0
    control_flow_count: int = 0
    has_functions: bool = False
    has_classes: bool = False
    has_imports: bool = False
    has_returns: bool = False
    has_docstring: bool = False
    has_try: bool = False
    has_except: bool = False
    eval_exec_calls: int = 0
    shell_true_calls: int = 0      # only on lines that spawn a process
    sql_string_builds: int = 0
    has_validation: bool = False


def _clean_lines(source: str) -> tuple[list[_Logical], bool, int]:
    """Strip strings and comments, join continuations, balance brackets.

    Returns the logical lines, a validity flag covering bracket balance
    and string termination, and the count of non-blank physical lines.
    """
    valid = True
    nonblank = 0
    logical: list[_Logical] = []
    cur_parts: list[str] = []
    cur_literals: list[_Literal] = []
    cur_indent = 0
    open_logical = False       # inside brackets or after a backslash
    triple: str | None = None  # closing delimiter when inside a triple string
    single: str | None = None  # closing quote when inside a one-line string
    literal_buf: list[str] = []
    literal_prefix = ""
    bracket_stack: list[str] = []
    pairs = {")": "(", "]": "[", "}": "{"}

    def flush():
        nonlocal cur_parts, cur_literals, open_logical
        logical.append(_Logical(cur_indent, "".join(cur_parts), cur_literals))
        cur_parts, cur_literals = [], []
        open_logical = False

    def end_literal():
        nonlocal literal_buf, literal_prefix
        cur_literals.append(_Literal("".join(literal_buf), literal_prefix))
        cur_parts.append(_MARK)
        literal_buf, literal_prefix = [], ""

    for raw in source.splitlines():
        line = raw.expandtabs()
        blank = not line.strip()
        nonblank += not blank
        if triple is None and single is None and not open_logical:
            if blank:
                continue
            cur_indent = len(line) - len(line.lstrip(" "))
        i = 0
        backslash_eol = False
        while i < len(line):
            ch = line[i]
            if triple is not None:
                if ch == "\\" and i + 1 < len(line):
                    literal_buf.append(line[i:i + 2])
                    i += 2
                    continue
                if line.startswith(triple, i):
                    i += 3
                    triple = None
                    end_literal()
                    continue
                literal_buf.append(ch)
                i += 1
                continue
            if single is not None:
                if ch == "\\" and i + 1 < len(line):
                    literal_buf.append(line[i:i + 2])
                    i += 2
                    continue
                if ch == single:
                    single = None
                    end_literal()
                    i += 1
                    continue
                literal_buf.append(ch)
                i += 1
                continue
            if ch == "#":
                break
            if ch in "\"'":
                prefix = ""
                while cur_parts and len(prefix) < 3:
                    if not cur_parts[-1]:
                        cur_parts.pop()
                        continue
                    if cur_parts[-1][-1] not in "rbfuRBFU":
                        break
                    prefix = cur_parts[-1][-1] + prefix
                    cur_parts[-1] = cur_parts[-1][:-1]
                literal_prefix = prefix
                if line.startswith(ch * 3, i):
                    triple = ch * 3
                    i += 3
                else:
                    single = ch
                    i += 1
                continue
            if ch in "([{":
                bracket_stack.append(ch)
            elif ch in ")]}":
                if not bracket_stack or bracket_stack[-1] != pairs[ch]:
                    valid = False
                else:
                    bracket_stack.pop()
            elif ch == "\\" and i == len(line) - 1:
                backslash_eol = True
                i += 1
                continue
            # a raw NUL in code must not pass for a literal marker
            cur_parts.append(" " if ch == _MARK else ch)
            i += 1
        if single is not None:
            # string ran off the end of its line: recover, flag invalid
            valid = False
            single = None
            end_literal()
        if triple is not None:
            literal_buf.append("\n")
            open_logical = True
            continue
        if backslash_eol or bracket_stack:
            cur_parts.append(" ")
            open_logical = True
            continue
        flush()
    if triple is not None or single is not None or bracket_stack or open_logical:
        valid = False
        if cur_parts or cur_literals or literal_buf:
            if literal_buf:
                end_literal()
            flush()
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
        if word in _CONTROL_FLOW_KEYWORDS:
            scan.control_flow_count += 1
        if word == "def":
            scan.has_functions = True
        elif word == "class":
            scan.has_classes = True
        elif word == "import" or (word == "from" and _IMPORT_RE.search(stripped)):
            scan.has_imports = True
        elif word == "return":
            scan.has_returns = True
        elif word == "try":
            scan.has_try = True
        elif word == "except":
            scan.has_except = True

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


def _table_or_default(table: Mapping[str, float] | None) -> Mapping[str, float]:
    return default_rules() if table is None else table


def _axis_score(axis: str, hits: list[RuleHit], t: Mapping[str, float]) -> float:
    """clip(base + sum of the axis's rule-hit deltas): every score is this."""
    return min(SCORE_HIGH, max(SCORE_LOW, t[f"{axis}.base"] + sum(h.delta for h in hits)))


def _check_expected_length(expected_length: int) -> None:
    if expected_length < 1:
        raise InvalidExpectedLength(f"expected_length must be >= 1, got {expected_length}")


def _weighted(counts: Iterable[tuple[str, int]], t: Mapping[str, float]) -> list[RuleHit]:
    """One hit per (rule_id, count) that fired, its delta count x weight."""
    return [RuleHit(rule_id, n, n * t[rule_id]) for rule_id, n in counts if n]


def _security_hits(scan: SourceScan, t: Mapping[str, float]) -> list[RuleHit]:
    return _weighted((
        ("security.eval_exec_call", scan.eval_exec_calls),
        ("security.shell_true", scan.shell_true_calls),
        ("security.sql_string_build", scan.sql_string_builds),
        ("security.exception_handling", int(scan.has_try and scan.has_except)),
        ("security.input_validation", int(scan.has_validation)),
    ), t)


def _efficiency_hits(scan: SourceScan, t: Mapping[str, float]) -> list[RuleHit]:
    if not scan.structurally_valid:
        delta = t["efficiency.invalid_score"] - t["efficiency.base"]
        return [RuleHit("efficiency.invalid_baseline", 1, delta)]
    return _weighted((
        ("efficiency.depth_beyond_free",
         max(0, scan.max_depth - int(t["efficiency.free_depth"]))),
        ("efficiency.nested_loop_pair", scan.nested_loop_pairs),
        ("efficiency.extra_control_flow",
         max(0, scan.control_flow_count - int(t["efficiency.free_control_flow"]))),
    ), t)


_FEATURE_CLASSES = (
    ("functions", lambda s: s.has_functions),
    ("classes", lambda s: s.has_classes),
    ("imports", lambda s: s.has_imports),
    ("returns", lambda s: s.has_returns),
    ("docstrings", lambda s: s.has_docstring),
    ("error_handling", lambda s: s.has_try and s.has_except),
)


def _functionality_hits(
    scan: SourceScan, t: Mapping[str, float], expected_length: int
) -> list[RuleHit]:
    hits = [RuleHit(f"functionality.feature.{name}", 1, t["functionality.feature_class"])
            for name, present in _FEATURE_CLASSES if present(scan)]
    preclip = t["functionality.base"] + sum(h.delta for h in hits)
    factor = min(1.0, scan.nonblank_lines / (t["functionality.stub_fraction"] * expected_length))
    if factor < 1.0:
        hits.append(RuleHit("functionality.length_scale", 1, preclip * (factor - 1.0)))
    return hits


def score_security(
    src: str, table: Mapping[str, float] | None = None
) -> tuple[float, list[RuleHit]]:
    """Pattern-rule security score: base 5.0, unsafe calls subtract,
    exception handling and input validation add (once each)."""
    t = _table_or_default(table)
    hits = _security_hits(scan_source(src), t)
    return _axis_score("security", hits, t), hits


def score_efficiency(
    src: str, table: Mapping[str, float] | None = None
) -> tuple[float, list[RuleHit]]:
    """Complexity score from nesting depth, nested loops, and branch count.

    Structurally unparseable source short-circuits to the flat invalid
    baseline.
    """
    t = _table_or_default(table)
    hits = _efficiency_hits(scan_source(src), t)
    return _axis_score("efficiency", hits, t), hits


def score_functionality(
    src: str, expected_length: int, table: Mapping[str, float] | None = None
) -> tuple[float, list[RuleHit]]:
    """Structural-richness score with a stub-length penalty.

    The pre-clip score scales by min(1, lines / (stub_fraction *
    expected_length)) so near-empty answers to long tasks score near 0.
    """
    _check_expected_length(expected_length)
    t = _table_or_default(table)
    hits = _functionality_hits(scan_source(src), t, expected_length)
    return _axis_score("functionality", hits, t), hits


def score_all(
    src: str, expected_length: int, table: Mapping[str, float] | None = None
) -> ScoreBreakdown:
    """All three axes of one source text, from one scan. Never executes
    the input."""
    _check_expected_length(expected_length)
    t = _table_or_default(table)
    scan = scan_source(src)
    sec = _security_hits(scan, t)
    eff = _efficiency_hits(scan, t)
    fun = _functionality_hits(scan, t, expected_length)
    return ScoreBreakdown(
        security=_axis_score("security", sec, t),
        efficiency=_axis_score("efficiency", eff, t),
        functionality=_axis_score("functionality", fun, t),
        rule_hits=tuple(sec + eff + fun),
    )


def reconstruct_scores(
    breakdown: ScoreBreakdown, table: Mapping[str, float] | None = None
) -> dict[str, float]:
    """Recompute each axis as clip(base + sum of its rule-hit deltas)."""
    t = _table_or_default(table)
    return {
        axis: _axis_score(axis, [h for h in breakdown.rule_hits
                                 if h.rule_id.startswith(axis + ".")], t)
        for axis in ("security", "efficiency", "functionality")
    }
