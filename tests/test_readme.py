"""README's "CLI quick start" commands and "Library example" code still run.

Each `driftlab ...` line of the quick start (a trailing backslash joins
the next line) runs through `cli.main` in a fresh working directory that
holds the `some_module.py` and one-row `batch.csv` the score lines name;
every command must exit 0. The library example runs with `exec`.
"""

import re
import shlex
from pathlib import Path

from driftlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading: str, language: str) -> str:
    """The first fenced `language` block after the `## heading` line."""
    text = README.read_text("utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S)[1]


def quick_start_commands() -> list[list[str]]:
    lines = code_block("CLI quick start", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("driftlab ")]


def test_readme_quick_start_commands_exit_0(tmp_path, monkeypatch, capsys):
    commands = quick_start_commands()
    assert [argv[0] for argv in commands] == ["simulate", "analyze", "control", "score", "score"]
    monkeypatch.chdir(tmp_path)
    Path("some_module.py").write_text("def add(a, b):\n    return a + b\n")
    Path("batch.csv").write_text("path,expected_length\nsome_module.py,2\n")
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)


def test_readme_library_example_runs(capsys):
    exec(compile(code_block("Library example", "python"), str(README), "exec"), {})
    assert capsys.readouterr().out
