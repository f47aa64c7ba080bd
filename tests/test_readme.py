"""README's "CLI quick start" commands and "Library example" code still run,
and its "Install and test" section names the floors `pyproject.toml` declares.

Each `driftlab ...` line of the quick start (a trailing backslash joins
the next line) runs through `cli.main` in a fresh working directory that
holds the `some_module.py` and one-row `batch.csv` the score lines name;
every command must exit 0. The library example runs with `exec`.
"""

import re
import shlex
import tomllib
from pathlib import Path

from driftlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def section(heading: str) -> str:
    """README from the `## heading` line to the next `## ` line."""
    text = README.read_text("utf-8")
    start = text.index(f"\n## {heading}\n") + 1
    end = text.find("\n## ", start)
    return text[start:end if end >= 0 else len(text)]


def code_block(heading: str, language: str) -> str:
    """The first fenced `language` block of the `## heading` section."""
    return re.search(rf"```{language}\n(.*?)```", section(heading), re.S)[1]


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


def test_readme_names_the_declared_floors():
    project = tomllib.loads((README.parent / "pyproject.toml").read_text("utf-8"))["project"]
    python = re.fullmatch(r">=(\d+\.\d+)", project["requires-python"])[1]
    [numpy] = [re.fullmatch(r"numpy>=(\d+\.\d+)", dep)[1]
               for dep in project["dependencies"] if dep.startswith("numpy")]
    text = " ".join(section("Install and test").split())
    assert f"Python {python} or later" in text
    assert f"numpy {numpy} or later" in text
