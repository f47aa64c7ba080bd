"""The repository's pytest settings keep a test session running past a
failing Hypothesis test, so every later test still runs and is counted,
every Hypothesis test draws the same fixed examples on every run, and a
run under `python -X dev` ends with no `ResourceWarning`."""

import importlib
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_test_ends_only_itself(pytester):
    filters = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"][
        "filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_runs_after_it():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = "\n".join(result.outlines + result.errlines)
    assert "INTERNALERROR" not in output, output
    result.assert_outcomes(failed=1, passed=1)


def test_every_given_test_draws_fixed_examples():
    # conftest.py loads a derandomized profile with no example database; a
    # test that sets either back, or a module that builds its settings
    # before the profile loads, would draw fresh random examples per run
    hypothesis = pytest.importorskip("hypothesis")

    found, random = [], []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        module = importlib.import_module(path.stem)
        for name, fn in vars(module).items():
            if hypothesis.is_hypothesis_test(fn):
                used = fn._hypothesis_internal_use_settings
                found.append(name)
                if not (used.derandomize and used.database is None):
                    random.append(f"{path.stem}::{name}")
    assert found
    assert not random, f"tests that draw random examples: {random}"


def test_a_dev_mode_run_leaves_no_resource_warning(tmp_path):
    # conftest.py's Hypothesis home is removed at exit, not left to the
    # finalizer, which warns under -X dev
    target = Path(__file__).with_name("test_coupling.py")
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "pytest", "-q", "-p", "no:cacheprovider", str(target)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "ResourceWarning" not in result.stdout + result.stderr
