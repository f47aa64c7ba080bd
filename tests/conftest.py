"""Every Hypothesis test in tier-1 draws fixed (derandomized) examples and
writes no example database, so each run checks the same examples. A test
may set its own `max_examples` or `deadline`; it inherits these two from
the profile loaded here. `test_pytest_config.py` holds every `@given` test
to them.

Hypothesis still caches what it reads (the constants in the test sources,
its Unicode tables) in its home directory, `.hypothesis/` in the working
directory by default. Here that is a temporary directory, removed when the
test process exits, so a run leaves no `.hypothesis/` in the tree.

The checkout's `src` comes first on `sys.path` and on the PYTHONPATH that
child processes inherit, so `python -m pytest` tests this checkout, installed
or not, and the tests that run `python -m driftlab.cli` run it too.

The `cpus` fixture sets the CPUs `core._fork_map` sees and a stage's fork
cut-off, and counts forks."""

import os
import sys
import tempfile
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the Hypothesis tests skip or fail on their own import
    pass
else:
    settings.register_profile("fixed", derandomize=True, database=None)
    settings.load_profile("fixed")
    _HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(_HOME.name)


# stage -> the fork cut-off it reads
_CUT_OFFS = {"score": "driftlab.cli._FORK_MIN_BYTES", "dump": "driftlab.core._DUMP_FORK_MIN_ROWS",
             "read": "driftlab.core._READ_FORK_MIN_CHARS"}


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k, cut, stage) lets driftlab see k CPUs and sets the fork
    cut-off of `stage` (`score --manifest`'s bytes by default, or "dump"
    rows or "read" characters) to `cut`; cpus.forks counts os.fork calls.
    No child may be left, running or unreaped, after the test."""
    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        return real_fork()

    def use(k: int, cut: int = 0, stage: str = "score") -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        monkeypatch.setattr(_CUT_OFFS[stage], cut)

    monkeypatch.setattr(os, "fork", fork)
    use.forks = forks
    yield use
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
