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
or not, and the tests that run `python -m driftlab.cli` run it too."""

import os
import sys
import tempfile
from pathlib import Path

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
