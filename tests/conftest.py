"""Every Hypothesis test in tier-1 draws fixed (derandomized) examples and
writes no example database, so each run checks the same examples. A test
may set its own `max_examples` or `deadline`; it inherits these two from
the profile loaded here. `test_pytest_config.py` holds every `@given` test
to them.

Hypothesis still caches what it reads (the constants in the test sources,
its Unicode tables) in its home directory, `.hypothesis/` in the working
directory by default. Here that is a temporary directory, removed when the
test process exits, so a run leaves no `.hypothesis/` in the tree."""

import tempfile

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
