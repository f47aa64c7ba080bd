"""Every Hypothesis test in tier-1 draws fixed (derandomized) examples and
writes no example database, so each run checks the same examples and
leaves no `.hypothesis/` behind. A test may set its own `max_examples` or
`deadline`; it inherits these two from the profile loaded here.
`test_pytest_config.py` holds every `@given` test to them."""

try:
    from hypothesis import settings
except ImportError:  # the Hypothesis tests skip or fail on their own import
    pass
else:
    settings.register_profile("fixed", derandomize=True, database=None)
    settings.load_profile("fixed")
