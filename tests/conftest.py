"""Settings shared by the test suite."""

from hypothesis import Phase, settings

# Every phase but explain: hypothesis 6.155.2 can crash in it (an assertion
# in its shrinker), which hides the failing example it found and stretches one
# failing test to minutes.  Example counts, deadlines and health checks stay
# as each test sets them.
settings.register_profile("no-explain", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("no-explain")
