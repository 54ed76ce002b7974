"""Test-suite defaults.

Hypothesis runs derandomized (a fixed example sequence on every run, no
example database) with no per-example deadline and a bounded example count,
so the suite is deterministic and its run time does not drift.  A test's own
``@settings`` still overrides these.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=50)
settings.load_profile("tier1")
