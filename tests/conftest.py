"""Shared test settings.

The ``tier1`` hypothesis profile makes every property test deterministic:
examples come from a fixed derivation rather than a random seed, and no
example database is read or written, so no failure found in one run steers
the next. No per-example deadline applies, since timing varies between
machines. Tests keep their own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
