"""Hypothesis profiles: `pytest --hypothesis-profile=ci` runs the CLI fuzz
test (and every property test that does not pin its own count) on 1,000
examples instead of the default 100."""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
