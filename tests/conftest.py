"""Hypothesis runs derandomized with no deadline, so property tests draw
the same examples on every run and never fail on a slow host."""

from hypothesis import settings

settings.register_profile("halinloop", derandomize=True, deadline=None, database=None)
settings.load_profile("halinloop")
