"""Hypothesis draws a fixed sequence of examples, so the suite cannot flake."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
