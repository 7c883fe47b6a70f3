"""Hypothesis runs the same examples on every checkout: each property
draws from a seed fixed by its test's name, and no example database is
read or written."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
