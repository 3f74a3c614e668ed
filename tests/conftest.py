"""Test-suite settings shared by every module."""

from hypothesis import settings

# Property tests draw the same examples on every run, and no example
# database carries state from one run to the next.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
