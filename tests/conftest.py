"""Settings shared by every test module."""

from hypothesis import settings

# Property tests run in tier-1, so each run draws the same examples, keeps no
# example database on disk and does not fail on a slow example.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
