"""Property tests draw the same examples on every run and store none.

Each ``@given`` test keeps its own example count; this profile only
fixes the draws, so a failure reproduces from the committed tree alone
rather than from a local example database.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
