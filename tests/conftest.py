"""Property tests draw the same examples on every run and store none.

Each ``@given`` test keeps its own example count; this profile only
fixes the draws, so a failure reproduces from the committed tree alone
rather than from a local example database.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(
    params=[
        np.diag(np.linspace(1e26, -1e26, 12)),  # traces inf, ruler past a float power
        np.diag([3e110, 0.0, -3e110]),  # finite traces, ruler past a float power
        np.diag([1e200, -1e200]),  # the Frobenius norm itself inf
    ],
    ids=["n12-1e26", "n3-3e110", "n2-1e200"],
)
def overflowing_start(request):
    """A finite traceless start whose power-trace witness overflows."""
    return request.param
