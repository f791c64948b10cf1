"""Every test starts and ends with empty projection and realization caches,
so a test that patches what `project_parameter` or `realize` reads (the split
basis of the SO5 projection, say) neither reads a stale answer nor leaves one
behind."""

import pytest

from gspin.params import _realization
from gspin.restriction import project_parameter


@pytest.fixture(autouse=True)
def _fresh_caches():
    project_parameter.cache_clear()
    _realization.cache_clear()
    yield
    project_parameter.cache_clear()
    _realization.cache_clear()
