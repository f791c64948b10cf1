"""Every test starts and ends with empty projection, realization and
endoscopic catalog caches, so a test that patches what `project_parameter`,
`realize` or a datum's centralizer basis reads (the split basis of the SO5
projection, say) neither reads a stale answer nor leaves one behind."""

import pytest

from gspin.dualgroups import realize_shape
from gspin.endoscopy import full_catalog
from gspin.restriction import project_parameter


@pytest.fixture(autouse=True)
def _fresh_caches():
    project_parameter.cache_clear()
    realize_shape.cache_clear()
    full_catalog.cache_clear()
    yield
    project_parameter.cache_clear()
    realize_shape.cache_clear()
    full_catalog.cache_clear()
