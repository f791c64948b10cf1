"""Property test: the closed-form exponential of a strictly upper
triangular 4 x 4 integer matrix that the GSp4 sampler uses equals the
combination of the integer products N, N^2, N^3, and exp of N / d.

Examples are derandomized, so every run checks the same matrices.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gspin.dualgroups import _exp_strictly_upper  # noqa: E402
from gspin.exactlin import ExactMatrix, int_product, matrix_exp_nilpotent  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
ENTRIES = st.one_of(st.just(0), st.integers(-5, 5), st.integers(-(2**70), 2**70))


@PROPERTY
@given(st.lists(ENTRIES, min_size=6, max_size=6), st.integers(1, 10**6))
def test_closed_form_exp_is_the_product_route(upper, d):
    entries = iter(upper)
    n1 = tuple(tuple(next(entries) if j > i else 0 for j in range(4)) for i in range(4))
    cols = tuple(zip(*n1))
    n2 = int_product(n1, cols)
    n3 = int_product(n2, cols)
    expected = tuple(
        tuple(6 * d**3 * (i == j) + 6 * d * d * n1[i][j] + 3 * d * n2[i][j] + n3[i][j] for j in range(4))
        for i in range(4)
    )
    got = _exp_strictly_upper(n1, d)
    assert got == expected
    assert ExactMatrix._make(got, 6 * d**3, 4) == matrix_exp_nilpotent(ExactMatrix(n1).scale(Fraction(1, d)))
