"""Property tests for the exactlin arithmetic core, with sympy as an
independent oracle for det, rank, rref and charpoly.

Entries mix zeros (sparse rows exercise the deferred row rescaling of the
elimination), small integers of both signs, fractions with unrelated
denominators and numerators and denominators above 64 bits.  Examples are
derandomized, so every run checks the same matrices; failing examples are
reported unshrunk, because shrinking 8 x 8 matrices of 80-bit entries can
take minutes.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gspin.exactlin import ExactMatrix, generalized_kernel, kernel, rank, rref  # noqa: E402

try:
    import sympy
except ImportError:  # the oracle is optional
    sympy = None

needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")

BIG = 2**80
ENTRIES = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
SMALL = st.integers(-3, 3)
NO_SHRINK = (hypothesis.Phase.explicit, hypothesis.Phase.generate)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)


def matrices(rows, cols, entries=ENTRIES):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows).map(
        ExactMatrix
    )


@st.composite
def square(draw, max_n=8):
    """A square matrix of size 1..max_n; a third of them have deficient rank
    (a product through a smaller inner dimension), so kernels are nontrivial."""
    n = draw(st.integers(1, max_n))
    if n > 1 and draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, n - 1))
        if k == 0:
            return ExactMatrix.zeros(n, n)
        return draw(matrices(n, k, SMALL)) * draw(matrices(k, n))
    return draw(matrices(n, n))


@st.composite
def nilpotent_plus_diagonal(draw, max_n=8):
    """P^-1 (D + U) P with U strictly upper triangular and D a diagonal of
    repeated small eigenvalues, zero among them, so that the generalized
    kernel is often larger than the kernel."""
    n = draw(st.integers(1, max_n))
    diag = draw(st.lists(st.sampled_from([0, 0, 1, -2]), min_size=n, max_size=n))
    upper = draw(st.lists(SMALL, min_size=n * n, max_size=n * n))
    m = ExactMatrix([[diag[i] if i == j else upper[i * n + j] * (j > i) for j in range(n)] for i in range(n)])
    p = draw(matrices(n, n, SMALL).filter(lambda p: p.det() != 0))
    return p.inverse() * m * p


@st.composite
def same_size_triples(draw):
    n = draw(st.integers(1, 6))
    return tuple(draw(matrices(n, n)) for _ in range(3))


@st.composite
def rectangular(draw):
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        k = draw(st.integers(1, min(r, c)))
        return draw(matrices(r, k, SMALL)) * draw(matrices(k, c))
    return draw(matrices(r, c))


def to_sympy(m: ExactMatrix):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.entries()])


def from_sympy(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


@PROPERTY
@given(same_size_triples())
def test_ring_laws(triple):
    a, b, c = triple
    n = a.rows
    one, zero = ExactMatrix.identity(n), ExactMatrix.zeros(n, n)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a - a == zero and a + zero == a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * one == a == one * a
    assert (a * b).transpose() == b.transpose() * a.transpose()
    assert a.scale(Fraction(-3, 7)) == a * ExactMatrix.identity(n).scale(Fraction(-3, 7))
    assert ExactMatrix(a.entries()) == a and hash(ExactMatrix(a.entries())) == hash(a)


@PROPERTY
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(matrices(n, n), matrices(n, n))))
def test_det_is_multiplicative(pair):
    a, b = pair
    assert (a * b).det() == a.det() * b.det()


@PROPERTY
@given(square())
def test_inverse_or_singular(a):
    one = ExactMatrix.identity(a.rows)
    if a.det() == 0:
        with pytest.raises(ValueError):
            a.inverse()
    else:
        inv = a.inverse()
        assert a * inv == one and inv * a == one
        assert inv.det() == 1 / a.det()


@PROPERTY
@given(st.one_of(square(), rectangular()))
def test_kernel_and_rank_nullity(a):
    basis = kernel(a)
    assert rank(a) + len(basis) == a.cols
    for v in basis:
        assert all(x == 0 for x in a.apply(v))
    if basis:
        assert rank(ExactMatrix(basis)) == len(basis)


@PROPERTY
@given(st.one_of(square(), nilpotent_plus_diagonal()))
def test_generalized_kernel_is_the_kernel_of_the_top_power(a):
    basis = generalized_kernel(a)
    assert basis == kernel(a ** a.rows)
    assert (not basis) == (a.det() != 0)


@needs_sympy
@settings(PROPERTY, max_examples=30)
@given(st.one_of(square(), rectangular()))
def test_against_sympy(a):
    s = to_sympy(a)
    red, pivots = rref(a)
    s_red, s_pivots = s.rref()
    assert pivots == list(s_pivots)
    assert red.entries() == tuple(tuple(from_sympy(x) for x in row) for row in s_red.tolist())
    assert rank(a) == s.rank()
    if a.is_square():
        assert a.det() == from_sympy(s.det(method="bareiss"))
        x = sympy.Symbol("x")
        coeffs = [from_sympy(c) for c in reversed(s.charpoly(x).all_coeffs())]
        assert a.charpoly() == coeffs
