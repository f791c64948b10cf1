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

from gspin.exactlin import (  # noqa: E402
    ExactMatrix,
    generalized_kernel,
    int_product,
    kernel,
    krylov,
    rank,
    rref,
    similitude_factor,
    span_basis,
    sparse_product,
)

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


def rectangular_with_rows(rows):
    return st.integers(1, 3).flatmap(lambda cols: matrices(rows, cols))


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
    assert rank(a) + basis.cols == a.cols
    assert (a * basis).is_zero()
    if basis.cols:
        assert rank(basis) == basis.cols


@PROPERTY
@given(st.one_of(square(), nilpotent_plus_diagonal()))
def test_generalized_kernel_is_the_kernel_of_the_top_power(a):
    basis = generalized_kernel(a)
    top_power = a
    for _ in range(a.rows - 1):
        top_power = top_power * a
    assert basis == kernel(top_power)
    assert (basis.cols == 0) == (a.det() != 0)


@PROPERTY
@given(st.one_of(square(), rectangular()))
def test_kernel_is_the_basis_read_off_rref(a):
    # one column per free column f of rref(a): 1 at f, 0 at the other free
    # columns and -rref(a)[r, f] at the r-th pivot
    red, pivots = rref(a)
    expected = []
    for f in (c for c in range(a.cols) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(a.cols)]
        for r, p in enumerate(pivots):
            v[p] = -red[r, f]
        expected.append(tuple(v))
    frame = kernel(a)
    assert (frame.rows, frame.cols) == (a.cols, len(expected))
    assert list(frame.transpose().entries()) == expected


@PROPERTY
@given(st.one_of(square(), rectangular()))
def test_span_basis_is_the_reduced_basis_of_the_column_span(f):
    # its columns are the nonzero rows of rref(t f), as many as rank f, and
    # they span the column space of f
    basis = span_basis(f)
    red, _ = rref(f.transpose())
    nonzero = [row for row in red.entries() if any(row)]
    assert list(basis.transpose().entries()) == nonzero
    assert basis.cols == rank(basis) == rank(f) == rank(ExactMatrix.hstack([f, basis]))


@PROPERTY
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(matrices(n, n), rectangular_with_rows(n), st.integers(1, n + 1))))
def test_krylov_is_the_chain_of_each_start(args):
    m, starts, length = args
    expected = []
    for j in range(starts.cols):
        v = starts.transpose().entries()[j]
        for _ in range(length):  # v, m v, ..., m^(length-1) v
            expected.append(v)
            v = m.apply(v)
    block = krylov(m, starts, length)
    assert (block.rows, block.cols) == (m.rows, starts.cols * length)
    assert list(block.transpose().entries()) == expected


@PROPERTY
@given(rectangular(), st.data())
def test_column_slices_concatenate_back(a, data):
    cut = data.draw(st.integers(0, a.cols))
    left, right = a.columns(0, cut), a.columns(cut, a.cols)
    assert list(left.transpose().entries()) == list(a.transpose().entries()[:cut])
    assert list(right.transpose().entries()) == list(a.transpose().entries()[cut:])
    # equal storage: the concatenation is canonical
    assert ExactMatrix.hstack([left, right]) == a


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


INTEGERS = st.one_of(st.just(0), st.integers(-5, 5), st.integers(-BIG, BIG))
NONZERO = st.one_of(st.integers(-5, 5), st.integers(-BIG, BIG)).filter(bool)


@st.composite
def sparse_and_dense(draw):
    """An r x k integer matrix with at most three nonzeros per row, and k
    integer rows of width c."""
    r, k, c = (draw(st.integers(1, 6)) for _ in range(3))
    s = [[0] * k for _ in range(r)]
    for row in s:
        for j in draw(st.lists(st.integers(0, k - 1), max_size=3, unique=True)):
            row[j] = draw(NONZERO)
    rows = draw(st.lists(st.tuples(*[INTEGERS] * c), min_size=k, max_size=k))
    return s, rows


@PROPERTY
@given(sparse_and_dense())
def test_sparse_product_is_the_dense_product(args):
    s, rows = args
    pairs = [[(j, x) for j, x in enumerate(r) if x] for r in s]
    out = sparse_product(pairs, rows)
    assert out == int_product(s, tuple(zip(*rows)))
    assert all(type(r) is tuple for r in out)


def _reference_similitude_factor(g: ExactMatrix, form: ExactMatrix):
    lhs = g.transpose() * form * g
    i, j = next((i, j) for i in range(form.rows) for j in range(form.cols) if form[i, j])
    nu = lhs[i, j] / form[i, j]
    return nu if nu and lhs == form.scale(nu) else None


@st.composite
def monomial_forms_and_matrices(draw):
    """A signed permutation times a nonzero rational diagonal, and a matrix
    g that is a scaled isometry of it (c F^-1 tF), generic, singular or
    zero."""
    n = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(n)))
    diag = [draw(ENTRIES.filter(bool)) for _ in range(n)]
    form = ExactMatrix([[diag[j] if j == perm[i] else 0 for j in range(n)] for i in range(n)])
    kind = draw(st.sampled_from(["isometry", "generic", "singular", "zero"]))
    if kind == "isometry":
        g = (form.inverse() * form.transpose()).scale(draw(ENTRIES.filter(bool)))
    elif kind == "generic":
        g = draw(matrices(n, n))
    elif kind == "singular" and n > 1:
        k = draw(st.integers(1, n - 1))
        g = draw(matrices(n, k, SMALL)) * draw(matrices(k, n))
    else:
        g = ExactMatrix.zeros(n, n)
    return form, g


@PROPERTY
@given(monomial_forms_and_matrices())
def test_similitude_factor_of_a_monomial_form_is_the_dense_one(args):
    form, g = args
    assert similitude_factor(g, form) == _reference_similitude_factor(g, form)
