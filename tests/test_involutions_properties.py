"""Property tests for involutions.factor: every element drawn below factors,
and its pair passes verify.

The families reach every step of the one construction:

- split tori diag(a_1, ..., a_n, nu/a_n, ..., nu/a_1) on the antidiagonal
  Gram, square and non-square nu, with 0, 2 or 4 reflections multiplied in;
- the same elements moved to the Gram P^T G P as P^-1 g P, P a random
  invertible rational matrix;
- dimension two, split and anisotropic planes;
- the dim-8 elements y exp(N), y = A + J tA J with A two 2 x 2 roots of a
  non-square nu and N a nonzero skew nilpotent commuting with y: every Krylov
  space of y exp(N) is at most 4-dimensional and degenerate, so only the
  paired step can factor them.

Examples are derandomized, so every run checks the same elements, and
failing examples are reported unshrunk.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gspin.exactlin import (  # noqa: E402
    ExactMatrix,
    QuadraticSpace,
    frac,
    matrix_equation_kernel,
    matrix_exp_nilpotent,
    pairing_matrix,
    rank,
)
from gspin.involutions import SimilitudeElement, factor, verify  # noqa: E402

NO_SHRINK = (hypothesis.Phase.explicit, hypothesis.Phase.generate)
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)

NUS = st.sampled_from([2, -1, 3, -3, Fraction(5, 7), 1, 4, Fraction(9, 4)])
NON_SQUARE = st.sampled_from([2, -1, 3, -3, 5, 6, -7])
TORUS_ENTRIES = st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3)])


def split(dim: int) -> QuadraticSpace:
    return QuadraticSpace(dim, ExactMatrix.antidiagonal([1] * dim))


def anisotropic(space: QuadraticSpace):
    vectors = st.lists(st.integers(-3, 3), min_size=space.dim, max_size=space.dim)
    return vectors.map(lambda v: tuple(map(frac, v))).filter(lambda v: space.bilinear(v, v) != 0)


@st.composite
def split_torus(draw, dims=(2, 4, 6, 8)):
    dim = draw(st.sampled_from(dims))
    nu = frac(draw(NUS))
    a = [frac(x) for x in draw(st.lists(TORUS_ENTRIES, min_size=dim // 2, max_size=dim // 2))]
    if draw(st.booleans()):
        a = [a[0]] * len(a)  # one repeated eigenvalue pair: the hardest tori
    space = split(dim)
    g = ExactMatrix.diagonal(a + [nu / x for x in reversed(a)])
    for _ in range(draw(st.sampled_from((0, 2, 4)))):
        g = g * space.reflection(draw(anisotropic(space)))
    return SimilitudeElement(space, g, nu)


@st.composite
def moved_split_torus(draw):
    e = draw(split_torus())
    dim = e.space.dim
    entries = st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    p = draw(entries.map(ExactMatrix).filter(lambda m: m.det() != 0))
    space = QuadraticSpace(dim, p.transpose() * e.space.gram * p)
    return SimilitudeElement(space, p.inverse() * e.g * p, e.nu)


@st.composite
def anisotropic_plane(draw):
    """a + b sqrt(d) acting on the norm form x^2 - d y^2: nu = a^2 - d b^2."""
    d = draw(st.sampled_from([2, 3, -1, 5, -6]))
    a, b = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda ab: ab != (0, 0)))
    space = QuadraticSpace(2, ExactMatrix.diagonal([1, -d]))
    return SimilitudeElement(space, ExactMatrix([[a, d * b], [b, a]]), a * a - d * b * b)


@st.composite
def trace_zero_root(draw, nu):
    """[[a, b], [c, -a]] with a^2 + b c = nu."""
    a = draw(st.integers(-3, 3))
    b = draw(st.sampled_from([1, -1, 2, -2]).filter(lambda b: (nu - a * a) % b == 0))
    return ExactMatrix([[a, b], [(nu - a * a) // b, -a]])


@st.composite
def y_exp_n(draw):
    nu = draw(NON_SQUARE)
    a = ExactMatrix.block_diagonal([draw(trace_zero_root(nu)), draw(trace_zero_root(nu))])
    j, one = ExactMatrix.antidiagonal([1] * 4), ExactMatrix.identity(4)
    d = j * a.transpose() * j
    # S D = A S makes N commute with y, and S J antisymmetric makes N skew
    solutions = matrix_equation_kernel([[(one, "X", d), (-a, "X", one)], [(one, "X", j), (j, "Xt", one)]])
    assert len(solutions) == 2
    c = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda c: c != (0, 0)))
    s = solutions[0].scale(c[0]) + solutions[1].scale(c[1])
    n_mat = ExactMatrix([[0] * 4 + list(row) for row in s.tolist()] + [[0] * 8] * 4)
    g = ExactMatrix.block_diagonal([a, d]) * matrix_exp_nilpotent(n_mat)
    return SimilitudeElement(split(8), g, nu)


def assert_factors(e: SimilitudeElement) -> None:
    pair = factor(e)
    assert verify(e, pair)
    assert pair.y == pair.x * e.g


@settings(PROPERTY, max_examples=60)
@given(split_torus())
def test_split_torus_with_and_without_reflections(e):
    assert_factors(e)


@settings(PROPERTY, max_examples=40)
@given(moved_split_torus())
def test_split_torus_on_another_gram(e):
    assert_factors(e)


@settings(PROPERTY)
@given(st.one_of(split_torus(dims=(2,)), anisotropic_plane()))
def test_dimension_two(e):
    assert_factors(e)


@settings(PROPERTY, max_examples=25)
@given(y_exp_n())
def test_y_exp_n_needs_the_paired_step(e):
    # the Krylov spaces of the basis vectors and of their sum are degenerate
    # and at most 4-dimensional, so no single cyclic piece is found there
    for v in [tuple(frac(int(i == k)) for k in range(8)) for i in range(8)] + [(frac(1),) * 8]:
        krylov = [v]
        for _ in range(8):
            krylov.append(e.g.apply(krylov[-1]))
        chain = krylov[: rank(ExactMatrix(krylov))]
        assert len(chain) <= 4
        assert pairing_matrix(e.space.gram, chain, chain).det() == 0
    assert_factors(e)
