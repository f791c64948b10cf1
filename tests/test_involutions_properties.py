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
  space of y exp(N) is at most 4-dimensional and degenerate, and g^2 - nu is
  nilpotent on the whole space, so the string decomposition over Q[s]
  factors them alone;
- W x Q(sqrt(nu)) in dim 8, with g = (1 x sqrt(nu)) exp(N0 x 1) and the form
  J4 x Tr, N0 in so(J4) of Jordan type (3, 1), (2, 2) or 0, half of them
  moved: odd strings cleaned over Q[s], even string pairs, and s^-1 g = 1;
- a dim-4 block y with y^2 = nu plus a split torus with the same non-square
  nu, half of them moved: strings over Q[s] beside cyclic pieces;
- W1 + W2 in dim 6 or 8, W1 two hyperbolic planes with g = lambda_k and
  nu / lambda_k, W2 hyperbolic with g = mu and nu / mu, on a scaled basis
  x + y that pairs each plane of W1 with an isotropic half of W2: two or
  three primary parts of g + nu g^-1, and the cyclic space of every basis
  vector, pairwise sum and difference degenerate, so the primary split runs;
- lambda exp(N) r_a r_b in dim 4, N of Jordan type (3, 1) or (2, 2): the
  generalized kernel of g -+ lambda is larger than its kernel, and the form
  is degenerate on that kernel, as the lemma test at the end checks;
- lambda times 2 or 4 reflections in dim 4, 6 or 8, on the split Gram and
  on a diagonal one, where x - 1 has small rank: on a nondegenerate
  ker(g - lambda), x is 1 but for one line.

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
    bilinear,
    frac,
    generalized_kernel,
    is_rational_square,
    kernel,
    kron,
    matrix_equation_kernel,
    matrix_exp_nilpotent,
    pairing_matrix,
    rank,
    similitude_factor,
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
    return vectors.map(lambda v: tuple(map(frac, v))).filter(lambda v: bilinear(space.gram, v, v) != 0)


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
def moved(draw, elements):
    """An element of the strategy moved to the Gram P^T G P as P^-1 g P."""
    e = draw(elements)
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
    n_mat = ExactMatrix([[0] * 4 + list(row) for row in s.entries()] + [[0] * 8] * 4)
    g = ExactMatrix.block_diagonal([a, d]) * matrix_exp_nilpotent(n_mat)
    return SimilitudeElement(split(8), g, nu)


# nilpotents of so(J4) of Jordan type (3, 1), (2, 2) and 0
SO4_NILPOTENTS = [
    ExactMatrix([[0, 1, 1, 0], [0, 0, 0, -1], [0, 0, 0, -1], [0, 0, 0, 0]]),
    ExactMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0]]),
    ExactMatrix.zeros(4, 4),
]


@st.composite
def tensor_with_quadratic_field(draw):
    """(1 x sqrt(nu)) exp(N0 x 1) on W x Q(sqrt(nu)), W the split 4-space and
    Q(sqrt(nu)) on the basis 1, sqrt(nu) with its trace form diag(2, 2 nu)."""
    nu = draw(NON_SQUARE)
    n0 = draw(st.sampled_from(SO4_NILPOTENTS)).scale(draw(st.sampled_from([1, -1, 2, Fraction(1, 2)])))
    root = ExactMatrix([[0, nu], [1, 0]])
    space = QuadraticSpace(8, kron(split(4).gram, ExactMatrix.diagonal([2, 2 * nu])))
    return SimilitudeElement(space, kron(matrix_exp_nilpotent(n0), root), nu)


@st.composite
def root_block_with_torus(draw):
    """y = A + J tA J in dim 4, A a 2 x 2 root of a non-square nu, so that
    y^2 = nu, plus diag(a, nu / a) or diag(a, b, nu / b, nu / a), each on its
    antidiagonal Gram."""
    nu = draw(NON_SQUARE)
    a = draw(trace_zero_root(nu))
    j = ExactMatrix.antidiagonal([1, 1])
    t = [frac(x) for x in draw(st.lists(TORUS_ENTRIES, min_size=1, max_size=2))]
    torus = ExactMatrix.diagonal(t + [nu / x for x in reversed(t)])
    gram = ExactMatrix.block_diagonal([split(4).gram, split(torus.rows).gram])
    g = ExactMatrix.block_diagonal([a, j * a.transpose() * j, torus])
    return SimilitudeElement(QuadraticSpace(gram.rows, gram), g, nu)


# two Grams in each dimension: the split one and a diagonal one
GRAMS = {
    dim: [split(dim).gram, ExactMatrix.diagonal(diagonal)]
    for dim, diagonal in ((4, [1, 2, -3, 5]), (6, [1, 1, 2, -1, 3, 1]), (8, [1, 1, 1, 2, -2, 3, -3, 5]))
}


@st.composite
def scaled_reflections(draw):
    """(lambda, lambda r_1 ... r_k) with k = 2 or 4 reflections in dim 4, 6
    or 8, on either Gram of the dimension: g = +-lambda on all of the space
    but the span of the k reflection vectors."""
    dim = draw(st.sampled_from((4, 6, 8)))
    space = QuadraticSpace(dim, draw(st.sampled_from(GRAMS[dim])))
    g = ExactMatrix.identity(dim)
    for _ in range(draw(st.sampled_from((2, 4)))):
        g = g * space.reflection(draw(anisotropic(space)))
    lam = frac(draw(TORUS_ENTRIES))
    return lam, SimilitudeElement(space, g.scale(lam), lam * lam)


def hyperbolic(k: int) -> ExactMatrix:
    """The Gram of e_1, ..., e_k, f_1, ..., f_k with B(e_i, f_j) = [i = j]."""
    return ExactMatrix([[int(abs(i - j) == k) for j in range(2 * k)] for i in range(2 * k)])


@st.composite
def planes_beside_a_hyperbolic_space(draw):
    """W1 + W2, W1 = planes (e_k, f_k) for k = 1, 2 with g = lambda_k on e_k
    and nu / lambda_k on f_k, W2 of dim 2 or 4 with g = mu on its e' and
    nu / mu on its f', a(mu) apart from a(lambda_k) for a(t) = t + nu / t.
    The basis is s x + t y, x running through e_k, f_k, e_k, ... and y
    through the e' for k = 1 and the f' for k = 2, with |t| distinct within
    each k: the cyclic space of every candidate has a nonzero isotropic
    component in W1 or in W2."""
    nu = frac(draw(NUS))
    entries = st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3), 5]).map(frac)
    lam1, lam2, mu = draw(st.tuples(entries, entries, entries).filter(
        lambda ts: all(t * t != nu for t in ts)
        and ts[2] + nu / ts[2] not in (ts[0] + nu / ts[0], ts[1] + nu / ts[1])
    ))
    half = draw(st.sampled_from((1, 2)))  # dim W2 / 2
    dim = 4 + 2 * half
    scales = st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2)])
    columns = []
    for k, w2 in ((0, 0), (1, half)):  # e_k at k, f_k at 2 + k; W2 starts at 4
        sizes = draw(st.permutations([1, 2, 3, Fraction(1, 2)]))
        for i in range(2 + half):
            s, t = draw(scales), sizes[i] * draw(st.sampled_from((1, -1)))
            x, y = (k if i % 2 == 0 else 2 + k), 4 + w2 + i % half
            columns.append([s * int(r == x) + t * int(r == y) for r in range(dim)])
    u = ExactMatrix(columns).transpose()
    hypothesis.assume(u.det() != 0)
    g = ExactMatrix.diagonal([lam1, lam2, nu / lam1, nu / lam2] + [mu] * half + [nu / mu] * half)
    gram = ExactMatrix.block_diagonal([hyperbolic(2), hyperbolic(half)])
    return SimilitudeElement(QuadraticSpace(dim, u.transpose() * gram * u), u.inverse() * g * u, nu)


@st.composite
def unipotent_times_reflections(draw):
    """lambda exp(N) r_a r_b on the split 4-space, N of Jordan type (3, 1) or
    (2, 2), with 0 or 2 reflections: g^2 - lambda^2 is nilpotent but not
    zero on a generalized eigenspace."""
    space = split(4)
    g = matrix_exp_nilpotent(draw(st.sampled_from(SO4_NILPOTENTS[:2])).scale(draw(st.sampled_from([1, -1, 2]))))
    for _ in range(draw(st.sampled_from((0, 2)))):
        g = g * space.reflection(draw(anisotropic(space)))
    g = g.scale(draw(st.sampled_from([1, -1, 2, Fraction(-1, 3)])))
    return SimilitudeElement(space, g, similitude_factor(g, space.gram))


def cyclic_chain(e: SimilitudeElement, v: tuple) -> ExactMatrix:
    """The frame v, g v, ..., up to the dimension of the cyclic space of v."""
    krylov = [v]
    for _ in range(e.space.dim):
        krylov.append(e.g.apply(krylov[-1]))
    return ExactMatrix(krylov[: rank(ExactMatrix(krylov))]).transpose()


def assert_factors(e: SimilitudeElement) -> None:
    pair = factor(e)
    assert verify(e, pair)
    assert pair.y == pair.x * e.g


@settings(PROPERTY, max_examples=60)
@given(split_torus())
def test_split_torus_with_and_without_reflections(e):
    assert_factors(e)


@settings(PROPERTY, max_examples=40)
@given(moved(split_torus()))
def test_split_torus_on_another_gram(e):
    assert_factors(e)


@settings(PROPERTY)
@given(st.one_of(split_torus(dims=(2,)), anisotropic_plane()))
def test_dimension_two(e):
    assert_factors(e)


@settings(PROPERTY, max_examples=25)
@given(y_exp_n())
def test_y_exp_n_without_a_nondegenerate_cyclic_piece(e):
    # the Krylov spaces of the basis vectors and of their sum are degenerate
    # and at most 4-dimensional: no cyclic piece would do, and the strings
    # over Q[s] factor the element
    for v in [tuple(frac(int(i == k)) for k in range(8)) for i in range(8)] + [(frac(1),) * 8]:
        chain = cyclic_chain(e, v)
        assert chain.cols <= 4
        assert pairing_matrix(e.space.gram, chain, chain).det() == 0
    assert_factors(e)


@settings(PROPERTY, max_examples=45)
@given(st.one_of(tensor_with_quadratic_field(), moved(tensor_with_quadratic_field())))
def test_tensor_with_a_quadratic_field(e):
    assert_factors(e)


@settings(PROPERTY)
@given(st.one_of(root_block_with_torus(), moved(root_block_with_torus())))
def test_root_block_beside_a_torus(e):
    assert_factors(e)


@settings(PROPERTY, max_examples=60)
@given(scaled_reflections())
def test_scaled_reflections_move_little_of_the_space(drawn):
    lam, e = drawn
    x = factor(e).x
    one = ExactMatrix.identity(e.space.dim)
    fixed, negated = kernel(e.g - one.scale(lam)), kernel(e.g + one.scale(lam))
    # on each piece x - 1 has rank at most the piece's dimension less its meet
    # with ker(g - lambda) + ker(g + lambda), and the determinant flip adds one
    assert rank(x - one) <= e.space.dim - fixed.cols - negated.cols + 1
    # a nondegenerate ker(g - lambda) is a part of lines, where x is 1 but for
    # the line the flip negates; a degenerate one can hold the top of an even
    # string pair, which x negates
    if pairing_matrix(e.space.gram, fixed, fixed).det() != 0:
        assert rank((x - one) * fixed) <= 1


@settings(PROPERTY, max_examples=30)
@given(planes_beside_a_hyperbolic_space())
def test_planes_beside_a_hyperbolic_space_split_by_primary_parts(e):
    dim = e.space.dim
    basis = [tuple(frac(int(i == k)) for k in range(dim)) for i in range(dim)]
    candidates = basis + [
        tuple(a + sign * b for a, b in zip(basis[i], basis[j]))
        for i in range(dim) for j in range(i + 1, dim) for sign in (1, -1)
    ]
    for v in candidates:
        chain = cyclic_chain(e, v)
        assert pairing_matrix(e.space.gram, chain, chain).det() == 0
    assert_factors(e)


@settings(PROPERTY)
@given(st.one_of(unipotent_times_reflections(), moved(unipotent_times_reflections())))
def test_unipotent_times_reflections(e):
    assert_factors(e)


@settings(PROPERTY, max_examples=80)
@given(st.one_of(
    split_torus(), moved(split_torus()), y_exp_n(), tensor_with_quadratic_field(), root_block_with_torus(),
    planes_beside_a_hyperbolic_space(), unipotent_times_reflections(), moved(unipotent_times_reflections()),
))
def test_generalized_kernel_is_the_kernel_exactly_where_the_form_is_nondegenerate_on_it(e):
    # the adjoint of m = g -+ sqrt(nu) or m = g^2 - nu is an invertible
    # multiple of m, so im m = (ker m)^perp
    square, root = is_rational_square(e.nu)
    one = ExactMatrix.identity(e.space.dim)
    for m in [e.g - one.scale(r) for r in (root, -root)] if square else [e.g * e.g - one.scale(e.nu)]:
        k = kernel(m)
        if k.cols:
            nondegenerate = pairing_matrix(e.space.gram, k, k).det() != 0
            assert (generalized_kernel(m).cols == k.cols) == nondegenerate
