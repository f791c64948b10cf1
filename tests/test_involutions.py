import hashlib
import random
from fractions import Fraction

import pytest

from gspin import exactlin, involutions
from gspin.exactlin import (
    ExactMatrix,
    QuadraticSpace,
    bilinear,
    frac,
    generalized_kernel,
    is_rational_square,
    kernel,
    matrix_equation_kernel,
    matrix_exp_nilpotent,
    matrix_log_unipotent,
    pairing_matrix,
    rank,
    similitude_factor,
)
from gspin.involutions import (
    FactorizationUnsupportedError,
    InvolutionPair,
    SimilitudeElement,
    factor,
    orthogonal_string_decomposition,
    verify,
)
from gspin.selftest import run_selftest


SPACES = {
    2: [
        QuadraticSpace(2, ExactMatrix([[0, 1], [1, 0]])),
        QuadraticSpace(2, ExactMatrix.diagonal([1, -3])),
    ],
    4: [
        QuadraticSpace(4, ExactMatrix.antidiagonal([1, 1, 1, 1])),
        QuadraticSpace(4, ExactMatrix.diagonal([1, 1, 1, 1])),
        QuadraticSpace(4, ExactMatrix.diagonal([1, 2, -3, 5])),
    ],
    6: [
        QuadraticSpace(6, ExactMatrix.antidiagonal([1] * 6)),
        QuadraticSpace(6, ExactMatrix.diagonal([1, 1, 2, -1, 3, 1])),
    ],
    8: [
        QuadraticSpace(8, ExactMatrix.antidiagonal([1] * 8)),
        QuadraticSpace(8, ExactMatrix.diagonal([1, 1, 1, 2, -2, 3, -3, 5])),
    ],
}


def random_vector(rng, space):
    while True:
        v = tuple(frac(rng.randint(-3, 3)) for _ in range(space.dim))
        if bilinear(space.gram, v, v) != 0:
            return v


def random_gso(rng, space, reflections=4, with_scalar=True):
    g = ExactMatrix.identity(space.dim)
    count = 2 * rng.randint(1, reflections // 2)
    for _ in range(count):
        g = g * space.reflection(random_vector(rng, space))
    lam = frac(rng.randint(1, 5)) / frac(rng.randint(1, 3))
    if rng.random() < 0.4:
        lam = -lam
    if not with_scalar:
        lam = frac(1)
    g = g.scale(lam)
    n = space.dim // 2
    nu = similitude_factor(g, space.gram)
    assert nu is not None and g.det() == nu**n
    return SimilitudeElement(space, g, nu)


def test_identity_and_scalar_normal_forms_dim4():
    space = SPACES[4][0]
    e = SimilitudeElement(space, ExactMatrix.identity(4), 1)
    pair = factor(e)
    assert verify(e, pair)
    assert pair.x == ExactMatrix.identity(4) and pair.y == ExactMatrix.identity(4)

    lam = frac(3)
    e = SimilitudeElement(space, ExactMatrix.identity(4).scale(lam), lam * lam)
    pair = factor(e)
    assert verify(e, pair)
    assert pair.x == ExactMatrix.identity(4)
    assert pair.y == ExactMatrix.identity(4).scale(lam)


def test_identity_dim6_needs_det_minus_one():
    space = SPACES[6][0]
    e = SimilitudeElement(space, ExactMatrix.identity(6), 1)
    pair = factor(e)
    assert verify(e, pair)
    assert pair.x.det() == -1


def test_negative_scalar():
    space = SPACES[4][1]
    lam = frac(-2)
    e = SimilitudeElement(space, ExactMatrix.identity(4).scale(lam), lam * lam)
    pair = factor(e)
    assert verify(e, pair)


def test_two_reflections_times_scalar_semisimple():
    rng = random.Random(100)
    for space in SPACES[4]:
        for _ in range(10):
            g = space.reflection(random_vector(rng, space)) * space.reflection(
                random_vector(rng, space)
            )
            lam = frac(rng.randint(1, 4))
            e = SimilitudeElement(space, g.scale(lam), lam * lam)
            assert verify(e, factor(e))


def test_dim2_any_similitude():
    rng = random.Random(7)
    split = SPACES[2][0]
    # non-square similitude on the split plane: diag(a, b) with nu = ab
    e = SimilitudeElement(split, ExactMatrix.diagonal([2, 1]), 2)
    pair = factor(e)
    assert verify(e, pair)
    # anisotropic plane, non-square similitude
    anis = SPACES[2][1]
    g = ExactMatrix([[1, 6], [2, 1]])  # a + b sqrt(3) model with alpha = 3
    nu = similitude_factor(g, anis.gram)
    assert nu is not None and nu == -11
    e = SimilitudeElement(anis, g, nu)
    assert verify(e, factor(e))
    for _ in range(10):
        e = random_gso(rng, split)
        assert verify(e, factor(e))


def test_nonsquare_similitude_dim4_via_twisted_reversal():
    space = SPACES[4][0]
    # torus similitudes with non-square (even negative) factors split into
    # nondegenerate cyclic pieces, with the twisted reversal on each
    for diag, nu in (([1, 1, 2, 2], 2), ([2, 3, 2, 3], 6), ([1, 2, -1, -2], -2)):
        e = SimilitudeElement(space, ExactMatrix.diagonal(diag), nu)
        assert verify(e, factor(e))


def test_twisted_reversal_returns_the_recorded_pair():
    # two nu = 3 elements, factored by the twisted reversal q(g) v -> q(3 g^-1) v;
    # the dim-4 pair, from nondegenerate cyclic pieces, is the one the deleted
    # sign-vector search returned, and the dim-8 g already squares to 3, so
    # s = g, log(s^-1 g) = 0 and the reversal is the identity on it
    space4 = SPACES[4][0]
    g4 = ExactMatrix([[-2, -1, 0, 0], [-1, -2, 0, 0], [0, 0, -2, 1], [0, 0, 1, -2]])
    e4 = SimilitudeElement(space4, g4, 3)
    pair = factor(e4)
    assert verify(e4, pair)
    assert pair.x == ExactMatrix.diagonal([1, -1, -1, 1])
    assert pair.y == ExactMatrix([[-2, -1, 0, 0], [1, 2, 0, 0], [0, 0, 2, -1], [0, 0, 1, -2]])

    space8 = SPACES[8][0]
    a = [[1, 1, 0, 0], [2, -1, 0, 0], [0, 0, -1, 2], [0, 0, 1, 1]]
    d = [[1, 2, 0, 0], [1, -1, 0, 0], [0, 0, -1, 1], [0, 0, 2, 1]]  # J tA J
    g8 = ExactMatrix.block_diagonal([ExactMatrix(a), ExactMatrix(d)])
    e8 = SimilitudeElement(space8, g8, 3)
    pair = factor(e8)
    assert verify(e8, pair)
    assert pair.x == ExactMatrix.identity(8)
    assert pair.y == g8


def test_unsupported_dimension_reported():
    big = QuadraticSpace(10, ExactMatrix.antidiagonal([1] * 10))
    with pytest.raises(FactorizationUnsupportedError):
        factor(SimilitudeElement(big, ExactMatrix.identity(10), 1))


def test_verify_rejects_bad_pairs():
    space = SPACES[4][0]
    e = SimilitudeElement(space, ExactMatrix.identity(4), 1)
    shear = ExactMatrix.identity(4) + ExactMatrix(
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    assert not verify(e, InvolutionPair(shear, shear.inverse()))
    # x not form-orthogonal
    x = ExactMatrix.diagonal([1, 1, 1, -1])
    assert not verify(e, InvolutionPair(x, x))


def _broken_equations(e, p):
    """The defining equations of verify that the pair breaks, each checked
    as written: x^2 = 1, t(x) G x = G, det x = (-1)^n, x y = g and
    y^2 = nu(y) for a similitude y."""
    space, ident = e.space, ExactMatrix.identity(e.space.dim)
    nu_y = similitude_factor(p.y, space.gram)
    holds = {
        "involution": p.x * p.x == ident,
        "isometry": p.x.transpose() * space.gram * p.x == space.gram,
        "determinant": p.x.det() == (-1) ** (space.dim // 2),
        "product": p.x * p.y == e.g,
        "square": nu_y is not None and p.y * p.y == ident.scale(nu_y),
    }
    return [name for name, ok in holds.items() if not ok]


def test_verify_rejects_a_pair_that_breaks_one_equation():
    space = SPACES[4][0]
    one = SimilitudeElement(space, ExactMatrix.identity(4), 1)
    reflection = space.reflection((1, 0, 0, 1))
    g = reflection * space.reflection((1, 1, 0, 1))
    assert g * g != ExactMatrix.identity(4)
    rotation = SimilitudeElement(space, g, 1)
    cases = [
        (one, InvolutionPair(reflection, reflection), "determinant"),
        (one, InvolutionPair(ExactMatrix.identity(4), -ExactMatrix.identity(4)), "product"),
        (rotation, InvolutionPair(ExactMatrix.identity(4), g), "square"),
    ]
    for e, pair, broken in cases:
        assert _broken_equations(e, pair) == [broken]
        assert not verify(e, pair)
    assert _broken_equations(one, InvolutionPair(ExactMatrix.identity(4), ExactMatrix.identity(4))) == []


def _three_times_two_reflections() -> SimilitudeElement:
    space = SPACES[8][0]
    g = (space.reflection((1, 0, 2, 0, 0, 1, 0, 1)) * space.reflection((0, 1, 1, 0, 3, 0, 1, 1))).scale(3)
    return SimilitudeElement(space, g, 9)


def test_factor_of_three_times_two_reflections_takes_seven_eliminations(monkeypatch):
    # g = 3 r_a r_b in dim 8: ker(g - 3) is the 6-dim orthocomplement of the
    # plane of a and b, nondegenerate, so it is the generalized kernel and
    # its vectors are lines.  Eliminations: ker(g - 3), the determinant of
    # its Gram, ker(g + 3), the orthocomplement of ker(g - 3), its reduced
    # basis, the Gram determinant of the one cyclic chain, and the inverse of
    # that chain's 2 x 2 Gram; the determinant flip negates a line of
    # ker(g - 3), a chain of one vector, and inverts its 1 x 1 Gram, a
    # reciprocal that eliminates nothing
    e = _three_times_two_reflections()
    calls = []
    real = exactlin._eliminate
    monkeypatch.setattr(exactlin, "_eliminate", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    pair = factor(e)
    assert len(calls) == 7
    monkeypatch.undo()
    assert verify(e, pair)
    assert kernel(e.g - ExactMatrix.identity(8).scale(3)).cols == 6


def test_factor_of_three_times_two_reflections_inverts_no_chain_matrix(monkeypatch):
    # x is 1 plus one term per piece of chains longer than one vector, each
    # with the inverse of that piece's Gram, and the determinant flip inverts
    # the 1 x 1 Gram of its line: neither G nor any n x n matrix of chains is
    # inverted
    e = _three_times_two_reflections()
    inverted = []
    real = ExactMatrix.inverse
    monkeypatch.setattr(ExactMatrix, "inverse", lambda m: inverted.append(m.rows) or real(m))
    pair = factor(e)
    monkeypatch.undo()
    assert verify(e, pair)
    assert inverted == [2, 1]


def test_unipotent_inputs():
    # one even string pair inside the split 4-dim form
    space = SPACES[4][0]
    nil = ExactMatrix(
        [
            [0, 1, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, 0, 0],
        ]
    )
    assert (nil.transpose() * space.gram + space.gram * nil).is_zero()
    u = matrix_exp_nilpotent(nil)
    e = SimilitudeElement(space, u, 1)
    assert verify(e, factor(e))
    # scaled unipotent
    e2 = SimilitudeElement(space, u.scale(2), 4)
    assert verify(e2, factor(e2))


def test_mixed_unipotent_times_reflections():
    rng = random.Random(11)
    space = SPACES[4][0]
    nil = ExactMatrix(
        [
            [0, 1, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, 0, 0],
        ]
    )
    u = matrix_exp_nilpotent(nil)
    for _ in range(10):
        g = u * space.reflection(random_vector(rng, space)) * space.reflection(
            random_vector(rng, space)
        )
        nu = similitude_factor(g, space.gram)
        e = SimilitudeElement(space, g, nu)
        assert verify(e, factor(e))


def test_seeded_sweep_all_dims():
    rng = random.Random(2024)
    for dim in (4, 6, 8):
        for space in SPACES[dim]:
            for _ in range(20):
                e = random_gso(rng, space)
                assert verify(e, factor(e))


def test_factor_of_negated_element():
    rng = random.Random(5)
    space = SPACES[4][2]
    for _ in range(5):
        e = random_gso(rng, space)
        neg = SimilitudeElement(space, -e.g, e.nu)
        assert verify(e, factor(e))
        assert verify(neg, factor(neg))


def test_similitude_element_validation():
    space = SPACES[4][0]
    with pytest.raises(ValueError):
        SimilitudeElement(space, ExactMatrix.identity(4), 2)
    # GO minus GSO: a reflection has det -1 != nu^2
    r = space.reflection((1, 0, 0, 1))
    with pytest.raises(ValueError):
        SimilitudeElement(space, r, 1)


# ---------------------------------------------------------------------------
# string decompositions


def test_string_decomposition_identity():
    space = SPACES[4][1]
    pieces = orthogonal_string_decomposition(space, matrix_log_unipotent(ExactMatrix.identity(4)))
    assert [(p.d, p.generators.cols) for p in pieces] == [(1, 1)] * 4


def test_string_decomposition_even_pair():
    space = SPACES[4][0]
    nil = ExactMatrix(
        [
            [0, 1, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, 0, 0],
        ]
    )
    u = matrix_exp_nilpotent(nil)
    pieces = orthogonal_string_decomposition(space, matrix_log_unipotent(u))
    assert [(p.d, p.generators.cols) for p in pieces] == [(2, 2)]


def test_string_decomposition_two_odd_strings():
    # skew shift for the antidiagonal 6-form: two strings of length three
    space = QuadraticSpace(6, ExactMatrix.antidiagonal([1] * 6))
    n = [[0] * 6 for _ in range(6)]
    for i, s in ((0, 1), (1, 1), (3, -1), (4, -1)):
        n[i][i + 1] = s
    nil = ExactMatrix(n)
    assert (nil.transpose() * space.gram + space.gram * nil).is_zero()
    u = matrix_exp_nilpotent(nil)
    pieces = orthogonal_string_decomposition(space, matrix_log_unipotent(u))
    assert [(p.d, p.generators.cols) for p in pieces] == [(3, 1), (3, 1)]
    # the factorization handles this unipotent too
    e = SimilitudeElement(space, u, 1)
    assert verify(e, factor(e))


def test_direct_sum_refinement():
    # block-diagonal input decomposes blockwise
    space = SPACES[4][0]
    nil = ExactMatrix(
        [
            [0, 1, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, 0, 0],
        ]
    )
    pieces = orthogonal_string_decomposition(space, nil)
    assert sum(p.d * p.generators.cols for p in pieces) == 4


def test_decompose_rejects_non_unipotent():
    space = SPACES[4][0]
    g = space.reflection((1, 0, 0, 1)) * space.reflection((0, 1, 1, 0))
    with pytest.raises(ValueError):
        matrix_log_unipotent(g.scale(2))


def test_reassembled_pairing_matches_gram():
    # the Gram in the string basis of each piece is exactly the block
    # pattern predicted by its top pairing P(a, b) = B(a, N^(d-1) b):
    # B(N^i a, N^j b) = (-1)^i P(a, b) when i + j = d - 1, zero otherwise;
    # P is nondegenerate, symmetric for odd d and alternating for even d
    space = QuadraticSpace(6, ExactMatrix.antidiagonal([1] * 6))
    n = [[0] * 6 for _ in range(6)]
    for i, s in ((0, 1), (1, 1), (3, -1), (4, -1)):
        n[i][i + 1] = s
    u = matrix_exp_nilpotent(ExactMatrix(n))
    n_mat = matrix_log_unipotent(u)
    pieces = orthogonal_string_decomposition(space, n_mat)
    assert sum(p.d * p.generators.cols for p in pieces) == 6
    powers = [ExactMatrix.identity(6)]  # N^0, ..., N^5
    while len(powers) < 6:
        powers.append(powers[-1] * n_mat)
    for p in pieces:
        top = pairing_matrix(space.gram * powers[p.d - 1], p.generators, p.generators)
        assert top.det() != 0
        assert top.is_symmetric() if p.d % 2 else top.is_antisymmetric()
        for i in range(p.d):
            for j in range(p.d):
                got = pairing_matrix(space.gram, powers[i] * p.generators, powers[j] * p.generators)
                if i + j == p.d - 1:
                    assert got == top.scale((-1) ** i)
                else:
                    assert got.is_zero()


# ---------------------------------------------------------------------------
# recorded outputs


def _pinned_square_nu_elements():
    """Seeded square-nu elements: lambda times a product of 2 or 4 reflections
    in dims 4, 6 and 8 on the split and the diagonal Gram, -lambda times the
    identity, and unipotent elements with and without reflections."""
    rng = random.Random(4242)
    for dim in (4, 6, 8):
        for space in (SPACES[dim][0], SPACES[dim][-1]):
            for reflections in (2, 4):
                for _ in range(3):
                    g = ExactMatrix.identity(dim)
                    for _ in range(reflections):
                        g = g * space.reflection(random_vector(rng, space))
                    lam = frac(rng.choice((-1, 1)) * rng.randint(1, 4)) / rng.randint(1, 3)
                    yield SimilitudeElement(space, g.scale(lam), lam * lam)
            lam = -frac(rng.randint(1, 4))
            yield SimilitudeElement(space, ExactMatrix.identity(dim).scale(lam), lam * lam)
    space = SPACES[4][0]
    nil = ExactMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0]])
    u = matrix_exp_nilpotent(nil)
    yield SimilitudeElement(space, u.scale(3), 9)
    for _ in range(3):
        g = u * space.reflection(random_vector(rng, space)) * space.reflection(
            random_vector(rng, space)
        )
        yield SimilitudeElement(space, g, similitude_factor(g, space.gram))
    space6 = SPACES[6][0]
    n = [[0] * 6 for _ in range(6)]
    for i, s in ((0, 1), (1, 1), (3, -1), (4, -1)):
        n[i][i + 1] = s
    yield SimilitudeElement(space6, matrix_exp_nilpotent(ExactMatrix(n)), 1)


def test_generalized_kernel_is_the_kernel_where_the_form_is_nondegenerate_on_it():
    # the adjoint of m = g - r (r^2 = nu) or m = g^2 - nu is an invertible
    # multiple of m, so im m = (ker m)^perp and ker m^2 = ker m exactly when
    # ker m meets (ker m)^perp in 0; both cases occur among the pinned elements
    seen = set()
    for e in [*_pinned_square_nu_elements(), *_pinned_nonsquare_and_paired_elements()]:
        square, root = is_rational_square(e.nu)
        one = ExactMatrix.identity(e.space.dim)
        for m in [e.g - one.scale(r) for r in (root, -root)] if square else [e.g * e.g - one.scale(e.nu)]:
            k = kernel(m)
            if k.cols:
                nondegenerate = pairing_matrix(e.space.gram, k, k).det() != 0
                assert (generalized_kernel(m).cols == k.cols) == nondegenerate
                seen.add(nondegenerate)
    assert seen == {True, False}


def test_square_nu_factorizations_match_the_recorded_digest():
    # (x, y) is a function of g alone; the digest was recorded before the
    # +-1 parts stopped running the string decomposition
    digest = hashlib.sha256()
    count = 0
    for e in _pinned_square_nu_elements():
        pair = factor(e)
        for m in (pair.x, pair.y):
            digest.update(repr(m).encode() + b"\n")
        count += 1
    assert count == 47
    assert digest.hexdigest() == (
        "4c17352c76ef07b266619c44554ca2994f27a92ffbf3ea36189465acc1950d96"
    )


def _y_exp_n(rng):
    """A dim-8 y exp(N) on the split Gram, built as in
    test_involutions_properties: y = A + J tA J with A two trace-zero 2 x 2
    roots of a non-square nu, and N skew nilpotent commuting with y."""
    nu = rng.choice((2, -1, 3, -3, 5, 6, -7))
    roots = []
    for _ in range(2):
        a = rng.randint(-3, 3)
        b = rng.choice([b for b in (1, -1, 2, -2) if (nu - a * a) % b == 0])
        roots.append(ExactMatrix([[a, b], [(nu - a * a) // b, -a]]))
    a = ExactMatrix.block_diagonal(roots)
    j, one = ExactMatrix.antidiagonal([1] * 4), ExactMatrix.identity(4)
    d = j * a.transpose() * j
    s1, s2 = matrix_equation_kernel([[(one, "X", d), (-a, "X", one)], [(one, "X", j), (j, "Xt", one)]])
    c = (0, 0)
    while c == (0, 0):
        c = (rng.randint(-2, 2), rng.randint(-2, 2))
    s = s1.scale(c[0]) + s2.scale(c[1])
    n_mat = ExactMatrix([[0] * 4 + list(row) for row in s.entries()] + [[0] * 8] * 4)
    g = ExactMatrix.block_diagonal([a, d]) * matrix_exp_nilpotent(n_mat)
    return SimilitudeElement(SPACES[8][0], g, nu)


def _pinned_nonsquare_and_paired_elements():
    """Seeded split tori diag(a, nu / a) with a non-square nu, times 0, 2 or 4
    reflections, in dims 2, 4, 6 and 8 on the split Gram, and last ten dim-8
    y exp(N) elements, whose cyclic spaces are all degenerate: g^2 - nu is
    nilpotent on the whole space, and the strings over Q[s] factor those."""
    rng = random.Random(5151)
    for dim in (2, 4, 6, 8):
        space = SPACES[dim][0]
        for _ in range(10):
            nu = frac(rng.choice((2, -1, 3, -3, Fraction(5, 7))))
            a = [frac(rng.choice((1, -1, 2, -2, 3, Fraction(1, 2)))) for _ in range(dim // 2)]
            g = ExactMatrix.diagonal(a + [nu / x for x in reversed(a)])
            for _ in range(rng.choice((0, 2, 4))):
                g = g * space.reflection(random_vector(rng, space))
            yield SimilitudeElement(space, g, nu)
    for _ in range(10):
        yield _y_exp_n(rng)


def test_nonsquare_and_paired_factorizations_match_the_recorded_digest():
    digest = hashlib.sha256()
    count = 0
    for e in _pinned_nonsquare_and_paired_elements():
        pair = factor(e)
        for m in (pair.x, pair.y):
            digest.update(repr(m).encode() + b"\n")
        count += 1
    assert count == 50
    assert digest.hexdigest() == (
        "4118ef462b2c0bb9ba931f71bbe2788bfc7438417129d199e11812a35ac89a22"
    )


def test_y_exp_n_elements_factor_without_cyclic_pieces(monkeypatch):
    # every vector of genker(g^2 - nu) goes to the strings over Q[s], and for
    # y exp(N) that is the whole space
    def no_cyclic_pieces(*args):
        raise AssertionError("cyclic pieces asked for")

    monkeypatch.setattr(involutions, "_cyclic_pieces", no_cyclic_pieces)
    elements = list(_pinned_nonsquare_and_paired_elements())[-10:]
    for e in elements:
        assert verify(e, factor(e))


# ---------------------------------------------------------------------------
# a space with no nondegenerate cyclic piece among the candidates


def _two_hyperbolic_spaces():
    """W1 + W2 in dim 8, each hyperbolic with basis e1, e2, f1, f2, g = 2 on
    the e and 1/2 on the f of W1, 3 and 1/3 on W2 (nu = 1), on the basis
    u_j = x_j + y_j with x = (e1, f1, e2, f2, e1, f1, e2, f2) in W1 and
    y = (e1', e2', f1', f2', 2 e1', 2 e2', 2 f1', 2 f2') in W2."""
    h = ExactMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    g = ExactMatrix.diagonal([2, 2, Fraction(1, 2), Fraction(1, 2), 3, 3, Fraction(1, 3), Fraction(1, 3)])
    x = [0, 2, 1, 3, 0, 2, 1, 3]  # coordinates e1 e2 f1 f2 | e1' e2' f1' f2'
    y = [(4, 1), (5, 1), (6, 1), (7, 1), (4, 2), (5, 2), (6, 2), (7, 2)]
    u = ExactMatrix([[int(k == i) + c * int(k == j) for k in range(8)] for i, (j, c) in zip(x, y)]).transpose()
    gram = ExactMatrix.block_diagonal([h, h])
    return SimilitudeElement(QuadraticSpace(8, u.transpose() * gram * u), u.inverse() * g * u, 1)


def test_primary_split_where_every_candidate_is_degenerate(monkeypatch):
    e = _two_hyperbolic_spaces()
    # g^2 - 1 is invertible, so the cyclic pieces must fill the whole space,
    # and the cyclic space of every basis vector, pairwise sum and pairwise
    # difference is degenerate
    basis = [tuple(frac(int(i == k)) for k in range(8)) for i in range(8)]
    candidates = basis + [
        tuple(a + sign * b for a, b in zip(basis[i], basis[j]))
        for i in range(8) for j in range(i + 1, 8) for sign in (1, -1)
    ]
    for v in candidates:
        krylov = [v]
        for _ in range(8):
            krylov.append(e.g.apply(krylov[-1]))
        chain = ExactMatrix(krylov[: rank(ExactMatrix(krylov))]).transpose()
        assert pairing_matrix(e.space.gram, chain, chain).det() == 0

    # the primary parts of g + g^-1 split the space with no random draw
    def no_draw(*args):
        raise AssertionError("random draw in factor")

    monkeypatch.setattr(random, "Random", no_draw)
    assert verify(e, factor(e))


def test_selftest_factors_nonsquare_similitude_factors(monkeypatch):
    nus = []
    reversing_involution = involutions._reversing_involution

    def recording(space, g, nu):
        nus.append(nu)
        return reversing_involution(space, g, nu)

    monkeypatch.setattr(involutions, "_reversing_involution", recording)
    ok, _ = run_selftest(0)
    assert ok
    assert sum(not is_rational_square(nu)[0] for nu in nus) >= 2
