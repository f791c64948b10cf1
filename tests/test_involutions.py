import hashlib
import random
from fractions import Fraction

import pytest

from gspin.exactlin import ExactMatrix, QuadraticSpace, frac, matrix_equation_kernel, matrix_exp_nilpotent
from gspin.involutions import (
    FactorizationUnsupportedError,
    InvolutionPair,
    SimilitudeElement,
    factor,
    orthogonal_string_decomposition,
    unipotent_sl2_decompose,
    verify,
)


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
        if space.bilinear(v, v) != 0:
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
    nu = space.similitude_factor(g)
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
    nu = anis.similitude_factor(g)
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
    # two nu = 3 elements, factored by the twisted reversal q(g) v -> q(3 g^-1) v
    # on nondegenerate cyclic pieces; the dim-4 pair is the one the deleted
    # sign-vector search returned, and the dim-8 g already squares to 3, so
    # the reversal is the identity on it
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
        nu = space.similitude_factor(g)
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
    blocks = unipotent_sl2_decompose(space, ExactMatrix.identity(4))
    assert len(blocks) == 1
    b = blocks[0]
    assert b.d == 1 and len(b.multiplicity_basis) == 4
    assert b.pairing_type == "symmetric"


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
    blocks = unipotent_sl2_decompose(space, u)
    assert [(b.d, len(b.multiplicity_basis), b.pairing_type) for b in blocks] == [
        (2, 2, "alternating")
    ]


def test_string_decomposition_two_odd_strings():
    # skew shift for the antidiagonal 6-form: two strings of length three
    space = QuadraticSpace(6, ExactMatrix.antidiagonal([1] * 6))
    n = [[0] * 6 for _ in range(6)]
    for i, s in ((0, 1), (1, 1), (3, -1), (4, -1)):
        n[i][i + 1] = s
    nil = ExactMatrix(n)
    assert (nil.transpose() * space.gram + space.gram * nil).is_zero()
    u = matrix_exp_nilpotent(nil)
    blocks = unipotent_sl2_decompose(space, u)
    assert [(b.d, len(b.multiplicity_basis), b.pairing_type) for b in blocks] == [
        (3, 2, "symmetric")
    ]
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
    assert sum(p.d * len(p.generators) for p in pieces) == 4


def test_decompose_rejects_non_unipotent():
    space = SPACES[4][0]
    g = space.reflection((1, 0, 0, 1)) * space.reflection((0, 1, 1, 0))
    with pytest.raises(ValueError):
        unipotent_sl2_decompose(space, g.scale(2))


def test_reassembled_pairing_matches_gram():
    # the Gram in the full string basis is exactly the block pattern
    # predicted by the per-d pairings: B(N^i a, N^j b) = (-1)^i P_d(a,b)
    # when i + j = d - 1, zero otherwise
    from gspin.exactlin import matrix_log_unipotent

    space = QuadraticSpace(6, ExactMatrix.antidiagonal([1] * 6))
    n = [[0] * 6 for _ in range(6)]
    for i, s in ((0, 1), (1, 1), (3, -1), (4, -1)):
        n[i][i + 1] = s
    nil = ExactMatrix(n)
    u = matrix_exp_nilpotent(nil)
    blocks = unipotent_sl2_decompose(space, u)
    n_mat = matrix_log_unipotent(u)
    for b in blocks:
        for ai, a in enumerate(b.multiplicity_basis):
            for bi, bb in enumerate(b.multiplicity_basis):
                for i in range(b.d):
                    va = a
                    for _ in range(i):
                        va = n_mat.apply(va)
                    for j in range(b.d):
                        vb = bb
                        for _ in range(j):
                            vb = n_mat.apply(vb)
                        got = space.bilinear(va, vb)
                        if i + j == b.d - 1:
                            assert got == Fraction(-1) ** i * b.pairing[ai, bi]
                        else:
                            assert got == 0


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
        yield SimilitudeElement(space, g, space.similitude_factor(g))
    space6 = SPACES[6][0]
    n = [[0] * 6 for _ in range(6)]
    for i, s in ((0, 1), (1, 1), (3, -1), (4, -1)):
        n[i][i + 1] = s
    yield SimilitudeElement(space6, matrix_exp_nilpotent(ExactMatrix(n)), 1)


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
    n_mat = ExactMatrix([[0] * 4 + list(row) for row in s.tolist()] + [[0] * 8] * 4)
    g = ExactMatrix.block_diagonal([a, d]) * matrix_exp_nilpotent(n_mat)
    return SimilitudeElement(SPACES[8][0], g, nu)


def _pinned_nonsquare_and_paired_elements():
    """Seeded split tori diag(a, nu / a) with a non-square nu, times 0, 2 or 4
    reflections, in dims 2, 4, 6 and 8 on the split Gram, and dim-8 y exp(N)
    elements, whose cyclic spaces are all degenerate: only the paired step
    factors those."""
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
