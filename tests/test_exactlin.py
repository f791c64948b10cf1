import random
from fractions import Fraction

import pytest

from gspin.exactlin import (
    ExactMatrix,
    QuadraticSpace,
    bilinear,
    commutant_basis,
    frac,
    is_rational_square,
    kernel,
    kron,
    krylov,
    matrix_equation_kernel,
    matrix_exp_nilpotent,
    matrix_log_unipotent,
    pairing_matrix,
    rank,
    rational_eigensplit,
    rational_roots,
    restrict_to,
    similitude_factor,
    solve,
    span_basis,
)


def rand_matrix(rng, n, lo=-4, hi=4):
    return ExactMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def test_kernel_zero_matrix():
    assert kernel(ExactMatrix.zeros(2, 2)).cols == 2


def test_kernel_identity_empty():
    assert kernel(ExactMatrix.identity(3)) == ExactMatrix.zeros(3, 0)


@pytest.mark.parametrize("n", [1, 3])
def test_empty_frames_transpose_both_ways(n):
    for shape in ((n, 0), (0, n)):
        m = ExactMatrix.zeros(*shape)
        assert (m.transpose().rows, m.transpose().cols) == shape[::-1]
        assert m.transpose().transpose() == m
    assert ExactMatrix.zeros(0, n) != ExactMatrix.zeros(0, n + 1)


def test_span_basis_of_an_empty_frame_keeps_its_height():
    basis = span_basis(ExactMatrix.zeros(3, 0))
    assert (basis.rows, basis.cols) == (3, 0)


def test_pairing_matrix_of_an_empty_frame_has_no_rows():
    ident = ExactMatrix.identity(3)
    assert pairing_matrix(ident, ExactMatrix.zeros(3, 0), ident) == ExactMatrix.zeros(0, 3)


def test_products_and_chains_through_empty_frames():
    empty = ExactMatrix.zeros(3, 0)
    assert empty * empty.transpose() == ExactMatrix.zeros(3, 3)
    assert krylov(ExactMatrix.identity(3), empty, 2) == empty


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)])
def test_is_scalar_of_an_empty_matrix(shape):
    assert ExactMatrix.zeros(*shape).is_scalar() == (shape == (0, 0))


def test_is_scalar_holds_only_for_square_multiples_of_the_identity():
    assert ExactMatrix.identity(3).scale(Fraction(2, 3)).is_scalar()
    assert ExactMatrix.zeros(2, 2).is_scalar()
    assert not ExactMatrix.diagonal([1, 2]).is_scalar()
    assert not ExactMatrix([[1, 0, 0], [0, 1, 0]]).is_scalar()
    assert not ExactMatrix([[1, 0], [0, 1], [0, 0]]).is_scalar()


def test_a_scalar_multiple_is_spelt_scale_only():
    m = ExactMatrix([[1, 2], [3, 4]])
    for product in (lambda: m * 2, lambda: 2 * m, lambda: Fraction(1, 2) * m):
        with pytest.raises(TypeError):
            product()
    assert m.scale(Fraction(1, 2)) == ExactMatrix([["1/2", 1], ["3/2", 2]])
    assert m * m == ExactMatrix([[7, 10], [15, 22]])
    assert m * (1, 1) == (3, 7)


def test_kernel_rank_one():
    basis = kernel(ExactMatrix([[1, 1], [2, 2]]))
    assert basis.cols == 1
    v = basis.transpose().entries()[0]
    # spanned by (1, -1)
    assert v[0] == -v[1] != 0


def test_rank_plus_nullity():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = rand_matrix(rng, n)
        base = kernel(m)
        assert rank(m) + base.cols == n
        assert (m * base).is_zero()


def test_inverse_and_det():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n)
        d = m.det()
        if d == 0:
            continue
        assert m * m.inverse() == ExactMatrix.identity(n)
        assert m.inverse().det() == 1 / d


def test_a_1x1_inverse_is_the_reciprocal_without_elimination(monkeypatch):
    from gspin import exactlin

    def no_elimination(*args, **kw):
        raise AssertionError("a 1 x 1 inverse eliminated")

    monkeypatch.setattr(exactlin, "_eliminate", no_elimination)
    for x in (Fraction(-3, 4), Fraction(5), Fraction(1, 7)):
        inv = ExactMatrix([[x]]).inverse()
        assert inv == ExactMatrix([[1 / x]]) and hash(inv) == hash(ExactMatrix([[1 / x]]))
    with pytest.raises(ValueError, match="singular"):
        ExactMatrix([[0]]).inverse()


def test_charpoly_matches_det_and_trace():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n)
        cp = m.charpoly()
        assert cp[-1] == 1
        assert cp[0] == (-1) ** n * m.det()
        assert cp[-2] == -m.trace()
        # Cayley-Hamilton
        acc = ExactMatrix.zeros(n, n)
        power = ExactMatrix.identity(n)
        for c in cp:
            acc = acc + power.scale(c)
            power = power * m
        assert acc.is_zero()


def test_solve():
    a = ExactMatrix([[2, 1], [1, 3]])
    x = solve(a, (5, 10))
    assert a.apply(x) == (frac(5), frac(10))
    assert solve(ExactMatrix([[1, 1], [1, 1]]), (0, 1)) is None


def test_solve_rejects_a_right_hand_side_longer_than_the_rows():
    # it returned (1, 2), dropping the third equation
    with pytest.raises(ValueError, match="shape mismatch"):
        solve(ExactMatrix.identity(2), [1, 2, 3])


def test_solve_rejects_a_right_hand_side_shorter_than_the_rows():
    # it raised IndexError
    with pytest.raises(ValueError, match="shape mismatch"):
        solve(ExactMatrix.identity(3), [1, 2])


def test_bilinear_rejects_vectors_of_the_wrong_length():
    # zip truncated the longer vectors and the pairing read 3
    with pytest.raises(ValueError, match="shape mismatch"):
        bilinear(ExactMatrix.identity(2), [1, 2, 3], [1, 1, 1])


def test_restrict_to_invariant_subspace():
    rng = random.Random(5)
    for _ in range(20):
        p = rand_matrix(rng, 4)
        if p.det() == 0:
            continue
        # m preserves the span of the first two columns of p
        block = ExactMatrix.block_diagonal([rand_matrix(rng, 2), rand_matrix(rng, 2)])
        block = block + ExactMatrix([[0, 0, 1, 2], [0, 0, 3, 4], [0] * 4, [0] * 4])
        m = p * block * p.inverse()
        span = p.columns(0, 2)
        r = restrict_to(m, span)
        assert m * span == span * r
    with pytest.raises(ValueError, match="not invariant"):
        restrict_to(ExactMatrix([[1, 1], [0, 1]]), ExactMatrix([[0], [1]]))
    with pytest.raises(ValueError, match="not invariant"):
        restrict_to(ExactMatrix.identity(2), ExactMatrix([[1, 2], [0, 0]]))


def test_rational_roots_of_a_cubic():
    # (x-1)(x-2)(x+3) = x^3 - 7x + 6
    p = [frac(6), frac(-7), frac(0), frac(1)]
    assert sorted(rational_roots(p)) == [frac(-3), frac(1), frac(2)]


def test_commutant_identity_full():
    assert len(commutant_basis([ExactMatrix.identity(4)])) == 16


def test_commutant_distinct_diagonal():
    assert len(commutant_basis([ExactMatrix.diagonal([1, 2, 3, 4])])) == 4


def test_commutant_conjugation_invariant():
    rng = random.Random(3)
    gens = [rand_matrix(rng, 3) for _ in range(2)]
    while True:
        p = rand_matrix(rng, 3)
        if p.det() != 0:
            break
    conj = [p * g * p.inverse() for g in gens]
    assert len(commutant_basis(gens)) == len(commutant_basis(conj))


def test_commutant_with_ambient_constraints():
    # ambient: diagonal matrices only -> commutant of identity restricted to 4
    n = 4
    constraints = []
    for i in range(n):
        for j in range(n):
            if i != j:
                c = [[0] * n for _ in range(n)]
                c[i][j] = 1
                constraints.append(ExactMatrix(c))
    ident = ExactMatrix.identity(n)
    assert len(matrix_equation_kernel([[(ident, "X", ident), (-ident, "X", ident)]], constraints)) == 4


def test_matrix_equation_single_term_matches_kron():
    # vec(a X b) = (a kron tb) vec(X) for row-major vec
    a = ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 1, -1]])  # rank 2
    b = ExactMatrix([[2, 1, 0], [0, 1, 0], [1, 0, 3]])
    k = kernel(kron(a, b.transpose()))
    expected = [ExactMatrix([v[0:3], v[3:6], v[6:9]]) for v in k.transpose().entries()]
    got = matrix_equation_kernel([[(a, "X", b)]])
    assert len(got) == 3
    assert got == expected
    for x in got:
        assert (a * x * b).is_zero()


def test_matrix_equation_symmetric_solutions():
    n = 4
    ident = ExactMatrix.identity(n)
    basis = matrix_equation_kernel([[(ident, "X", ident), (-ident, "Xt", ident)]])
    assert len(basis) == n * (n + 1) // 2
    assert all(x.is_symmetric() for x in basis)


def test_matrix_equation_functional_constraint():
    d = ExactMatrix.diagonal([1, 2, 3])
    ident = ExactMatrix.identity(3)
    equations = [[(ident, "X", d), (-d, "X", ident)]]
    assert len(matrix_equation_kernel(equations)) == 3
    traceless = matrix_equation_kernel(equations, [ident])  # sum_i X[i,i] = 0
    assert len(traceless) == 2
    for x in traceless:
        assert x.trace() == 0 and x * d == d * x


def test_matrix_equation_scalar_unknown():
    # X + tX = t 1: X is antisymmetric plus t/2 times the identity
    ident = ExactMatrix.identity(2)
    pairs = matrix_equation_kernel([[(ident, "X", ident), (ident, "Xt", ident)]], scalar=ident)
    assert len(pairs) == 2
    for x, t in pairs:
        assert x + x.transpose() == ident.scale(t)
    assert any(t != 0 for _, t in pairs)


def test_commutant_basis_commutes():
    rng = random.Random(9)
    gens = [rand_matrix(rng, 4) for _ in range(2)]
    for b in commutant_basis(gens):
        for g in gens:
            assert (b * g) == (g * b)


def test_eigensplit_diagonal():
    parts = rational_eigensplit(ExactMatrix.diagonal([1, 1, 2, 2]))
    assert [(lam, b.cols) for lam, b in parts] == [(1, 2), (2, 2)]


def test_eigensplit_rotation():
    assert rational_eigensplit(ExactMatrix([[0, -1], [1, 0]])) == []


def test_eigensplit_jordan_block():
    parts = rational_eigensplit(ExactMatrix([[1, 1], [0, 1]]))
    assert [(lam, b.cols) for lam, b in parts] == [(1, 2)]


def test_eigensplit_invariance_and_direct_sum():
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(2, 5)
        g = rand_matrix(rng, n, -2, 2)
        parts = rational_eigensplit(g)
        vectors = ExactMatrix.hstack([ExactMatrix.zeros(n, 0)] + [b for _, b in parts])
        assert span_basis(vectors).cols == vectors.cols
        for _, b in parts:
            assert span_basis(ExactMatrix.hstack([b, g * b])).cols == b.cols


def test_square_detection():
    ok, root = is_rational_square(frac("9/4"))
    assert ok and root == frac("3/2")
    assert is_rational_square(frac(2))[0] is False
    assert is_rational_square(frac(-4))[0] is False


def test_exp_log_unipotent_roundtrip():
    n = ExactMatrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    u = matrix_exp_nilpotent(n)
    assert matrix_log_unipotent(u) == n


def test_exp_and_log_refuse_what_is_not_nilpotent_or_unipotent():
    m = ExactMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]])
    with pytest.raises(ValueError, match="not unipotent"):
        matrix_log_unipotent(m)
    with pytest.raises(ValueError, match="not nilpotent"):
        matrix_exp_nilpotent(m - ExactMatrix.identity(3))


def test_similitude_factor_of_a_form_with_one_nonzero_per_row_takes_one_product(monkeypatch):
    from gspin import exactlin

    calls = []
    real = exactlin.int_product
    monkeypatch.setattr(exactlin, "int_product", lambda a, b: calls.append(1) or real(a, b))
    g = ExactMatrix([[1, 2, 0], [0, 1, 3], [Fraction(1, 2), 0, 1]])
    monomial = ExactMatrix([[0, 0, Fraction(2, 3)], [-1, 0, 0], [0, 4, 0]])
    # a dense form goes through its nonzero entries too: one product each
    dense = ExactMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    for form in (monomial, dense, ExactMatrix.identity(3)):
        calls.clear()
        assert similitude_factor(g.scale(3), form) is None
        assert similitude_factor(ExactMatrix.identity(3).scale(3), form) == 9
        assert len(calls) == 2


def test_quadratic_space_reflection():
    gram = ExactMatrix.diagonal([1, 1, 1, 1])
    space = QuadraticSpace(4, gram)
    r = space.reflection((1, 2, 0, 1))
    assert r * r == ExactMatrix.identity(4)
    assert r.det() == -1
    assert r.transpose() * gram * r == gram
    assert similitude_factor(r, space.gram) == 1


def _reflection_by_columns(space, v):
    """Column j is e_j - 2 B(e_j, v) / B(v, v) v, entry by entry."""
    n = space.dim
    q = bilinear(space.gram, v, v)
    cols = []
    for j in range(n):
        e = [Fraction(int(i == j)) for i in range(n)]
        coef = 2 * bilinear(space.gram, e, v) / q
        cols.append([e[i] - coef * frac(v[i]) for i in range(n)])
    return ExactMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_reflection_matches_the_column_formula(dim):
    rng = random.Random(dim)
    while True:
        a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)] for _ in range(dim)]
        gram = ExactMatrix([[a[i][j] + a[j][i] for j in range(dim)] for i in range(dim)])
        if gram.det() != 0 and any(gram[i, j] for i in range(dim) for j in range(dim) if i != j):
            break
    space = QuadraticSpace(dim, gram)
    checked = 0
    while checked < 20:
        v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim))
        if bilinear(space.gram, v, v) == 0:
            continue
        r = space.reflection(v)
        assert r == _reflection_by_columns(space, v)
        assert r * r == ExactMatrix.identity(dim)
        assert r.transpose() * gram * r == gram
        assert r.det() == -1
        checked += 1
    with pytest.raises(ValueError):
        space.reflection((0,) * dim)


def test_quadratic_space_validation():
    with pytest.raises(ValueError):
        QuadraticSpace(3, ExactMatrix.identity(3))
    with pytest.raises(ValueError):
        QuadraticSpace(2, ExactMatrix([[1, 2], [3, 4]]))
    with pytest.raises(ValueError):
        QuadraticSpace(2, ExactMatrix([[1, 1], [1, 1]]))


def test_commutant_size_mismatch_rejected():
    with pytest.raises(ValueError):
        commutant_basis([ExactMatrix.identity(2), ExactMatrix.identity(3)])
    with pytest.raises(ValueError):
        commutant_basis([])
