import random
from fractions import Fraction

import pytest

from gspin.exactlin import (
    ExactMatrix,
    QuadraticSpace,
    commutant_basis,
    commutant_dimension,
    frac,
    is_rational_square,
    kernel,
    kron,
    matrix_equation_kernel,
    matrix_exp_nilpotent,
    matrix_log_unipotent,
    poly_divmod,
    rank,
    rational_eigensplit,
    rational_roots,
    solve,
    span_basis,
)


def rand_matrix(rng, n, lo=-4, hi=4):
    return ExactMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def test_kernel_zero_matrix():
    assert len(kernel(ExactMatrix.zeros(2, 2))) == 2


def test_kernel_identity_empty():
    assert kernel(ExactMatrix.identity(3)) == []


def test_kernel_rank_one():
    basis = kernel(ExactMatrix([[1, 1], [2, 2]]))
    assert len(basis) == 1
    v = basis[0]
    # spanned by (1, -1)
    assert v[0] == -v[1] != 0


def test_rank_plus_nullity():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = rand_matrix(rng, n)
        base = kernel(m)
        assert rank(m) + len(base) == n
        for v in base:
            assert all(x == 0 for x in m.apply(v))


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


def test_poly_divmod_roots():
    # (x-1)(x-2)(x+3) = x^3 - 7x + 6
    p = [frac(6), frac(-7), frac(0), frac(1)]
    assert sorted(rational_roots(p)) == [frac(-3), frac(1), frac(2)]
    q, r = poly_divmod(p, [frac(-1), frac(1)])
    assert r == []
    assert q == [frac(-6), frac(1), frac(1)]


def test_commutant_identity_full():
    assert commutant_dimension([ExactMatrix.identity(4)]) == 16


def test_commutant_distinct_diagonal():
    assert commutant_dimension([ExactMatrix.diagonal([1, 2, 3, 4])]) == 4


def test_commutant_conjugation_invariant():
    rng = random.Random(3)
    gens = [rand_matrix(rng, 3) for _ in range(2)]
    while True:
        p = rand_matrix(rng, 3)
        if p.det() != 0:
            break
    conj = [p * g * p.inverse() for g in gens]
    assert commutant_dimension(gens) == commutant_dimension(conj)


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
    assert commutant_dimension([ExactMatrix.identity(n)], constraints) == 4


def test_matrix_equation_single_term_matches_kron():
    # vec(a X b) = (a kron tb) vec(X) for row-major vec
    a = ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 1, -1]])  # rank 2
    b = ExactMatrix([[2, 1, 0], [0, 1, 0], [1, 0, 3]])
    expected = [ExactMatrix([v[0:3], v[3:6], v[6:9]]) for v in kernel(kron(a, b.transpose()))]
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
    parts, irr = rational_eigensplit(ExactMatrix.diagonal([1, 1, 2, 2]))
    assert [(lam, len(b)) for lam, b in parts] == [(1, 2), (2, 2)]
    assert irr == []


def test_eigensplit_rotation():
    parts, irr = rational_eigensplit(ExactMatrix([[0, -1], [1, 0]]))
    assert parts == []
    assert len(irr) == 2


def test_eigensplit_jordan_block():
    parts, irr = rational_eigensplit(ExactMatrix([[1, 1], [0, 1]]))
    assert [(lam, len(b)) for lam, b in parts] == [(1, 2)]
    assert irr == []


def test_eigensplit_invariance_and_direct_sum():
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(2, 5)
        g = rand_matrix(rng, n, -2, 2)
        parts, irr = rational_eigensplit(g)
        vectors = [v for _, b in parts for v in b] + list(irr)
        assert len(span_basis(vectors)) == n
        for _, b in parts:
            for v in b:
                assert len(span_basis(list(b) + [g.apply(v)])) == len(b)


def test_square_detection():
    ok, root = is_rational_square(frac("9/4"))
    assert ok and root == frac("3/2")
    assert is_rational_square(frac(2))[0] is False
    assert is_rational_square(frac(-4))[0] is False


def test_exp_log_unipotent_roundtrip():
    n = ExactMatrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    u = matrix_exp_nilpotent(n)
    assert matrix_log_unipotent(u) == n


def test_quadratic_space_reflection():
    gram = ExactMatrix.diagonal([1, 1, 1, 1])
    space = QuadraticSpace(4, gram)
    r = space.reflection((1, 2, 0, 1))
    assert r * r == ExactMatrix.identity(4)
    assert r.det() == -1
    assert r.transpose() * gram * r == gram
    assert space.similitude_factor(r) == 1


def test_quadratic_space_validation():
    with pytest.raises(ValueError):
        QuadraticSpace(3, ExactMatrix.identity(3))
    with pytest.raises(ValueError):
        QuadraticSpace(2, ExactMatrix([[1, 2], [3, 4]]))
    with pytest.raises(ValueError):
        QuadraticSpace(2, ExactMatrix([[1, 1], [1, 1]]))


def test_commutant_size_mismatch_rejected():
    with pytest.raises(ValueError):
        commutant_dimension([ExactMatrix.identity(2), ExactMatrix.identity(3)])
    with pytest.raises(ValueError):
        commutant_dimension([])
