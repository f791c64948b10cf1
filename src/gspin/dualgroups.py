"""Explicit rational-matrix realizations of the dual groups.

The ambient stage is GL4 x GL1 together with the pinning-preserving twist
theta(g, x) = (J tg^-1 J^-1, x det g).  Its fixed points are the similitude
symplectic group GSp4 (dual of GSpin5); twisting by suitable sign elements
cuts out GO4 (dual side of GSpin4^alpha) and the rank-one group attached to
GSpin2^alpha x GSpin3.  The projection onto SO5 (dual of Sp4) is realized on
the second exterior power, with the invariant symplectic-form line split off
exactly.  realize_shape builds the image of L_psi x SL2 in GSp4 for a shape,
once per shape, on the coordinates summand_blocks gives each summand.

A GSp4 element is its 4x4 matrix g: its similitude factor nu(g) is read off
g wherever it is needed, so no caller hands it in.  DualElement (g, x) is an
element of the twisted stage GL4 x GL1 only, where x is data of its own.

The seeded GSp4 sampler, the pair embedding and the two maps into SO5,
which the restriction-diagram checks call on every sample, run on integer
numerators (see ``exactlin.int_product``) and normalise each matrix they
return once; every GSp4 sample is still checked exactly before it is
returned.  They are the only code outside ``exactlin`` that reads its
storage, and tier-1 names them.  Constant factors (the split bases, the
SO4-block bases, THETA_J and the diagonal of a sample) are applied through
their nonzero entries (``exactlin.sparse_product``), never as dense
products.  The endoscopic groups are not sampled: ``endoscopy`` checks each
on a fixed generating set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from operator import mul

from .exactlin import (
    ExactMatrix,
    frac,
    int_product,
    kernel,
    kron,
    matrix_equation_kernel,
    matrix_exp_nilpotent,
    similitude_factor,
    sparse_product,
    ONE,
    ZERO,
)

# ---------------------------------------------------------------------------
# group tags


@dataclass(frozen=True)
class GroupTag:
    """One of the four group families, with rank data and a square-class token.

    family: 'gspin_odd' (GSpin_{2n+1}), 'sp_gl1' (Sp_{2n} x GL1),
            'gspin_even' (GSpin_{2n}^alpha), 'gl_gl1' (GL_N x GL1).
    n:      the rank parameter (for gl_gl1, the GL size N).
    alpha:  square-class token, meaningful for gspin_even only ('1' = split).
    """

    family: str
    n: int
    alpha: str = "1"

    def __post_init__(self):
        if self.family not in ("gspin_odd", "sp_gl1", "gspin_even", "gl_gl1"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 0:
            raise ValueError("rank must be nonnegative")

    @property
    def std_dim(self) -> int:
        """Size N of the standard representation's GL_N factor."""
        if self.family == "gspin_odd":
            return 2 * self.n
        if self.family == "sp_gl1":
            return 2 * self.n + 1
        if self.family == "gspin_even":
            return 2 * self.n
        return self.n

    @property
    def sign(self) -> int:
        """-1 exactly when the dual group is symplectic."""
        return -1 if self.family == "gspin_odd" else +1

    def describe(self) -> str:
        if self.family == "gspin_odd":
            return f"GSpin{2 * self.n + 1}"
        if self.family == "sp_gl1":
            return f"Sp{2 * self.n}xGL1"
        if self.family == "gspin_even":
            return f"GSpin{2 * self.n}^{self.alpha}"
        return f"GL{self.n}xGL1"


GSPIN5 = GroupTag("gspin_odd", 2)
SP4_GL1 = GroupTag("sp_gl1", 2)
GL4_GL1 = GroupTag("gl_gl1", 4)


def gspin_even_tag(alpha: str = "1") -> GroupTag:
    return GroupTag("gspin_even", 2, alpha)


# ---------------------------------------------------------------------------
# the twist


# the antidiagonal matrix with alternating entries -1, 1, ... chosen so that
# conjugated inverse-transpose fixes the standard pinning of GL4
THETA_J = ExactMatrix.antidiagonal([-1, 1, -1, 1])


@dataclass(frozen=True)
class DualElement:
    """Element (g, x) of GL_N x GL1 with exact rational entries."""

    g: ExactMatrix
    x: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", frac(self.x))
        if not self.g.is_square():
            raise ValueError("g must be square")
        if self.x == 0:
            raise ValueError("GL1 coordinate must be nonzero")


def apply_theta(e: DualElement) -> DualElement:
    """theta(g, x) = (J tg^-1 J^-1, x det g) on GL4 x GL1, J = THETA_J;
    applying twice returns the input."""
    d = e.g.det()
    if d == 0:
        raise ValueError("singular g")
    return DualElement(THETA_J * e.g.inverse().transpose() * THETA_J.inverse(), e.x * d)


# ---------------------------------------------------------------------------
# explicit forms

# Gram matrix cutting out GO4 inside GL4 as the twisted fixed points of
# Ad(diag(-1,-1,1,1)) followed by the dual twist.
GSO4_GRAM = ExactMatrix(
    [
        [0, 0, 0, 1],
        [0, 0, -1, 0],
        [0, -1, 0, 0],
        [1, 0, 0, 0],
    ]
)

# coordinates of the two symplectic planes span(e1, e4) and span(e2, e3)
PAIR_PLANES = ((0, 3), (1, 2))


def summand_blocks(count: int) -> tuple:
    """The coordinates of each summand of a realization: all four for one, PAIR_PLANES for two."""
    return PAIR_PLANES if count > 1 else (range(4),)


def embed_pair(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """(a, b) acting on the planes span(e1, e4) and span(e2, e3)."""
    den = lcm(a._den, b._den)
    m = [[0] * 4 for _ in range(4)]
    for (i0, i1), blk in zip(PAIR_PLANES, (a, b)):
        f = den // blk._den
        (p, q), (r, s) = blk._num
        m[i0][i0], m[i0][i1], m[i1][i0], m[i1][i1] = p * f, q * f, r * f, s * f
    return ExactMatrix._make(tuple(map(tuple, m)), den, 4)


# ---------------------------------------------------------------------------
# exterior square and the projection to SO5

_BIVECTOR_INDEX = [(i, j) for i, j in itertools.combinations(range(4), 2)]


def _minors(e: tuple, f: int = 1) -> tuple:
    """f times the 2x2 minors of the 4x4 rows e, indexed by bivectors."""
    return tuple(
        tuple([f * (e[i][k] * e[j][l] - e[i][l] * e[j][k]) for (k, l) in _BIVECTOR_INDEX])
        for (i, j) in _BIVECTOR_INDEX
    )


def exterior_square(g: ExactMatrix) -> ExactMatrix:
    """Matrix of g acting on the 6-dimensional space of bivectors e_i ^ e_j:
    its 2x2 minors."""
    if g.rows != 4 or g.cols != 4:
        raise ValueError("4x4 matrix required")
    return ExactMatrix(_minors(g.entries()))


# symmetric form on bivectors induced by the symplectic form:
# B(u^v, w^z) = J(u,w)J(v,z) - J(u,z)J(v,w)
BIVECTOR_FORM = exterior_square(THETA_J)

# invariant line: the bivector of the inverse symplectic form (e1^e4 - e2^e3),
# as a one-column frame
OMEGA = ExactMatrix([[0, 0, 1, -1, 0, 0]]).transpose()

# basis change [omega | its orthocomplement] on the bivector space
SPLIT_BASIS = ExactMatrix.hstack([OMEGA, kernel(OMEGA.transpose() * BIVECTOR_FORM)])
SPLIT_BASIS_INV = SPLIT_BASIS.inverse()


def _so5_gram() -> ExactMatrix:
    m = SPLIT_BASIS.transpose() * BIVECTOR_FORM * SPLIT_BASIS
    return ExactMatrix([[m[i, j] for j in range(1, 6)] for i in range(1, 6)])


SO5_GRAM = _so5_gram()


@cache
def _nonzeros(m: ExactMatrix) -> tuple[tuple, tuple]:
    """The nonzero numerators of the rows and of the columns of m, as
    (index, numerator) pairs for ``sparse_product``.  Keyed by the value of
    m, so a rebound constant gets its own pairs."""

    def pairs(rows):
        return tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in rows)

    return pairs(m._num), pairs(zip(*m._num))


def _times_constant(num: tuple, m: ExactMatrix) -> tuple:
    """The integer rows num times the numerators of m: t(num m) is
    t(m) t(num), and the rows of t(m) are the columns of m."""
    return tuple(zip(*sparse_product(_nonzeros(m)[1], tuple(zip(*num)))))


def _split_product(left: ExactMatrix, num: tuple, den: int, right: ExactMatrix) -> tuple[tuple, int]:
    """left (num / den) right as integer rows over an unnormalised
    denominator; both constant factors are applied through their nonzero
    entries."""
    rows = sparse_product(_nonzeros(left)[0], _times_constant(num, right))
    return rows, left._den * den * right._den


def _complement_block(num: tuple, den: int, message: str) -> ExactMatrix:
    """The 5x5 block of the 6x6 matrix num / den (split coordinates, den
    nonzero, not necessarily normalised) on the complement of the invariant
    line, which it must fix exactly: row 0 and column 0 are those of the
    identity."""
    if num[0][0] != den or any(num[0][1:]) or any(r[0] for r in num[1:]):
        raise ValueError(message)
    return ExactMatrix._make(tuple(r[1:] for r in num[1:]), den, 5)


def project_to_so5(g: ExactMatrix) -> ExactMatrix:
    """The 5x5 matrix induced on the complement of the invariant line by the
    exterior square divided by the similitude factor x = nu(g).

    Requires g in the symplectic similitude realization; the result is
    special orthogonal for SO5_GRAM.  With x = p / q the split matrix is
    SPLIT_BASIS_INV (q minors(num g)) SPLIT_BASIS / (p den(g)^2), on numerators.
    """
    x = similitude_factor(g, THETA_J)
    if x is None:
        raise ValueError("input is not in the symplectic similitude realization")
    num, den = _split_product(
        SPLIT_BASIS_INV, _minors(g._num, x.denominator), x.numerator * g._den * g._den, SPLIT_BASIS
    )
    return _complement_block(num, den, "invariant-line split failed: non-symplectic input")


# basis [omega | e1^e4 + e2^e3 | tensor part] of the bivector space for
# embed_so4_block; the tensor coordinates are the ordered bivectors e1^e2,
# e1^e3, e4^e2 = -(e2^e4), e4^e3 = -(e3^e4)
_SO4_BLOCK_BASIS = ExactMatrix.hstack([
    OMEGA,
    ExactMatrix(
        [[0, 0, 1, 1, 0, 0], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, -1, 0], [0, 0, 0, 0, 0, -1]]
    ).transpose(),
])
_SO4_BLOCK_TO_SPLIT = SPLIT_BASIS_INV * _SO4_BLOCK_BASIS
_SPLIT_TO_SO4_BLOCK = _SO4_BLOCK_BASIS.inverse() * SPLIT_BASIS


def embed_so4_block(x4: ExactMatrix) -> ExactMatrix:
    """Embed a 4x4 block acting on the tensor part of the bivector space into
    the 5x5 realization, fixing the second invariant line e1^e4 + e2^e3.

    Coordinates on the tensor part are the ordered bivectors
    e1^e2, e1^e3, e4^e2, e4^e3, matching Kronecker products a (x) b for a
    acting on span(e1, e4) and b on span(e2, e3)."""
    if x4.rows != 4 or x4.cols != 4:
        raise ValueError("4x4 matrix required")
    d = x4._den
    block6 = ((d, 0, 0, 0, 0, 0), (0, d, 0, 0, 0, 0), *((0, 0, *r) for r in x4._num))
    num, den = _split_product(_SO4_BLOCK_TO_SPLIT, block6, d, _SPLIT_TO_SO4_BLOCK)
    return _complement_block(num, den, "embedding does not fix the invariant line")


# ---------------------------------------------------------------------------
# pinning verification


@dataclass(frozen=True)
class PinningReport:
    ok: bool
    failures: tuple[str, ...]


def pinning_fixed_by_theta() -> PinningReport:
    """Check that theta preserves the upper-triangular Borel,
    the diagonal torus, and permutes the simple root vectors exactly."""
    n = THETA_J.rows
    failures: list[str] = []

    # diagonal torus: theta of a generic diagonal must be diagonal
    d = ExactMatrix.diagonal([frac(k + 2) for k in range(n)])
    td = apply_theta(DualElement(d, ONE)).g
    if any(td[a, b] != 0 for a in range(n) for b in range(n) if a != b):
        failures.append("torus")

    # Borel: theta of each elementary upper unipotent stays upper triangular,
    # and the simple root vectors are permuted with coefficient +1:
    # theta(1 + t E_{a,a+1}) must equal 1 + t E_{n-1-a, n-a}.
    for a in range(n - 1):
        e = [[ZERO] * n for _ in range(n)]
        e[a][a + 1] = ONE
        u = ExactMatrix.identity(n) + ExactMatrix(e)
        tu = apply_theta(DualElement(u, ONE)).g
        lower_ok = all(tu[r, c] == 0 for r in range(n) for c in range(n) if r > c)
        if not lower_ok:
            failures.append(f"borel:e{a + 1}{a + 2}")
            continue
        b = n - 2 - a
        expected = [[ZERO] * n for _ in range(n)]
        expected[b][b + 1] = ONE
        if tu != ExactMatrix.identity(n) + ExactMatrix(expected):
            failures.append(f"root_vector:e{a + 1}{a + 2}")
    return PinningReport(ok=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# exact element sampling (seeded; used by verification suites)


def _gsp4_nilpotent_basis() -> list[ExactMatrix]:
    """Basis of the strictly upper triangular part of the symplectic Lie
    algebra for THETA_J (elements X with XJ + J tX = 0, X strictly upper)."""
    n = 4
    ident = ExactMatrix.identity(n)
    on_or_below_diagonal = [
        ExactMatrix([[ONE if (r, c) == (i, j) else ZERO for c in range(n)] for r in range(n)])
        for i in range(n)
        for j in range(i + 1)
    ]
    return matrix_equation_kernel(
        [[(ident, "X", THETA_J), (THETA_J, "Xt", ident)]], on_or_below_diagonal
    )


GSP4_NILPOTENTS = _gsp4_nilpotent_basis()
# their numerators, row-major, over one common denominator
_NILPOTENT_DEN = lcm(*(b._den for b in GSP4_NILPOTENTS))
_NILPOTENT_NUMS = [[x * (_NILPOTENT_DEN // b._den) for r in b._num for x in r] for b in GSP4_NILPOTENTS]


def _exp_strictly_upper(n1: tuple, d: int) -> tuple:
    """The numerators of exp(n1 / d) over 6 d^3 for a strictly upper
    triangular 4x4 integer n1: n1^4 = 0, so exp(n1 / d) is
    (6 d^3 + 6 d^2 n1 + 3 d n1^2 + n1^3) / (6 d^3), where n1^2 is nonzero
    only at (0, 2), (0, 3) and (1, 3), and n1^3 only at (0, 3)."""
    (_, a, b, c), (_, _, e, f), (_, _, _, h), _ = n1
    one, s1, s2 = 6 * d**3, 6 * d * d, 3 * d
    return (
        (one, s1 * a, s1 * b + s2 * a * e, s1 * c + s2 * (a * f + b * h) + a * e * h),
        (0, one, s1 * e, s1 * f + s2 * e * h),
        (0, 0, one, s1 * h),
        (0, 0, 0, one),
    )


def sample_gsp4(rng, similitude: Fraction) -> ExactMatrix:
    """Seeded exact sample of GSp4 with the requested similitude factor:
    diag(a, b, x/b, x/a) times one to three factors exp(N), each optionally
    followed by THETA_J, multiplied on numerators and normalised once.  The
    diagonal scales the rows of the first exp(N), and THETA_J permutes
    columns with signs."""
    x = frac(similitude)
    p, q = x.numerator, x.denominator
    a = rng.randint(1, 5)
    b = rng.randint(1, 5)
    # diag(a, b, x/b, x/a) over q a b
    den = q * a * b
    diagonal = (((0, a * den),), ((1, b * den),), ((2, p * a),), ((3, p * b),))
    for k in range(rng.randint(1, 3)):
        coeffs = [rng.randint(-2, 2) for _ in GSP4_NILPOTENTS]
        flat = [sum(map(mul, coeffs, entry)) for entry in zip(*_NILPOTENT_NUMS)]
        nil = tuple(tuple(flat[4 * i : 4 * i + 4]) for i in range(4))
        exp = _exp_strictly_upper(nil, _NILPOTENT_DEN)
        num = sparse_product(diagonal, exp) if k == 0 else int_product(num, tuple(zip(*exp)))
        den *= 6 * _NILPOTENT_DEN**3
        if rng.random() < 0.5:
            num = _times_constant(num, THETA_J)
            den *= THETA_J._den
    g = ExactMatrix._make(num, den, 4)
    if similitude_factor(g, THETA_J) is None:
        raise ValueError("sample left the symplectic similitude group")
    return g


def sample_gl2(rng, det_value: Fraction) -> ExactMatrix:
    """Seeded 2x2 rational matrix with the prescribed determinant."""
    det_value = frac(det_value)
    while True:
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        if a != 0:
            return ExactMatrix([[a, b], [c, (det_value + b * c) / a]])


# ---------------------------------------------------------------------------
# the realization of a parameter shape


@cache
def realize_shape(shape: tuple[tuple[int, int, int | None], ...]) -> tuple[ExactMatrix, ...]:
    """Generators of the image of L_psi x SL2 in GSp4 for THETA_J, once per
    checked shape of (N, d, sign) triples, one per summand.

    Each summand gets generic samples a (similitude factor 9 for N = 1, 2; the
    generic GSp4 sample for N = 4), acting as kron(a, I_d) on its block of
    `summand_blocks`, with 3 I_2 on the other plane.  The one SL2 is the
    triple (e, h, f): h is diagonal, of weight d - 1 - 2 (k mod d) on the
    k-th coordinate of each block; e sums a basis of the weight-2 part of
    sp(THETA_J) that commutes with the samples; f is the one partner with
    [e, f] = h.  Returns the samples in summand order, then exp(e) and exp(f)."""
    ident = ExactMatrix.identity(4)
    idle = ExactMatrix.identity(2).scale(3)
    scalars = iter((3, -3))
    samples: list[ExactMatrix] = []
    weights = [0] * 4
    for index, ((N, d, sign), block) in enumerate(zip(shape, summand_blocks(len(shape)))):
        if N == 1:
            local = [ExactMatrix([[next(scalars)]])]
        elif N == 2:
            local = [ExactMatrix.diagonal([2, Fraction(9, 2)]), ExactMatrix([[0, 1], [sign * 9, 0]])]
        else:
            local = [ExactMatrix.diagonal([2, 5, Fraction(3, 5), Fraction(3, 2)]), THETA_J]
            local += [matrix_exp_nilpotent(n) for n in GSP4_NILPOTENTS[:3]]
        for a in local:
            m = kron(a, ExactMatrix.identity(d))
            if len(shape) > 1:
                m = embed_pair(m, idle) if index == 0 else embed_pair(idle, m)
            samples.append(m)
        for k, i in enumerate(block):
            weights[i] = d - 1 - 2 * (k % d)
    h = ExactMatrix.diagonal(weights)
    symplectic = [(ident, "X", THETA_J), (THETA_J, "Xt", ident)]

    def weight(w: int) -> list[tuple]:  # [h, X] = w X
        return [(h - ident.scale(w), "X", ident), (-ident, "X", h)]

    commuting = [[(ident, "X", a), (-a, "X", ident)] for a in samples]
    e = sum(matrix_equation_kernel([symplectic, weight(2), *commuting]), ExactMatrix.zeros(4, 4))
    solutions = matrix_equation_kernel(
        [[(e, "X", ident), (-ident, "X", e)], weight(-2), symplectic], scalar=h
    )
    if len(solutions) != 1 or solutions[0][1] == 0:
        raise ValueError("no sl2 triple through e")
    f, t = solutions[0]
    return (*samples, matrix_exp_nilpotent(e), matrix_exp_nilpotent(f.scale(1 / t)))
