"""Explicit rational-matrix realizations of the dual groups.

The ambient stage is GL4 x GL1 together with the pinning-preserving twist
theta(g, x) = (J tg^-1 J^-1, x det g).  Its fixed points are the similitude
symplectic group GSp4 (dual of GSpin5); twisting by suitable sign elements
cuts out GO4 (dual side of GSpin4^alpha) and the rank-one group attached to
GSpin2^alpha x GSpin3.  The projection onto SO5 (dual of Sp4) is realized on
the second exterior power, with the invariant symplectic-form line split off
exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactlin import ExactMatrix, frac, matrix_equation_kernel, similitude_factor, ONE, ZERO

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


def theta_pinning_matrix(n: int = 4) -> ExactMatrix:
    """The antidiagonal matrix with alternating entries -1, 1, ... chosen so
    that conjugated inverse-transpose fixes the standard pinning of GL_n."""
    return ExactMatrix(
        [
            [(Fraction(-1) ** (i + 1) if j == n - 1 - i else ZERO) for j in range(n)]
            for i in range(n)
        ]
    )


THETA_J = theta_pinning_matrix(4)


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

    def __mul__(self, other: "DualElement") -> "DualElement":
        return DualElement(self.g * other.g, self.x * other.x)


@dataclass(frozen=True)
class ThetaTwist:
    """The twist (g, x) -> (J tg^-1 J^-1, x det g) on GL_n x GL1."""

    J: ExactMatrix

    def apply(self, e: DualElement) -> DualElement:
        d = e.g.det()
        if d == 0:
            raise ValueError("singular g")
        gt_inv = e.g.inverse().transpose()
        return DualElement(self.J * gt_inv * self.J.inverse(), e.x * d)

    def apply_dual(self, e: DualElement) -> DualElement:
        """The dual-side twist (g, x) -> (J tg^-1 J^-1 x, x)."""
        gt_inv = e.g.inverse().transpose()
        return DualElement((self.J * gt_inv * self.J.inverse()).scale(e.x), e.x)


STANDARD_TWIST = ThetaTwist(THETA_J)


def apply_theta(e: DualElement) -> DualElement:
    """theta(g, x) on GL4 x GL1; applying twice returns the input."""
    return STANDARD_TWIST.apply(e)


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

# Antidiagonal symmetric form used for odd special orthogonal groups.
def antidiag_ones(n: int) -> ExactMatrix:
    return ExactMatrix.antidiagonal([1] * n)


def embed_pair(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """(a, b) acting on the planes span(e1, e4) and span(e2, e3)."""
    m = [[ZERO] * 4 for _ in range(4)]
    for (i0, i1), blk in (((0, 3), a), ((1, 2), b)):
        m[i0][i0], m[i0][i1] = blk[0, 0], blk[0, 1]
        m[i1][i0], m[i1][i1] = blk[1, 0], blk[1, 1]
    return ExactMatrix(m)


def fixed_point_check(e: DualElement) -> bool:
    """True iff (g, x) is fixed by the dual twist, i.e. t(g) J g = x J."""
    return similitude_factor(e.g, THETA_J) == e.x


def gsp4_similitude(g: ExactMatrix) -> Fraction | None:
    return similitude_factor(g, THETA_J)


def std_rep(tag: GroupTag, e: DualElement) -> tuple[ExactMatrix, Fraction]:
    """Standard representation paired with the similitude/GL1 coordinate."""
    if tag.family in ("gspin_odd", "gspin_even"):
        form = THETA_J if tag.family == "gspin_odd" and tag.n == 2 else None
        if tag.family == "gspin_even" and tag.n == 2:
            form = GSO4_GRAM
        if form is not None:
            mu = similitude_factor(e.g, form)
            if mu is None:
                raise ValueError("element does not satisfy the tag invariant")
            return e.g, mu
        raise ValueError(f"unsupported rank for {tag.describe()}")
    if tag.family == "sp_gl1":
        n = tag.std_dim
        if similitude_factor(e.g, antidiag_ones(n)) != 1:
            raise ValueError("element does not satisfy the tag invariant")
        return e.g, e.x
    return e.g, e.x


# ---------------------------------------------------------------------------
# exterior square and the projection to SO5

_BIVECTOR_INDEX = [(i, j) for i, j in itertools.combinations(range(4), 2)]


def exterior_square(g: ExactMatrix) -> ExactMatrix:
    """Matrix of g acting on the 6-dimensional space of bivectors e_i ^ e_j."""
    if g.rows != 4 or g.cols != 4:
        raise ValueError("4x4 matrix required")
    out = []
    for (i, j) in _BIVECTOR_INDEX:
        row = []
        for (k, l) in _BIVECTOR_INDEX:
            row.append(g[i, k] * g[j, l] - g[i, l] * g[j, k])
        out.append(row)
    return ExactMatrix(out)


def _bivector_form() -> ExactMatrix:
    """Symmetric form on bivectors induced by the symplectic form:
    B(u^v, w^z) = J(u,w)J(v,z) - J(u,z)J(v,w)."""
    def j(a, b):
        return THETA_J[a, b]

    out = []
    for (i, jdx) in _BIVECTOR_INDEX:
        row = []
        for (k, l) in _BIVECTOR_INDEX:
            row.append(j(i, k) * j(jdx, l) - j(i, l) * j(jdx, k))
        out.append(row)
    return ExactMatrix(out)


BIVECTOR_FORM = _bivector_form()

# invariant line: the bivector of the inverse symplectic form (e1^e4 - e2^e3)
OMEGA = (ZERO, ZERO, ONE, -ONE, ZERO, ZERO)


def _omega_complement_basis() -> list[tuple]:
    functional = ExactMatrix([[sum(frac(OMEGA[k]) * BIVECTOR_FORM[k, c] for k in range(6)) for c in range(6)]])
    from .exactlin import kernel

    return kernel(functional)


OMEGA_COMPLEMENT = _omega_complement_basis()

# basis change [omega | complement] on the bivector space
SPLIT_BASIS = ExactMatrix.from_columns([list(OMEGA)] + [list(v) for v in OMEGA_COMPLEMENT])
_SPLIT_BASIS_INV = SPLIT_BASIS.inverse()


def _so5_gram() -> ExactMatrix:
    m = SPLIT_BASIS.transpose() * BIVECTOR_FORM * SPLIT_BASIS
    return ExactMatrix([[m[i, j] for j in range(1, 6)] for i in range(1, 6)])


SO5_GRAM = _so5_gram()


def project_to_so5(e: DualElement) -> ExactMatrix:
    """The 5x5 matrix induced on the complement of the invariant line by the
    exterior square divided by the similitude factor.

    Requires (g, x) in the symplectic similitude realization; the result is
    special orthogonal for SO5_GRAM.
    """
    if not fixed_point_check(e):
        raise ValueError("input is not in the symplectic similitude realization")
    f = exterior_square(e.g).scale(ONE / e.x)
    split = _SPLIT_BASIS_INV * f * SPLIT_BASIS
    # the invariant line must be exactly fixed
    if split[0, 0] != 1 or any(split[i, 0] != 0 for i in range(1, 6)) or any(
        split[0, j] != 0 for j in range(1, 6)
    ):
        raise ValueError("invariant-line split failed: non-symplectic input")
    return ExactMatrix([[split[i, j] for j in range(1, 6)] for i in range(1, 6)])


def embed_so4_block(x4: ExactMatrix) -> ExactMatrix:
    """Embed a 4x4 block acting on the tensor part of the bivector space into
    the 5x5 realization, fixing the second invariant line e1^e4 + e2^e3.

    Coordinates on the tensor part are the ordered bivectors
    e1^e2, e1^e3, e4^e2, e4^e3, matching Kronecker products a (x) b for a
    acting on span(e1, e4) and b on span(e2, e3)."""
    omega_prime = (ZERO, ZERO, ONE, ONE, ZERO, ZERO)
    tensor = [
        (ONE, ZERO, ZERO, ZERO, ZERO, ZERO),    # e1^e2
        (ZERO, ONE, ZERO, ZERO, ZERO, ZERO),    # e1^e3
        (ZERO, ZERO, ZERO, ZERO, -ONE, ZERO),   # e4^e2 = -(e2^e4)
        (ZERO, ZERO, ZERO, ZERO, ZERO, -ONE),   # e4^e3 = -(e3^e4)
    ]
    basis6 = ExactMatrix.from_columns([list(OMEGA), list(omega_prime)] + [list(t) for t in tensor])
    block6 = ExactMatrix.block_diagonal([ExactMatrix.identity(2), x4])
    full6 = basis6 * block6 * basis6.inverse()
    split = _SPLIT_BASIS_INV * full6 * SPLIT_BASIS
    if split[0, 0] != 1:
        raise ValueError("embedding does not fix the invariant line")
    return ExactMatrix([[split[i, j] for j in range(1, 6)] for i in range(1, 6)])


# ---------------------------------------------------------------------------
# pinning verification


@dataclass(frozen=True)
class PinningReport:
    ok: bool
    failures: tuple[str, ...]


def pinning_fixed_by_theta(j: ExactMatrix | None = None) -> PinningReport:
    """Check that the twist built from j preserves the upper-triangular Borel,
    the diagonal torus, and permutes the simple root vectors exactly."""
    j = THETA_J if j is None else j
    n = j.rows
    twist = ThetaTwist(j)
    failures: list[str] = []

    # diagonal torus: theta of a generic diagonal must be diagonal
    d = ExactMatrix.diagonal([frac(k + 2) for k in range(n)])
    td = twist.apply(DualElement(d, ONE)).g
    if any(td[a, b] != 0 for a in range(n) for b in range(n) if a != b):
        failures.append("torus")

    # Borel: theta of each elementary upper unipotent stays upper triangular,
    # and the simple root vectors are permuted with coefficient +1:
    # theta(1 + t E_{a,a+1}) must equal 1 + t E_{n-1-a, n-a}.
    for a in range(n - 1):
        e = [[ZERO] * n for _ in range(n)]
        e[a][a + 1] = ONE
        u = ExactMatrix.identity(n) + ExactMatrix(e)
        tu = twist.apply(DualElement(u, ONE)).g
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


_GSP4_NILPOTENTS = _gsp4_nilpotent_basis()


def sample_gsp4(rng, similitude: Fraction | None = None) -> DualElement:
    """Seeded exact sample of GSp4 with the requested similitude factor."""
    from .exactlin import matrix_exp_nilpotent

    x = frac(similitude) if similitude is not None else ONE
    a = frac(rng.randint(1, 5))
    b = frac(rng.randint(1, 5))
    g = ExactMatrix.diagonal([a, b, x / b, x / a])
    for _ in range(rng.randint(1, 3)):
        coeffs = [frac(rng.randint(-2, 2)) for _ in _GSP4_NILPOTENTS]
        nil = ExactMatrix.zeros(4, 4)
        for c, base in zip(coeffs, _GSP4_NILPOTENTS):
            nil = nil + base.scale(c)
        g = g * matrix_exp_nilpotent(nil)
        if rng.random() < 0.5:
            g = g * THETA_J
    out = DualElement(g, similitude_factor(g, THETA_J))
    assert fixed_point_check(out)
    return out


def sample_gl2(rng, det_value: Fraction) -> ExactMatrix:
    """Seeded 2x2 rational matrix with the prescribed determinant."""
    det_value = frac(det_value)
    while True:
        a, b, c = (frac(rng.randint(-3, 3)) for _ in range(3))
        if a != 0:
            d = (det_value + b * c) / a
            return ExactMatrix([[a, b], [c, d]])


def sample_gso4(rng) -> DualElement:
    """Seeded exact sample of GSO4 (similitude nu, det = nu^2) for the fixed
    Gram, paired with its similitude coordinate."""
    from .exactlin import QuadraticSpace

    space = QuadraticSpace(4, GSO4_GRAM)
    g = ExactMatrix.identity(4)
    for _ in range(2 * rng.randint(1, 2)):
        while True:
            v = tuple(frac(rng.randint(-3, 3)) for _ in range(4))
            if space.bilinear(v, v) != 0:
                break
        g = g * space.reflection(v)
    nu = frac(rng.randint(1, 4))
    a = frac(rng.randint(1, 4))
    b = frac(rng.randint(1, 4))
    g = g * ExactMatrix.diagonal([a, b, nu / b, nu / a])
    x = similitude_factor(g, GSO4_GRAM)
    assert x is not None and g.det() == x * x
    return DualElement(g, x)
