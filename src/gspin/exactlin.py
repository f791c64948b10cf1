"""Exact linear algebra over the rationals.

Everything downstream (dual-group realizations, centralizer dimensions,
involution factorizations) reduces to kernels, determinants and
characteristic polynomials of small dense matrices with Fraction entries.
No floating point anywhere; dimensions in play never exceed 8, so dense
Gaussian elimination is all that is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class ExactMatrix:
    """Dense matrix over Fraction with value semantics."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(frac(x) for x in row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self._e = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0

    # construction -----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(r: int, c: int) -> "ExactMatrix":
        return ExactMatrix([[ZERO] * c for _ in range(r)])

    @staticmethod
    def diagonal(values: Iterable) -> "ExactMatrix":
        vals = [frac(v) for v in values]
        n = len(vals)
        return ExactMatrix([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def antidiagonal(values: Iterable) -> "ExactMatrix":
        vals = [frac(v) for v in values]
        n = len(vals)
        return ExactMatrix([[vals[i] if j == n - 1 - i else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def block_diagonal(blocks: Sequence["ExactMatrix"]) -> "ExactMatrix":
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        out = [[ZERO] * m for _ in range(n)]
        i0 = j0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[i0 + i][j0 + j] = b[i, j]
            i0 += b.rows
            j0 += b.cols
        return ExactMatrix(out)

    @staticmethod
    def from_columns(columns: Sequence[Sequence]) -> "ExactMatrix":
        cols = [tuple(frac(x) for x in c) for c in columns]
        n = len(cols[0])
        return ExactMatrix([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    # accessors ---------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._e[i][j]

    def row(self, i: int) -> tuple:
        return self._e[i]

    def column(self, j: int) -> tuple:
        return tuple(self._e[i][j] for i in range(self.rows))

    def entries(self) -> tuple:
        return self._e

    def tolist(self) -> list:
        return [list(r) for r in self._e]

    # algebra -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactMatrix) and self._e == other._e

    def __hash__(self):
        return hash(self._e)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._e, other._e)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._e, other._e)])

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[-a for a in r] for r in self._e])

    def scale(self, s) -> "ExactMatrix":
        s = frac(s)
        return ExactMatrix([[s * a for a in r] for r in self._e])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            oT = list(zip(*other._e))
            return ExactMatrix(
                [[sum((a * b for a, b in zip(row, col)), ZERO) for col in oT] for row in self._e]
            )
        if isinstance(other, (tuple, list)):
            return self.apply(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, v: Sequence) -> tuple:
        vec = [frac(x) for x in v]
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum((a * x for a, x in zip(row, vec)), ZERO) for row in self._e)

    def __pow__(self, k: int) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        if k < 0:
            return self.inverse() ** (-k)
        out = ExactMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self._e))) if self.rows else self

    def trace(self) -> Fraction:
        return sum((self._e[i][i] for i in range(self.rows)), ZERO)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return self.is_square() and self.transpose() == -self

    def is_zero(self) -> bool:
        return all(a == 0 for r in self._e for a in r)

    def det(self) -> Fraction:
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        m = [list(r) for r in self._e]
        det = ONE
        for c in range(n):
            piv = next((r for r in range(c, n) if m[r][c] != 0), None)
            if piv is None:
                return ZERO
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det *= m[c][c]
            inv = ONE / m[c][c]
            for r in range(c + 1, n):
                if m[r][c] == 0:
                    continue
                f = m[r][c] * inv
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
        return det

    def inverse(self) -> "ExactMatrix":
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        m = [list(r) + [ONE if i == j else ZERO for j in range(n)] for i, r in enumerate(self._e)]
        for c in range(n):
            piv = next((r for r in range(c, n) if m[r][c] != 0), None)
            if piv is None:
                raise ValueError("singular matrix")
            m[c], m[piv] = m[piv], m[c]
            inv = ONE / m[c][c]
            m[c] = [x * inv for x in m[c]]
            for r in range(n):
                if r != c and m[r][c] != 0:
                    f = m[r][c]
                    m[r] = [x - f * y for x, y in zip(m[r], m[c])]
        return ExactMatrix([row[n:] for row in m])

    def charpoly(self) -> list:
        """Coefficients of det(xI - A), ascending degree, via Faddeev-LeVerrier."""
        if not self.is_square():
            raise ValueError("charpoly of non-square matrix")
        n = self.rows
        coeffs = [ZERO] * (n + 1)
        coeffs[n] = ONE
        m = ExactMatrix.identity(n)
        for k in range(1, n + 1):
            m = self * m
            c = -m.trace() / k
            coeffs[n - k] = c
            m = m + ExactMatrix.identity(n).scale(c)
        return coeffs

    def _check_same_shape(self, other: "ExactMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self._e)
        return f"ExactMatrix[{body}]"


# ---------------------------------------------------------------------------
# row reduction, kernels, solving


def rref(m: ExactMatrix) -> tuple[ExactMatrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    a = [list(r) for r in m.entries()]
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = ONE / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return ExactMatrix(a), pivots


def rank(m: ExactMatrix) -> int:
    return len(rref(m)[1])


def kernel(m: ExactMatrix) -> list[tuple]:
    """Basis of the right kernel {v : m v = 0}, as tuples of Fractions."""
    red, pivots = rref(m)
    nc = m.cols
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * nc
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r, f]
        basis.append(tuple(v))
    return basis


def solve(a: ExactMatrix, b: Sequence) -> tuple | None:
    """One solution of a x = b, or None if inconsistent."""
    bvec = [frac(x) for x in b]
    aug = ExactMatrix([list(r) + [bvec[i]] for i, r in enumerate(a.entries())])
    red, pivots = rref(aug)
    if a.cols in pivots:
        return None
    x = [ZERO] * a.cols
    for r, p in enumerate(pivots):
        x[p] = red[r, a.cols]
    return tuple(x)


def span_basis(vectors: Sequence[Sequence]) -> list[tuple]:
    """Reduced basis of the span of the given vectors."""
    vecs = [tuple(frac(x) for x in v) for v in vectors if any(frac(x) != 0 for x in v)]
    if not vecs:
        return []
    red, pivots = rref(ExactMatrix(vecs))
    return [red.row(i) for i in range(len(pivots))]


def in_span(v: Sequence, basis: Sequence[Sequence]) -> bool:
    if not basis:
        return all(frac(x) == 0 for x in v)
    m = ExactMatrix.from_columns(list(basis))
    return solve(m, v) is not None


def restrict_to(m: ExactMatrix, basis: Sequence[Sequence]) -> ExactMatrix:
    """Matrix of m on the span of basis, in the basis coordinates."""
    span = ExactMatrix.from_columns([list(v) for v in basis])
    cols = []
    for v in basis:
        coords = solve(span, m.apply(v))
        if coords is None:
            raise ValueError("subspace is not invariant")
        cols.append(list(coords))
    return ExactMatrix.from_columns(cols)


def vec_add(u: Sequence, v: Sequence) -> tuple:
    return tuple(frac(a) + frac(b) for a, b in zip(u, v))


def vec_scale(s, v: Sequence) -> tuple:
    s = frac(s)
    return tuple(s * frac(a) for a in v)


# ---------------------------------------------------------------------------
# linear matrix equations and commutants


def matrix_equation_kernel(
    equations: Sequence[Sequence[tuple]],
    functionals: Sequence[ExactMatrix] = (),
    scalar: ExactMatrix | None = None,
) -> list:
    """Basis of the n x n matrices X solving a homogeneous linear system.

    Each equation is a sequence of terms whose sum is set to zero; a term
    (a, "X", b) stands for a X b and (a, "Xt", b) for a tX b, with a and b
    n x n.  Each functional c imposes sum_ij c[i,j] X[i,j] = 0.  Given an
    n x n matrix scalar = c, a scalar unknown t joins X, the first equation
    reads (sum of its terms) = t c, and the basis is of pairs (X, t).

    The unknowns are X[0,0], X[0,1], ..., X[n-1,n-1] in row-major order, then
    t; the row of (a X b)[i,j] holds a[i,k] b[l,j] at X[k,l], i.e. the system
    is vec(a X b) = (a kron tb) vec(X) for row-major vec.
    """
    if not equations or not equations[0]:
        raise ValueError("need at least one equation")
    n = equations[0][0][0].rows

    def check_size(m: ExactMatrix) -> None:
        if m.rows != n or m.cols != n:
            raise ValueError(f"expected a {n} x {n} matrix")

    width = n * n + (scalar is not None)
    rows = []
    for terms in equations:
        block = [[ZERO] * width for _ in range(n * n)]
        for a, which, b in terms:
            if which not in ("X", "Xt"):
                raise ValueError(f"unknown term {which!r}")
            check_size(a)
            check_size(b)
            for i, a_row in enumerate(a.entries()):
                for k, a_ik in enumerate(a_row):
                    if not a_ik:
                        continue
                    for l, b_row in enumerate(b.entries()):
                        col = l * n + k if which == "Xt" else k * n + l
                        for j, b_lj in enumerate(b_row):
                            if b_lj:
                                block[i * n + j][col] += a_ik * b_lj
        rows.extend(block)
    if scalar is not None:
        check_size(scalar)
        for r, x in enumerate(x for c_row in scalar.entries() for x in c_row):
            rows[r][n * n] -= x
    for c in functionals:
        check_size(c)
        rows.append([x for c_row in c.entries() for x in c_row] + [ZERO] * (width - n * n))
    basis = kernel(ExactMatrix(rows))

    def unflatten(v):
        return ExactMatrix([v[i * n : i * n + n] for i in range(n)])

    if scalar is None:
        return [unflatten(v) for v in basis]
    return [(unflatten(v), v[n * n]) for v in basis]


def commutant_basis(
    generators: Sequence[ExactMatrix],
    ambient: Sequence[ExactMatrix] | None = None,
) -> list[ExactMatrix]:
    """Basis of {X : Xg = gX for all generators g} intersected with the
    linear subspace cut out by the ambient constraint matrices.

    Each ambient constraint C imposes sum_ij C[i,j] X[i,j] = 0.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].rows
    for g in generators:
        if not g.is_square() or g.rows != n:
            raise ValueError("generators must be square of equal size")
    ident = ExactMatrix.identity(n)
    return matrix_equation_kernel(
        [[(ident, "X", g), (-g, "X", ident)] for g in generators], ambient or ()
    )


def commutant_dimension(
    generators: Sequence[ExactMatrix],
    ambient: Sequence[ExactMatrix] | None = None,
) -> int:
    """dim {X in ambient : Xg = gX for all generators g}."""
    return len(commutant_basis(generators, ambient))


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product a (x) b."""
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            out.append([a[i, j] * b[k, l] for j in range(a.cols) for l in range(b.cols)])
    return ExactMatrix(out)


# ---------------------------------------------------------------------------
# polynomials (coefficient lists, ascending degree)


def poly_eval_matrix(coeffs: Sequence[Fraction], a: ExactMatrix) -> ExactMatrix:
    out = ExactMatrix.zeros(a.rows, a.cols)
    power = ExactMatrix.identity(a.rows)
    for c in coeffs:
        if c != 0:
            out = out + power.scale(c)
        power = power * a
    return out


def poly_divmod(num: Sequence[Fraction], den: Sequence[Fraction]) -> tuple[list, list]:
    num = [frac(c) for c in num]
    den = [frac(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [ZERO] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    dlead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        if len(rem) < len(den) + k:
            continue
        coeff = rem[len(den) + k - 1] / dlead
        quot[k] = coeff
        if coeff != 0:
            for i, d in enumerate(den):
                rem[i + k] -= coeff * d
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of the polynomial, without multiplicity."""
    cs = [frac(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial")
    # strip trailing x-powers: x = 0 roots
    roots = []
    low = 0
    while cs[low] == 0:
        low += 1
    if low:
        roots.append(ZERO)
        cs = cs[low:]
    if len(cs) == 1:
        return roots
    denom_lcm = 1
    for c in cs:
        denom_lcm = denom_lcm * c.denominator // _gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in cs]
    a0, an = ints[0], ints[-1]
    for p in _divisors(abs(a0)):
        for q in _divisors(abs(an)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and _poly_eval(cs, cand) == 0:
                    roots.append(cand)
    return roots


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    out = ZERO
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_eigensplit(g: ExactMatrix) -> tuple[list[tuple[Fraction, list[tuple]]], list[tuple]]:
    """Primary decomposition restricted to rational eigenvalues.

    Returns ([(eigenvalue, generalized eigenspace basis), ...], irrational part
    basis).  The subspaces are g-invariant and direct-sum to the full space.
    """
    if not g.is_square():
        raise ValueError("square matrix required")
    n = g.rows
    cp = g.charpoly()
    parts = []
    remaining = list(cp)
    for lam in sorted(rational_roots(cp)):
        power = ExactMatrix.identity(n)
        shifted = g - ExactMatrix.identity(n).scale(lam)
        basis = kernel(shifted ** n)
        parts.append((lam, basis))
        while True:
            quot, rem = poly_divmod(remaining, [-lam, ONE])
            if rem:
                break
            remaining = quot
    irrational = kernel(poly_eval_matrix(remaining, g)) if len(remaining) > 1 else []
    return parts, irrational


def is_rational_square(x: Fraction) -> tuple[bool, Fraction | None]:
    """Exact square test; returns (True, sqrt) with sqrt > 0 when x is a square."""
    x = frac(x)
    if x < 0:
        return False, None
    if x == 0:
        return True, ZERO
    pn = _isqrt_exact(x.numerator)
    pd = _isqrt_exact(x.denominator)
    if pn is None or pd is None:
        return False, None
    return True, Fraction(pn, pd)


def _isqrt_exact(n: int) -> int | None:
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


# ---------------------------------------------------------------------------
# nilpotent/unipotent exponentials


def matrix_exp_nilpotent(n: ExactMatrix) -> ExactMatrix:
    """exp of a nilpotent matrix (finite sum); raises if not nilpotent."""
    size = n.rows
    out = ExactMatrix.identity(size)
    term = ExactMatrix.identity(size)
    for k in range(1, size + 1):
        term = term * n
        if term.is_zero():
            return out
        out = out + term.scale(Fraction(1, _factorial(k)))
    if not (n ** size).is_zero():
        raise ValueError("matrix is not nilpotent")
    return out


def matrix_log_unipotent(u: ExactMatrix) -> ExactMatrix:
    """log of a unipotent matrix (finite sum); raises if u - 1 not nilpotent."""
    size = u.rows
    n = u - ExactMatrix.identity(size)
    if not (n ** size).is_zero():
        raise ValueError("matrix is not unipotent")
    out = ExactMatrix.zeros(size, size)
    term = ExactMatrix.identity(size)
    for k in range(1, size + 1):
        term = term * n
        if term.is_zero():
            break
        out = out + term.scale(Fraction((-1) ** (k + 1), k))
    return out


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


# ---------------------------------------------------------------------------
# bilinear forms and quadratic spaces


def _dot(u: Sequence, w: Sequence) -> Fraction:
    return sum((frac(a) * b for a, b in zip(u, w)), ZERO)


def bilinear(form: ExactMatrix, u: Sequence, v: Sequence) -> Fraction:
    """The pairing tu form v."""
    return _dot(u, form.apply(v))


def pairing_matrix(form: ExactMatrix, us: Sequence[Sequence], vs: Sequence[Sequence]) -> ExactMatrix:
    """The matrix of pairings tu form v, one row per u and one column per v."""
    form_vs = [form.apply(v) for v in vs]
    return ExactMatrix([[_dot(u, fv) for fv in form_vs] for u in us])


def similitude_factor(g: ExactMatrix, form: ExactMatrix) -> Fraction | None:
    """nu with t(g) form g = nu form, or None if g is not a similitude."""
    lhs = g.transpose() * form * g
    nu = None
    for i in range(form.rows):
        for j in range(form.cols):
            if form[i, j] != 0:
                cand = lhs[i, j] / form[i, j]
                if nu is None:
                    nu = cand
                elif nu != cand:
                    return None
            elif lhs[i, j] != 0:
                return None
    return nu


@dataclass(frozen=True)
class QuadraticSpace:
    """Even-dimensional quadratic space with a symmetric invertible Gram matrix."""

    dim: int
    gram: ExactMatrix

    def __post_init__(self):
        if self.dim % 2 != 0:
            raise ValueError("dimension must be even")
        if self.gram.rows != self.dim or not self.gram.is_symmetric():
            raise ValueError("gram must be symmetric of the stated dimension")
        if self.gram.det() == 0:
            raise ValueError("gram must be invertible")

    def bilinear(self, u: Sequence, v: Sequence) -> Fraction:
        return bilinear(self.gram, u, v)

    def reflection(self, v: Sequence) -> ExactMatrix:
        """Reflection in the non-isotropic vector v; lies in O(gram), det -1."""
        q = self.bilinear(v, v)
        if q == 0:
            raise ValueError("cannot reflect in an isotropic vector")
        n = self.dim
        cols = []
        for j in range(n):
            e = [ZERO] * n
            e[j] = ONE
            coef = 2 * self.bilinear(e, v) / q
            cols.append([e[i] - coef * frac(v[i]) for i in range(n)])
        return ExactMatrix.from_columns(cols)

    def similitude_factor(self, g: ExactMatrix) -> Fraction | None:
        """nu with t(g) gram g = nu gram, or None if g is not a similitude."""
        return similitude_factor(g, self.gram)
