"""Exact linear algebra over the rationals.

Everything downstream (dual-group realizations, centralizer dimensions,
involution factorizations) reduces to kernels, determinants and
characteristic polynomials of small dense rational matrices.  No floating
point anywhere; dimensions in play never exceed 8 (65 unknowns for the
vectorised matrix equations), so dense elimination is all that is needed.

An ``ExactMatrix`` stores integer numerators over one positive common
denominator, and all arithmetic runs on Python integers: products and sums
normalise once per result, and ``det``, ``inverse`` and ``rref`` use
fraction-free elimination in the style of E. H. Bareiss, *Sylvester's
identity and multistep integer-preserving Gaussian elimination*, Math. Comp.
22 (1968).  ``Fraction`` is the API edge: entries, rows, traces,
determinants and the vectors returned by ``apply``, ``kernel`` and ``solve``
are Fractions, and constructors accept ints, strings like '3/4' and
Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
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


def _rational(x):
    """x as an int or a Fraction (both carry numerator and denominator)."""
    return x if isinstance(x, (int, Fraction)) else frac(x)


def _over_one_denominator(values: Iterable) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of the values."""
    vals = [_rational(x) for x in values]
    den = lcm(*(x.denominator for x in vals))
    if den == 1:
        return [x.numerator for x in vals], 1
    return [x.numerator * (den // x.denominator) for x in vals], den


def _canonical(num: tuple, den: int) -> tuple[tuple, int]:
    """Rows of numerators and a denominator with the denominator positive and
    gcd(every numerator, denominator) = 1."""
    if den < 0:
        num = tuple(tuple(-x for x in r) for r in num)
        den = -den
    if den != 1:
        g = den
        for r in num:
            g = gcd(g, *r)
            if g == 1:
                return num, den
        num = tuple(tuple(x // g for x in r) for r in num)
        den //= g
    return num, den


class ExactMatrix:
    """Dense rational matrix with value semantics.

    Stored as a tuple of integer row tuples over one positive denominator,
    kept canonical (gcd of every numerator and the denominator is 1), so
    equal matrices have equal storage.  Entries leave the class as
    ``Fraction``.
    """

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [[_rational(x) for x in row] for row in entries]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        den = lcm(*(x.denominator for r in rows for x in r))
        # over the least common denominator of reduced entries the numerators
        # already have no common factor with it
        self._num = tuple(tuple(x.numerator * (den // x.denominator) for x in r) for r in rows)
        self._den = den
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0

    @classmethod
    def _raw(cls, num: tuple, den: int, cols: int) -> "ExactMatrix":
        """A matrix from row tuples of ints and a denominator that are
        already canonical."""
        m = object.__new__(cls)
        m._num = num
        m._den = den
        m.rows = len(num)
        m.cols = cols if num else 0
        return m

    @classmethod
    def _make(cls, num: tuple, den: int, cols: int) -> "ExactMatrix":
        """A matrix from a tuple of integer row tuples and a nonzero
        denominator, normalised."""
        num, den = _canonical(num, den)
        return cls._raw(num, den, cols)

    # construction -----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix._raw(
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1, n
        )

    @staticmethod
    def zeros(r: int, c: int) -> "ExactMatrix":
        return ExactMatrix._raw(tuple((0,) * c for _ in range(r)), 1, c)

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
        m = sum(b.cols for b in blocks)
        den = lcm(*(b._den for b in blocks))
        out = []
        j0 = 0
        for b in blocks:
            f = den // b._den
            for r in b._num:
                out.append((0,) * j0 + tuple(x * f for x in r) + (0,) * (m - j0 - b.cols))
            j0 += b.cols
        return ExactMatrix._make(tuple(out), den, m)

    @staticmethod
    def from_columns(columns: Sequence[Sequence]) -> "ExactMatrix":
        cols = [[_rational(x) for x in c] for c in columns]
        if not cols or any(len(c) != len(cols[0]) for c in cols):
            raise ValueError("columns must be a nonempty list of equal lengths")
        # over the least common denominator of reduced entries the numerators
        # already have no common factor with it
        den = lcm(*(x.denominator for c in cols for x in c))
        num = zip(*([x.numerator * (den // x.denominator) for x in c] for c in cols))
        return ExactMatrix._raw(tuple(num), den, len(cols))

    # accessors: entries leave as Fractions -----------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self._num[i][j], self._den)

    def row(self, i: int) -> tuple:
        d = self._den
        return tuple(Fraction(x, d) for x in self._num[i])

    def column(self, j: int) -> tuple:
        d = self._den
        return tuple(Fraction(r[j], d) for r in self._num)

    def entries(self) -> tuple:
        d = self._den
        return tuple(tuple(Fraction(x, d) for x in r) for r in self._num)

    def tolist(self) -> list:
        return [list(r) for r in self.entries()]

    # algebra -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self._num, self._den))

    def _combine(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        """self + sign * other."""
        self._check_same_shape(other)
        den = lcm(self._den, other._den)
        f1, f2 = den // self._den, sign * (den // other._den)
        num = tuple(
            tuple([f1 * a + f2 * b for a, b in zip(r1, r2)])
            for r1, r2 in zip(self._num, other._num)
        )
        return ExactMatrix._make(num, den, self.cols)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "ExactMatrix":
        num = tuple(tuple(-a for a in r) for r in self._num)
        return ExactMatrix._raw(num, self._den, self.cols)

    def scale(self, s) -> "ExactMatrix":
        s = _rational(s)
        p, q = s.numerator, s.denominator
        return ExactMatrix._make(
            tuple(tuple([p * a for a in r]) for r in self._num), q * self._den, self.cols
        )

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            return _matmul(self, other)
        if isinstance(other, (tuple, list)):
            return self.apply(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, v: Sequence) -> tuple:
        vec, vd = _over_one_denominator(v)
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        den = self._den * vd
        return tuple(Fraction(sum(map(mul, row, vec)), den) for row in self._num)

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
        if not self.rows:
            return self
        return ExactMatrix._raw(tuple(zip(*self._num)), self._den, self.rows)

    def trace(self) -> Fraction:
        return Fraction(sum(self._num[i][i] for i in range(self.rows)), self._den)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return self.is_square() and self.transpose() == -self

    def is_zero(self) -> bool:
        return not any(any(r) for r in self._num)

    def det(self) -> Fraction:
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        a = [list(r) for r in self._num]
        pivots, last, swaps = _eliminate(a, n, jordan=False)
        if len(pivots) < n:
            return ZERO
        return Fraction(-last if swaps % 2 else last, self._den**n)

    def inverse(self) -> "ExactMatrix":
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self._num)]
        pivots, last, _ = _eliminate(a, n, jordan=True)
        if len(pivots) < n:
            raise ValueError("singular matrix")
        # [num | 1] reduces to [last 1 | last num^-1], and self^-1 = den num^-1
        d = self._den
        return ExactMatrix._make(tuple(tuple([x * d for x in r[n:]]) for r in a), last, n)

    def charpoly(self) -> list:
        """Coefficients of det(xI - A), ascending degree, via Faddeev-LeVerrier
        on the integer numerators (A = num / den has the coefficient of
        x^(n-k) of num divided by den^k)."""
        if not self.is_square():
            raise ValueError("charpoly of non-square matrix")
        n = self.rows
        numerators = ExactMatrix._raw(self._num, 1, n)
        coeffs = [ZERO] * (n + 1)
        coeffs[n] = ONE
        m = ExactMatrix.identity(n)
        den_power = 1
        for k in range(1, n + 1):
            m = numerators * m
            c = -sum(m._num[i][i] for i in range(n)) // k  # exact: an integer coefficient
            den_power *= self._den
            coeffs[n - k] = Fraction(c, den_power)
            m = m + ExactMatrix.identity(n).scale(c)
        return coeffs

    def _check_same_shape(self, other: "ExactMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries())
        return f"ExactMatrix[{body}]"


def _matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    b_cols = list(zip(*b._num))
    num = tuple(tuple([sum(map(mul, row, col)) for col in b_cols]) for row in a._num)
    return ExactMatrix._make(num, a._den * b._den, b.cols)


def _eliminate(a: list[list[int]], ncols: int, jordan: bool) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) elimination of the integer rows a, in place,
    on the first ncols columns.

    With jordan set, every other row is cleared in each pivot column and
    the pivot rows end as last * (reduced row echelon form); otherwise only
    the rows below are cleared and last is the determinant of the pivot
    minor up to the sign (-1)^swaps.  Returns (pivot columns, last, swaps).

    Bareiss's step k replaces each other row by (p_k row - f pivot_row) /
    p_(k-1), an exact division; a row with f = 0 would only be multiplied
    by p_k / p_(k-1).  That rescaling is deferred: a row remembers the step
    at which it was last written, and when it is next combined it is divided
    by the pivot of that step instead, which equals rescaling it first.
    """
    nr = len(a)
    piv_vals = [1]  # piv_vals[k] is the pivot of step k
    written = [0] * nr  # row i holds its values of step written[i]
    pivots: list[int] = []
    swaps = 0
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        i0 = next((i for i in range(r, nr) if a[i][c]), None)
        if i0 is None:
            continue
        if i0 != r:
            a[r], a[i0] = a[i0], a[r]
            written[r], written[i0] = written[i0], written[r]
            swaps += 1
        step = len(piv_vals)
        prev = piv_vals[-1]
        prow = a[r]
        if written[r] != step - 1:
            prow = a[r] = [x * prev // piv_vals[written[r]] for x in prow]
        written[r] = step
        p = prow[c]
        for i in range(0 if jordan else r + 1, nr):
            row = a[i]
            f = row[c]
            if f and i != r:
                d = piv_vals[written[i]]
                if d == 1:
                    a[i] = [p * x - f * y for x, y in zip(row, prow)]
                else:
                    a[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
                written[i] = step
        piv_vals.append(p)
        pivots.append(c)
        r += 1
    last = piv_vals[-1]
    if jordan:
        for i in range(r):
            if written[i] != len(piv_vals) - 1:
                a[i] = [x * last // piv_vals[written[i]] for x in a[i]]
    return pivots, last, swaps


# ---------------------------------------------------------------------------
# row reduction, kernels, solving


def rref(m: ExactMatrix) -> tuple[ExactMatrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    a = [list(r) for r in m._num]
    pivots, last, _ = _eliminate(a, m.cols, jordan=True)
    zero = (0,) * m.cols
    num = tuple(tuple(a[i]) if i < len(pivots) else zero for i in range(m.rows))
    return ExactMatrix._make(num, last, m.cols), pivots


def rank(m: ExactMatrix) -> int:
    return len(rref(m)[1])


def kernel(m: ExactMatrix) -> list[tuple]:
    """Basis of the right kernel {v : m v = 0}, as tuples of Fractions."""
    red, pivots = rref(m)
    num, den = red._num, red._den
    nc = m.cols
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * nc
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = Fraction(-num[r][f], den)
        basis.append(tuple(v))
    return basis


def generalized_kernel(m: ExactMatrix) -> list[tuple]:
    """Basis of the generalized kernel of a square m: the kernel of the power
    of m at which the kernels stop growing, so an invertible m returns after
    one kernel.  It is the basis ``kernel(m ** m.rows)`` gives, since a kernel
    basis depends on the subspace alone."""
    power, prev = m, kernel(m)
    while prev and len(prev) < m.rows:
        power = power * m
        nxt = kernel(power)
        if len(nxt) == len(prev):
            break
        prev = nxt
    return prev


def solve(a: ExactMatrix, b: Sequence) -> tuple | None:
    """One solution of a x = b, or None if inconsistent."""
    bnum, bden = _over_one_denominator(b)
    # a x = b  <=>  (bden num(a)) x = den(a) bnum
    aug = tuple(tuple([x * bden for x in r] + [bnum[i] * a._den]) for i, r in enumerate(a._num))
    red, pivots = rref(ExactMatrix._make(aug, 1, a.cols + 1))
    if a.cols in pivots:
        return None
    num, den = red._num, red._den
    x = [ZERO] * a.cols
    for r, p in enumerate(pivots):
        x[p] = Fraction(num[r][a.cols], den)
    return tuple(x)


def span_basis(vectors: Sequence[Sequence]) -> list[tuple]:
    """Reduced basis of the span of the given vectors."""
    # rescaling a vector leaves the span alone, so each row is cleared of
    # its own denominators
    rows = tuple(tuple(num) for num, _ in map(_over_one_denominator, vectors) if any(num))
    if not rows:
        return []
    red, pivots = rref(ExactMatrix._make(rows, 1, len(rows[0])))
    return [red.row(i) for i in range(len(pivots))]


def in_span(v: Sequence, basis: Sequence[Sequence]) -> bool:
    if not basis:
        return all(frac(x) == 0 for x in v)
    m = ExactMatrix.from_columns(list(basis))
    return solve(m, v) is not None


def restrict_to(m: ExactMatrix, basis: Sequence[Sequence]) -> ExactMatrix:
    """Matrix of m on the span of basis, in the basis coordinates.

    One elimination of [span | m span]: the basis is independent and its
    span invariant exactly when the pivots are the first k columns, and the
    right-hand block of the first k rows then holds the coordinates."""
    span = ExactMatrix.from_columns(basis)
    image = _matmul(m, span)
    k = span.cols
    aug = tuple(
        tuple([x * image._den for x in r] + [y * span._den for y in s])
        for r, s in zip(span._num, image._num)
    )
    red, pivots = rref(ExactMatrix._make(aug, 1, 2 * k))
    if pivots != list(range(k)):
        raise ValueError("subspace is not invariant")
    return ExactMatrix._make(tuple(r[k:] for r in red._num[:k]), red._den, k)


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
    is vec(a X b) = (a kron tb) vec(X) for row-major vec.  Each equation's
    rows are scaled to integers by the common denominator of its terms.
    """
    if not equations or not equations[0]:
        raise ValueError("need at least one equation")
    n = equations[0][0][0].rows

    def check_size(m: ExactMatrix) -> None:
        if m.rows != n or m.cols != n:
            raise ValueError(f"expected a {n} x {n} matrix")

    if scalar is not None:
        check_size(scalar)
    width = n * n + (scalar is not None)
    rows = []
    for index, terms in enumerate(equations):
        dens = [a._den * b._den for a, _, b in terms]
        if index == 0 and scalar is not None:
            dens.append(scalar._den)
        den = lcm(*dens)
        block = [[0] * width for _ in range(n * n)]
        for a, which, b in terms:
            if which not in ("X", "Xt"):
                raise ValueError(f"unknown term {which!r}")
            check_size(a)
            check_size(b)
            f = den // (a._den * b._den)
            for i, a_row in enumerate(a._num):
                for k, a_ik in enumerate(a_row):
                    if not a_ik:
                        continue
                    a_ik *= f
                    for l, b_row in enumerate(b._num):
                        col = l * n + k if which == "Xt" else k * n + l
                        for j, b_lj in enumerate(b_row):
                            if b_lj:
                                block[i * n + j][col] += a_ik * b_lj
        if index == 0 and scalar is not None:
            f = den // scalar._den
            for r, x in enumerate(x for c_row in scalar._num for x in c_row):
                block[r][n * n] -= f * x
        rows.extend(block)
    for c in functionals:
        check_size(c)
        rows.append([x for c_row in c._num for x in c_row] + [0] * (width - n * n))
    basis = kernel(ExactMatrix._make(tuple(map(tuple, rows)), 1, width))

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
    num = tuple(
        tuple([x * y for x in a_row for y in b_row])
        for a_row in a._num
        for b_row in b._num
    )
    return ExactMatrix._make(num, a._den * b._den, a.cols * b.cols)


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
    ints, _ = _over_one_denominator(cs)
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
        parts.append((lam, generalized_kernel(g - ExactMatrix.identity(n).scale(lam))))
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


def bilinear(form: ExactMatrix, u: Sequence, v: Sequence) -> Fraction:
    """The pairing tu form v."""
    un, ud = _over_one_denominator(u)
    vn, vd = _over_one_denominator(v)
    total = sum(x * sum(map(mul, row, vn)) for x, row in zip(un, form._num) if x)
    return Fraction(total, form._den * ud * vd)


def pairing_matrix(form: ExactMatrix, us: Sequence[Sequence], vs: Sequence[Sequence]) -> ExactMatrix:
    """The matrix of pairings tu form v, one row per u and one column per v:
    the product tU form V of the matrices with columns us and vs."""
    if not us or not vs:
        return ExactMatrix([[] for _ in us])
    return _matmul(_matmul(ExactMatrix(us), form), ExactMatrix.from_columns(vs))


def similitude_factor(g: ExactMatrix, form: ExactMatrix) -> Fraction | None:
    """nu with t(g) form g = nu form, or None if g is not a similitude."""
    lhs = g.transpose() * form * g
    # the first nonzero entry of the form fixes nu; then num(lhs) f0 must
    # equal num(form) l0 entrywise, with f0 and l0 the numerators there
    first = next(((i, j) for i, r in enumerate(form._num) for j, x in enumerate(r) if x), None)
    if first is None:
        return None
    i, j = first
    f0, l0 = form._num[i][j], lhs._num[i][j]
    if any(
        x * f0 != y * l0
        for r_lhs, r_form in zip(lhs._num, form._num)
        for x, y in zip(r_lhs, r_form)
    ):
        return None
    return Fraction(l0 * form._den, f0 * lhs._den)


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
        """Reflection in the non-isotropic vector v; lies in O(gram), det -1.

        It is (q I - 2 v t(G v)) / q with q = t(v) G v, and rescaling v does
        not change it, so it is computed on the numerators of v and of G."""
        vec, _ = _over_one_denominator(v)
        if len(vec) != self.dim:
            raise ValueError("shape mismatch")
        gv = [sum(map(mul, row, vec)) for row in self.gram._num]
        q = sum(map(mul, vec, gv))
        if q == 0:
            raise ValueError("cannot reflect in an isotropic vector")
        num = tuple(
            tuple([q * (i == j) - 2 * a * b for j, b in enumerate(gv)])
            for i, a in enumerate(vec)
        )
        return ExactMatrix._make(num, q, self.dim)

    def similitude_factor(self, g: ExactMatrix) -> Fraction | None:
        """nu with t(g) gram g = nu gram, or None if g is not a similitude."""
        return similitude_factor(g, self.gram)
