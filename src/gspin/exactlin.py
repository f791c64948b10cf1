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
22 (1968).

A set of vectors is always a column frame: one matrix whose columns are the
vectors.  ``kernel``, ``generalized_kernel``, ``span_basis`` and ``krylov``
return frames, ``rational_eigensplit`` one per rational eigenvalue, and
``restrict_to`` and ``pairing_matrix`` take them.  ``Fraction`` is the edge
where a value leaves the module: entries, traces, determinants and the
results of ``apply``, ``solve`` and ``bilinear`` are Fractions, and
constructors accept ints, strings like '3/4' and Fractions.  A scalar
multiple is ``scale``: ``*`` takes a matrix or a vector, never a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence

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
        m.cols = cols
        return m

    @classmethod
    def _make(cls, num: tuple, den: int, cols: int) -> "ExactMatrix":
        """A matrix from a tuple of integer row tuples and a nonzero
        denominator, normalised."""
        num, den = _canonical(num, den)
        return cls._raw(num, den, cols)

    # construction -----------------------------------------------------

    @staticmethod
    @cache
    def identity(n: int) -> "ExactMatrix":
        """The n x n identity, one shared instance per n (matrices are
        immutable)."""
        return ExactMatrix._raw(
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1, n
        )

    @staticmethod
    def zeros(r: int, c: int) -> "ExactMatrix":
        return ExactMatrix._raw(tuple((0,) * c for _ in range(r)), 1, c)

    @staticmethod
    def diagonal(values: Iterable) -> "ExactMatrix":
        # over the least common denominator of reduced entries the numerators
        # already have no common factor with it
        nums, den = _over_one_denominator(values)
        n = len(nums)
        return ExactMatrix._raw(
            tuple(tuple([nums[i] if i == j else 0 for j in range(n)]) for i in range(n)), den, n
        )

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
    def hstack(blocks: Sequence["ExactMatrix"]) -> "ExactMatrix":
        """The columns of equally tall blocks, side by side."""
        den = lcm(*(b._den for b in blocks))
        # each block is canonical, so no prime of den divides every numerator
        rows = zip(*(tuple(tuple([x * (den // b._den) for x in r]) for r in b._num) for b in blocks))
        return ExactMatrix._raw(tuple(sum(r, ()) for r in rows), den, sum(b.cols for b in blocks))

    # accessors: entries leave as Fractions -----------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self._num[i][j], self._den)

    def columns(self, start: int, stop: int) -> "ExactMatrix":
        """The columns start, ..., stop - 1, as a matrix."""
        return ExactMatrix._make(tuple(r[start:stop] for r in self._num), self._den, stop - start)

    def entries(self) -> tuple:
        d = self._den
        return tuple(tuple(Fraction(x, d) for x in r) for r in self._num)

    # algebra -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.cols == other.cols
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
        """The product with a matrix, or the image of a vector (a tuple or a
        list); a number is refused, since ``scale`` is its one spelling."""
        if isinstance(other, ExactMatrix):
            return _matmul(self, other)
        if isinstance(other, (tuple, list)):
            return self.apply(other)
        return NotImplemented

    def apply(self, v: Sequence) -> tuple:
        vec, vd = _over_one_denominator(v)
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        den = self._den * vd
        return tuple(Fraction(sum(map(mul, row, vec)), den) for row in self._num)

    def transpose(self) -> "ExactMatrix":
        num = tuple(zip(*self._num)) if self.rows else ((),) * self.cols
        return ExactMatrix._raw(num, self._den, self.rows)

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

    def is_scalar(self) -> bool:
        """Is the matrix c times the identity? A 0x0 matrix is, and a
        non-square one never is."""
        if not self.is_square():
            return False
        if not self.rows:
            return True
        d = self._num[0][0]
        return all(x == (d if i == j else 0) for i, r in enumerate(self._num) for j, x in enumerate(r))

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
        if n == 1:  # [[num / den]] inverts to [[den / num]]
            ((num,),) = self._num
            if not num:
                raise ValueError("singular matrix")
            return ExactMatrix._make(((self._den,),), num, 1)
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


def int_product(rows: Sequence[Sequence[int]], columns: Sequence[Sequence[int]]) -> tuple:
    """The integer matrix with entry (i, j) rows[i] . columns[j]: the
    numerators of a b from the numerator rows of a and columns of b."""
    return tuple(tuple([sum(map(mul, r, c)) for c in columns]) for r in rows)


def sparse_product(pairs: Sequence[Sequence[tuple[int, int]]], rows: Sequence[tuple]) -> tuple:
    """The integer matrix s rows for the matrix s whose row i has the nonzero
    entries pairs[i], as (column, coefficient) pairs: row i of the result
    is the combination of the integer row tuples rows[k] with the
    coefficients c of those pairs, so a constant factor with one or two
    nonzeros per row costs a pass over a row or two, not a product."""
    out = []
    for p in pairs:
        if len(p) == 1:
            ((k, c),) = p
            out.append(rows[k] if c == 1 else tuple([c * x for x in rows[k]]))
        elif len(p) == 2:
            (k, c), (l, e) = p
            out.append(tuple([c * x + e * y for x, y in zip(rows[k], rows[l])]))
        elif p:
            out.append(tuple(map(sum, zip(*[[c * x for x in rows[k]] for k, c in p]))))
        else:
            out.append((0,) * len(rows[0]))
    return tuple(out)


def _matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    columns = tuple(zip(*b._num)) if b.rows else ((),) * b.cols  # t(b), without a matrix object
    return ExactMatrix._make(int_product(a._num, columns), a._den * b._den, b.cols)


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


def kernel(m: ExactMatrix) -> ExactMatrix:
    """Basis of the right kernel {v : m v = 0} as a frame (no columns when m
    is injective): for each free column f of rref(m), 1 at f and
    -rref(m)[r, f] at the r-th pivot.  It depends on the kernel alone."""
    red, pivots = rref(m)
    num, den = red._num, red._den
    free = [c for c in range(m.cols) if c not in pivots]
    rows = [[0] * len(free) for _ in range(m.cols)]
    for j, f in enumerate(free):
        rows[f][j] = den
        for r, p in enumerate(pivots):
            rows[p][j] = -num[r][f]
    return ExactMatrix._make(tuple(map(tuple, rows)), den, len(free))


def krylov(m: ExactMatrix, starts: ExactMatrix, length: int) -> ExactMatrix:
    """The chains v, m v, ..., m^(length-1) v of the columns v of starts, one
    after the other, on numerators: m^k v has the denominator
    den(v) den(m)^k, and one normalisation lifts every column to the last."""
    lift = [m._den ** (length - 1 - k) for k in range(length)]
    # the columns of m^k starts: the rows of t(m^k starts) = t(starts) t(m)^k
    powers = [tuple(zip(*starts._num))]
    for _ in range(length - 1):
        powers.append(int_product(powers[-1], m._num))
    columns = [[x * f for x in powers[k][j]] for j in range(starts.cols) for k, f in enumerate(lift)]
    num = tuple(zip(*columns)) if columns else ((),) * starts.rows
    return ExactMatrix._make(num, starts._den * m._den ** (length - 1), len(columns))


def generalized_kernel(m: ExactMatrix) -> ExactMatrix:
    """Basis frame of the generalized kernel of a square m: the kernel of the
    power of m at which the kernels stop growing, so an invertible m returns
    after one kernel.  It is the frame the kernel of the m.rows-th power of m
    gives, since a kernel basis depends on the subspace alone."""
    power, prev = m, kernel(m)
    while 0 < prev.cols < m.rows:
        power = power * m
        nxt = kernel(power)
        if nxt.cols == prev.cols:
            break
        prev = nxt
    return prev


def solve(a: ExactMatrix, b: Sequence) -> tuple | None:
    """One solution of a x = b, or None if inconsistent."""
    bnum, bden = _over_one_denominator(b)
    if len(bnum) != a.rows:
        raise ValueError("shape mismatch")
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


def span_basis(frame: ExactMatrix) -> ExactMatrix:
    """The reduced basis of the column span of a frame: the nonzero rows of
    rref(t frame), as columns."""
    red, pivots = rref(frame.transpose())
    return red.transpose().columns(0, len(pivots))


def restrict_to(m: ExactMatrix, span: ExactMatrix) -> ExactMatrix:
    """Matrix of m on the column span of the frame span, in the coordinates
    of its columns.

    One elimination of [span | m span]: the columns are independent and
    their span invariant exactly when the pivots are the first k columns,
    and the right-hand block of the first k rows then holds the coordinates."""
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
    # each solution is read off one integer column of the kernel frame
    den = basis._den
    solutions = []
    for v in zip(*basis._num):
        x = ExactMatrix._make(tuple(v[i * n : i * n + n] for i in range(n)), den, n)
        solutions.append(x if scalar is None else (x, Fraction(v[n * n], den)))
    return solutions


def commutant_basis(generators: Sequence[ExactMatrix]) -> list[ExactMatrix]:
    """Basis of {X : Xg = gX for all generators g}."""
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].rows
    for g in generators:
        if not g.is_square() or g.rows != n:
            raise ValueError("generators must be square of equal size")
    ident = ExactMatrix.identity(n)
    return matrix_equation_kernel([[(ident, "X", g), (-g, "X", ident)] for g in generators])


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


def rational_eigensplit(g: ExactMatrix) -> list[tuple[Fraction, ExactMatrix]]:
    """The generalized eigenspaces at the rational eigenvalues.

    Returns [(eigenvalue, generalized eigenspace frame), ...] by increasing
    eigenvalue.  The subspaces are g-invariant and independent, and their
    columns fill the space exactly when every eigenvalue is rational.
    """
    if not g.is_square():
        raise ValueError("square matrix required")
    ident = ExactMatrix.identity(g.rows)
    return [(lam, generalized_kernel(g - ident.scale(lam))) for lam in sorted(rational_roots(g.charpoly()))]


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
    r = isqrt(n)
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
        out = out + term.scale(Fraction(1, factorial(k)))
    raise ValueError("matrix is not nilpotent")


def matrix_log_unipotent(u: ExactMatrix) -> ExactMatrix:
    """log of a unipotent matrix (finite sum); raises if u - 1 not nilpotent."""
    size = u.rows
    n = u - ExactMatrix.identity(size)
    out = ExactMatrix.zeros(size, size)
    term = ExactMatrix.identity(size)
    for k in range(1, size + 1):
        term = term * n
        if term.is_zero():
            return out
        out = out + term.scale(Fraction((-1) ** (k + 1), k))
    raise ValueError("matrix is not unipotent")


# ---------------------------------------------------------------------------
# bilinear forms and quadratic spaces


def bilinear(form: ExactMatrix, u: Sequence, v: Sequence) -> Fraction:
    """The pairing tu form v."""
    un, ud = _over_one_denominator(u)
    vn, vd = _over_one_denominator(v)
    if len(un) != form.rows or len(vn) != form.cols:
        raise ValueError("shape mismatch")
    total = sum(x * sum(map(mul, row, vn)) for x, row in zip(un, form._num) if x)
    return Fraction(total, form._den * ud * vd)


def pairing_matrix(form: ExactMatrix, us: ExactMatrix, vs: ExactMatrix) -> ExactMatrix:
    """The pairings t(u) form v of the columns u of us and v of vs, one row
    per u and one column per v: the product t(us) form vs."""
    return us.transpose() * form * vs


def similitude_factor(g: ExactMatrix, form: ExactMatrix) -> Fraction | None:
    """nu != 0 with t(g) form g = nu form, or None if g is not a similitude
    (a singular g with t(g) form g = 0 included)."""
    if form.rows != form.cols or g.rows != form.rows:
        raise ValueError("shape mismatch")
    # lhs = t(num g) num(form) num(g): t(g) form g is lhs / (den(g)^2 den(form));
    # form g goes through the nonzero entries of each row of the form
    pairs = tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in form._num)
    lhs = int_product(tuple(zip(*g._num)), tuple(zip(*sparse_product(pairs, g._num))))
    # the first nonzero entry of the form fixes nu = l0 / (f0 den(g)^2); then
    # lhs f0 must equal num(form) l0 entrywise, with f0 and l0 the entries there
    first = next(((i, j) for i, r in enumerate(form._num) for j, x in enumerate(r) if x), None)
    if first is None:
        return None
    i, j = first
    f0, l0 = form._num[i][j], lhs[i][j]
    if not l0 or any(
        x * f0 != y * l0
        for r_lhs, r_form in zip(lhs, form._num)
        for x, y in zip(r_lhs, r_form)
    ):
        return None
    return Fraction(l0, f0 * g._den * g._den)


@dataclass(frozen=True)
class QuadraticSpace:
    """Even-dimensional quadratic space with a symmetric invertible Gram matrix."""

    dim: int
    gram: ExactMatrix

    def __post_init__(self):
        if self.dim % 2 != 0:
            raise ValueError("dimension must be even")
        if self.dim == 0:
            raise ValueError("dimension must be positive")
        if self.gram.rows != self.dim or not self.gram.is_symmetric():
            raise ValueError("the form must be symmetric of the stated dimension")
        if self.gram.det() == 0:
            raise ValueError("the form must be invertible")

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
