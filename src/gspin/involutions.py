"""Factoring similitude-orthogonal elements into two involutions.

Given g in GSO(V, q) over the rationals, produce x, y with g = x y, x an
isometry involution of determinant (-1)^n (2n = dim V), and y a similitude
with y^2 = nu(y).  The construction normalizes a square similitude factor
away, splits V into the generalized eigenspaces for +-1 and their orthogonal
complement, and builds a reversing isometry involution piece by piece:

- on a nondegenerate cyclic piece, q(g) v -> q(g^{-1}) v is such an involution;
- unipotent parts are decomposed into orthogonal strings: odd strings are
  cyclic, while even strings pair off isotropically and carry the explicit
  sign-involution of the string-tensor model with similitude -1 witnesses.

Determinant parity is corrected by negating one odd-dimensional piece, the
same replacement the inductive argument uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlin import (
    ExactMatrix,
    QuadraticSpace,
    frac,
    is_rational_square,
    kernel,
    matrix_equation_kernel,
    matrix_log_unipotent,
    pairing_matrix,
    restrict_to,
    solve,
    span_basis,
    vec_add,
    vec_scale,
    ONE,
    ZERO,
)


class FactorizationUnsupportedError(ValueError):
    """The input is outside the supported construction path."""


@dataclass(frozen=True)
class SimilitudeElement:
    space: QuadraticSpace
    g: ExactMatrix
    nu: Fraction

    def __post_init__(self):
        object.__setattr__(self, "nu", frac(self.nu))
        got = self.space.similitude_factor(self.g)
        if got != self.nu:
            raise ValueError("matrix is not a similitude with the stated factor")
        n = self.space.dim // 2
        if self.g.det() != self.nu**n:
            raise ValueError("not in the special similitude group: det != nu^n")


@dataclass(frozen=True)
class InvolutionPair:
    x: ExactMatrix
    y: ExactMatrix


def verify(e: SimilitudeElement, p: InvolutionPair) -> bool:
    """All four defining equations, exactly."""
    space, n = e.space, e.space.dim // 2
    ident = ExactMatrix.identity(space.dim)
    if p.x * p.x != ident:
        return False
    if p.x.transpose() * space.gram * p.x != space.gram:
        return False
    if p.x.det() != Fraction(-1) ** n:
        return False
    nu_y = space.similitude_factor(p.y)
    if nu_y is None or p.y * p.y != ident.scale(nu_y):
        return False
    return p.x * p.y == e.g


# ---------------------------------------------------------------------------
# subspace utilities (vectors are ambient tuples)


def _orthocomplement_in(space: QuadraticSpace, inside: Sequence[tuple], of: Sequence[tuple]) -> list[tuple]:
    """Vectors of span(inside) orthogonal to every vector of `of`."""
    if not inside:
        return []
    coords = kernel(pairing_matrix(space.gram, of, inside)) if of else [
        tuple(ONE if i == j else ZERO for j in range(len(inside))) for i in range(len(inside))
    ]
    span = ExactMatrix.from_columns([list(v) for v in inside])
    return [span.apply(c) for c in coords]


# ---------------------------------------------------------------------------
# orthogonal string decomposition of a nilpotent skew-adjoint operator


@dataclass(frozen=True)
class StringPiece:
    """A single orthogonal string (odd length) or an isotropic string pair."""

    d: int
    generators: tuple[tuple, ...]  # (v,) for odd, (v, w) for a pair

    @property
    def paired(self) -> bool:
        return len(self.generators) == 2


def _nilpotency_index_on(n_mat: ExactMatrix, basis: Sequence[tuple]) -> int:
    d = 0
    current = list(basis)
    while any(any(c != 0 for c in v) for v in current):
        current = [n_mat.apply(v) for v in current]
        d += 1
        if d > n_mat.rows:
            raise ValueError("operator is not nilpotent")
    return d


def _string(n_mat: ExactMatrix, v: tuple, d: int) -> list[tuple]:
    out = [v]
    for _ in range(d - 1):
        out.append(n_mat.apply(out[-1]))
    return out


def orthogonal_string_decomposition(
    space: QuadraticSpace, n_mat: ExactMatrix
) -> list[StringPiece]:
    """Split the space into orthogonal strings for a nilpotent skew-adjoint
    operator, with cleaned pairings: an odd string is nondegenerate with
    antidiagonal Gram; even strings come in isotropic dual pairs."""
    check = n_mat.transpose() * space.gram + space.gram * n_mat
    if not check.is_zero():
        raise ValueError("operator is not skew-adjoint for the form")
    basis = [tuple(ONE if i == j else ZERO for j in range(space.dim)) for i in range(space.dim)]
    pieces: list[StringPiece] = []

    def moment(u, w, k):
        vec = w
        for _ in range(k):
            vec = n_mat.apply(vec)
        return space.bilinear(u, vec)

    current = basis
    while current:
        d = _nilpotency_index_on(n_mat, current)
        if d == 0:
            break
        top = lambda u, w: moment(u, w, d - 1)
        if d % 2 == 1:
            v = _find_anisotropic_top(current, top)
            # kill the intermediate even moments from the bottom up
            for j in range(1, (d - 1) // 2 + 1):
                k0 = d - 1 - 2 * j
                t = -moment(v, v, k0) / (2 * moment(v, v, d - 1))
                shift = v
                for _ in range(2 * j):
                    shift = n_mat.apply(shift)
                v = vec_add(v, vec_scale(t, shift))
            piece = StringPiece(d, (v,))
            strings = _string(n_mat, v, d)
        else:
            v, w = _find_dual_top(current, top)
            w = vec_scale(ONE / top(v, w), w)
            # make the v-string isotropic
            for k in range(d - 2, -1, -2):
                a = d - 1 - k
                s = -moment(v, v, k) / 2
                shift = w
                for _ in range(a):
                    shift = n_mat.apply(shift)
                v = vec_add(v, vec_scale(s, shift))
            # normalize the cross pairings to the antidiagonal
            for j in range(d - 2, -1, -1):
                r = -moment(v, w, j)
                shift = w
                for _ in range(d - 1 - j):
                    shift = n_mat.apply(shift)
                w = vec_add(w, vec_scale(r, shift))
            # make the w-string isotropic (does not disturb the cross pairing)
            for k in range(d - 2, -1, -2):
                a = d - 1 - k
                t = moment(w, w, k) / 2
                shift = v
                for _ in range(a):
                    shift = n_mat.apply(shift)
                w = vec_add(w, vec_scale(t, shift))
            piece = StringPiece(d, (v, w))
            strings = _string(n_mat, v, d) + _string(n_mat, w, d)
        pieces.append(piece)
        current = _orthocomplement_in(space, current, strings)
        current = span_basis(current)
    return pieces


def _find_anisotropic_top(basis, top):
    for u in basis:
        if top(u, u) != 0:
            return u
    for i, u in enumerate(basis):
        for w in basis[i + 1 :]:
            cand = vec_add(u, w)
            if top(cand, cand) != 0:
                return cand
    raise FactorizationUnsupportedError("no anisotropic vector at the top level")


def _find_dual_top(basis, top):
    for i, u in enumerate(basis):
        for w in basis[i + 1 :]:
            if top(u, w) != 0:
                return u, w
    raise FactorizationUnsupportedError("no dual pair at the top level")


# ---------------------------------------------------------------------------
# the exposed unipotent decomposition


@dataclass(frozen=True)
class Sl2Block:
    d: int
    multiplicity_basis: tuple[tuple, ...]
    pairing: ExactMatrix
    pairing_type: str  # 'symmetric' for odd d, 'alternating' for even d


def unipotent_sl2_decompose(space: QuadraticSpace, u: ExactMatrix) -> list[Sl2Block]:
    """Decompose a unipotent isometry: log, orthogonal strings, and the
    induced pairings on the multiplicity spaces."""
    if space.similitude_factor(u) != 1:
        raise ValueError("input must be an isometry")
    n_mat = matrix_log_unipotent(u)  # raises for non-unipotent input
    pieces = orthogonal_string_decomposition(space, n_mat)
    by_d: dict[int, list[StringPiece]] = {}
    for p in pieces:
        by_d.setdefault(p.d, []).append(p)
    out = []
    for d in sorted(by_d):
        gens: list[tuple] = []
        for p in by_d[d]:
            gens.extend(p.generators)

        def top_pair(a, b):
            vec = b
            for _ in range(d - 1):
                vec = n_mat.apply(vec)
            return space.bilinear(a, vec)

        pairing = ExactMatrix([[top_pair(a, b) for b in gens] for a in gens])
        kind = "symmetric" if d % 2 == 1 else "alternating"
        if kind == "symmetric" and not pairing.is_symmetric():
            raise AssertionError("odd blocks must induce a symmetric pairing")
        if kind == "alternating" and not pairing.is_antisymmetric():
            raise AssertionError("even blocks must induce an alternating pairing")
        if pairing.det() == 0:
            raise AssertionError("induced pairing must be nondegenerate")
        out.append(Sl2Block(d, tuple(gens), pairing, kind))
    total = sum(b.d * len(b.multiplicity_basis) for b in out)
    if total != space.dim:
        raise AssertionError("string dimensions do not fill the space")
    return out


# ---------------------------------------------------------------------------
# reversing involutions piece by piece


@dataclass
class _Piece:
    basis: list[tuple]          # ambient vectors
    x_restricted: ExactMatrix   # reversing involution in basis coordinates
    flippable: bool             # odd dimension: negating flips the determinant


def _unipotent_pieces(space: QuadraticSpace, u: ExactMatrix) -> list[_Piece]:
    """Reversing involutions for a unipotent isometry (restricted to its
    invariant subspace, given in that subspace's own coordinates)."""
    n_mat = matrix_log_unipotent(u)
    pieces = orthogonal_string_decomposition(space, n_mat)
    out = []
    for p in pieces:
        if not p.paired:
            # with N = log u, the reversing involution q(u) v -> q(u^-1) v is
            # the alternating-sign diagonal on the string basis N^i v
            (v,) = p.generators
            basis = _string(n_mat, v, p.d)
            x_res = ExactMatrix.diagonal([Fraction(-1) ** i for i in range(p.d)])
            out.append(_Piece(basis, x_res, flippable=p.d % 2 == 1))
        else:
            v, w = p.generators
            basis = _string(n_mat, v, p.d) + _string(n_mat, w, p.d)
            diag = [Fraction(-1) ** i for i in range(p.d)] + [
                Fraction(-1) ** (i + 1) for i in range(p.d)
            ]
            out.append(_Piece(basis, ExactMatrix.diagonal(diag), flippable=False))
    return out


def _cyclic_candidates(basis: list[tuple], seed: int):
    for v in basis:
        yield v
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            yield vec_add(basis[i], basis[j])
            yield vec_add(basis[i], vec_scale(-1, basis[j]))
    rng = random.Random(seed)
    for _ in range(24):
        coeffs = [frac(rng.randint(-3, 3)) for _ in basis]
        cand = tuple(ZERO for _ in basis[0])
        for c, b in zip(coeffs, basis):
            cand = vec_add(cand, vec_scale(c, b))
        if any(c != 0 for c in cand):
            yield cand


def _cyclic_pieces(space: QuadraticSpace, g: ExactMatrix, subspace: list[tuple]) -> list[_Piece]:
    """Orthogonal cyclic decomposition of the part without +-1 eigenvalues,
    with the reversing involution q(g) v -> q(g^-1) v on each piece."""
    out = []
    current = span_basis(subspace)
    g_inv = g.inverse()
    while current:
        found = None
        for cand in _cyclic_candidates(current, seed=len(current)):
            chain = [cand]
            while True:
                nxt = g.apply(chain[-1])
                trial = span_basis(chain + [nxt])
                if len(trial) == len(chain):
                    break
                chain.append(nxt)
            if pairing_matrix(space.gram, chain, chain).det() != 0:
                found = chain
                break
        if found is None:
            raise FactorizationUnsupportedError("no nondegenerate cyclic piece found")
        m = len(found)
        images = [found[0]]
        for _ in range(m - 1):
            images.append(g_inv.apply(images[-1]))
        span = ExactMatrix.from_columns([list(b) for b in found])
        coords = [solve(span, img) for img in images]
        if any(c is None for c in coords):
            raise FactorizationUnsupportedError("cyclic piece is not inverse-stable")
        x_res = ExactMatrix.from_columns([list(c) for c in coords])
        out.append(_Piece(found, x_res, flippable=m % 2 == 1))
        current = span_basis(_orthocomplement_in(space, current, found))
    return out


def _stable_kernel(m: ExactMatrix) -> list[tuple]:
    """Kernel of a stabilized power of m (the generalized kernel)."""
    power = m
    prev = kernel(power)
    while len(prev) < m.rows:
        power = power * m
        nxt = kernel(power)
        if len(nxt) == len(prev):
            return prev
        prev = nxt
    return prev


def _reversing_involution(space: QuadraticSpace, g0: ExactMatrix) -> ExactMatrix:
    """x with x^2 = 1, x in O(q), x g0 x = g0^{-1}, det x = (-1)^n."""
    dim = space.dim
    n = dim // 2
    ident = ExactMatrix.identity(dim)
    plus_basis = _stable_kernel(g0 - ident)
    minus_basis = _stable_kernel(g0 + ident)
    rest = _orthocomplement_in(
        space,
        [tuple(ONE if i == j else ZERO for j in range(dim)) for i in range(dim)],
        list(plus_basis) + list(minus_basis),
    )
    rest = span_basis(rest)

    pieces: list[_Piece] = []
    for sign, part in ((1, plus_basis), (-1, minus_basis)):
        if not part:
            continue
        # restrict to the invariant subspace with its own coordinates
        span = ExactMatrix.from_columns([list(v) for v in part])
        sub_gram = pairing_matrix(space.gram, part, part)
        sub_space = QuadraticSpace(len(part), sub_gram)
        g_res = restrict_to(g0, part)
        u = g_res if sign == 1 else -g_res
        for p in _unipotent_pieces(sub_space, u):
            ambient_basis = [span.apply(v) for v in p.basis]
            pieces.append(_Piece(ambient_basis, p.x_restricted, p.flippable))
    if rest:
        pieces.extend(_cyclic_pieces(space, g0, rest))

    # assemble and fix the determinant parity
    det_total = ONE
    for p in pieces:
        det_total *= p.x_restricted.det()
    target = Fraction(-1) ** n
    if det_total != target:
        flip = next((p for p in pieces if p.flippable), None)
        if flip is None:
            raise FactorizationUnsupportedError("no odd piece available to fix the determinant")
        flip.x_restricted = -flip.x_restricted
    columns = []
    blocks = []
    for p in pieces:
        columns.extend(list(v) for v in p.basis)
        blocks.append(p.x_restricted)
    change = ExactMatrix.from_columns(columns)
    x = change * ExactMatrix.block_diagonal(blocks) * change.inverse()
    return x


# ---------------------------------------------------------------------------
# the factorization


def factor(e: SimilitudeElement) -> InvolutionPair:
    """Factor g = x y with x an isometry involution of determinant (-1)^n and
    y a similitude with y^2 = nu(y); exact, verified before returning."""
    space, g = e.space, e.g
    dim = space.dim
    if dim not in (2, 4, 6, 8):
        raise FactorizationUnsupportedError(f"dimension {dim} not supported")
    if dim == 2:
        pair = _factor_dim2(e)
        if not verify(e, pair):
            raise AssertionError("dimension-two factorization failed verification")
        return pair
    square, root = is_rational_square(e.nu)
    if not square:
        pair = _search_reversing_involution(e)
        if pair is None:
            raise FactorizationUnsupportedError(
                "similitude factor is not a rational square and no reversing"
                " involution was found by the direct search"
            )
        if not verify(e, pair):
            raise AssertionError("searched factorization failed verification")
        return pair
    g0 = g.scale(ONE / root)
    x = _reversing_involution(space, g0)
    y = (x * g0).scale(root)
    pair = InvolutionPair(x, y)
    if not verify(e, pair):
        raise AssertionError("factorization failed verification")
    return pair


def _search_reversing_involution(e: SimilitudeElement) -> InvolutionPair | None:
    """Direct search used when the similitude factor is not a square.

    Any x with x g = nu g^{-1} x, self-adjoint for the form and squaring to
    one gives y = x g with y^2 = nu; the first two conditions are linear, so
    candidates are small combinations of a kernel basis, rescaled when their
    square is a positive square scalar."""
    space, g, nu = e.space, e.g, e.nu
    n2 = space.dim
    gram = space.gram
    ident = ExactMatrix.identity(n2)
    basis = matrix_equation_kernel(
        [
            [(gram, "X", ident), (-ident, "Xt", gram)],  # gram x = t(x) gram
            [(ident, "X", g), (-g.inverse().scale(nu), "X", ident)],  # x g = nu g^-1 x
        ]
    )

    def candidates():
        import itertools

        for b in basis:
            yield b
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                yield basis[i] + basis[j]
                yield basis[i] - basis[j]
        if len(basis) <= 6:
            zero = ExactMatrix.zeros(n2, n2)
            for coeffs in itertools.product((0, 1, -1), repeat=len(basis)):
                if sum(c != 0 for c in coeffs) < 3:
                    continue
                m = zero
                for c, b in zip(coeffs, basis):
                    if c:
                        m = m + (b if c == 1 else -b)
                yield m

    wanted_det = Fraction(-1) ** (n2 // 2)
    for cand in candidates():
        sq = cand * cand
        s = sq[0, 0]
        if s == 0 or sq != ident.scale(s):
            continue
        ok, r = is_rational_square(s)
        if not ok:
            continue
        x = cand.scale(ONE / r)
        if x.det() != wanted_det:
            continue
        if x.transpose() * gram * x != gram:
            continue
        return InvolutionPair(x, x * g)
    return None


def _factor_dim2(e: SimilitudeElement) -> InvolutionPair:
    """Any reflection works in rank one: x r is a trace-zero similitude."""
    space = e.space
    for cand in (
        (ONE, ZERO),
        (ZERO, ONE),
        (ONE, ONE),
        (ONE, -ONE),
        (ONE, frac(2)),
    ):
        if space.bilinear(cand, cand) != 0:
            x = space.reflection(cand)
            y = x * e.g
            if y * y == ExactMatrix.identity(2).scale(e.nu):
                return InvolutionPair(x, y)
    raise FactorizationUnsupportedError("no usable reflection in dimension two")
