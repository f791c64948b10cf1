"""Factoring similitude-orthogonal elements into two involutions.

Given g in GSO(V, q) over the rationals, produce x, y with g = x y, x an
isometry involution of determinant (-1)^n (2n = dim V), and y = x g a
similitude with y^2 = nu(y), that is x g x = nu g^{-1}.  One construction
builds such an x for every similitude factor nu in dimensions 2, 4, 6 and 8,
piece by piece over an orthogonal splitting of V:

- for a square nu, the generalized eigenspaces of g for +-sqrt(nu) are split
  off and g / sqrt(nu) on them is +-unipotent.  Unipotent parts are
  decomposed into orthogonal strings: odd strings are cyclic, while even
  strings pair off isotropically and carry the explicit sign-involution of
  the string-tensor model with similitude -1 witnesses.  Where g / sqrt(nu)
  is exactly +-1 every string is a line, so the part is one anisotropic line
  and its orthocomplement, with the identity on both;
- the rest (all of V for a non-square nu) splits into nondegenerate cyclic
  pieces, with the twisted reversal q(g) v -> q(nu g^{-1}) v on each; its
  matrix comes from one restriction of g to the piece;
- where no cyclic piece is nondegenerate (the factor t^2 - nu with Jordan
  blocks), two cyclic spaces Z(v) + Z(w) are glued: w is replaced by p(g) w
  so that the cross moments mu_m = B(v, g^m w) satisfy mu_m = eps nu^m mu_-m,
  and x is the twisted reversal on Z(v) and eps times it on Z(w), the
  counterpart of the even string pairs.

Determinant parity is corrected by negating one odd-dimensional piece, the
same replacement the inductive argument uses.  An input is refused with
FactorizationUnsupportedError only in another dimension, where no cyclic piece
or pair of them is nondegenerate, or where no odd piece can fix the parity.
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
    matrix_log_unipotent,
    pairing_matrix,
    rank,
    restrict_to,
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
        if got != self.nu or got == 0:
            raise ValueError("matrix is not an invertible similitude with the stated factor")
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


def _in_ambient(inside: Sequence[tuple], coords: Sequence[tuple]) -> list[tuple]:
    """The vectors with the given coordinates on the vectors of `inside`."""
    if not coords:
        return []
    product = ExactMatrix.from_columns(inside) * ExactMatrix.from_columns(coords)
    return list(product.transpose().entries())


def _standard_basis(n: int) -> list[tuple]:
    return [tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)]


def _orthocomplement_in(space: QuadraticSpace, inside: Sequence[tuple], of: Sequence[tuple]) -> list[tuple]:
    """Vectors of span(inside) orthogonal to every vector of the nonempty `of`."""
    if not inside:
        return []
    return _in_ambient(inside, kernel(pairing_matrix(space.gram, of, inside)))


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
    basis = _standard_basis(space.dim)
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
    if u == ExactMatrix.identity(space.dim):
        # log u = 0: every string is a line and the involution is the
        # identity; only the line a determinant flip would negate (the first
        # the string decomposition splits off) needs a piece of its own
        basis = _standard_basis(space.dim)
        v = _find_anisotropic_top(basis, space.bilinear)
        out = [_Piece([v], ExactMatrix.identity(1), flippable=True)]
        rest = kernel(pairing_matrix(space.gram, [v], basis))
        if rest:
            out.append(_Piece(rest, ExactMatrix.identity(len(rest)), flippable=False))
        return out
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


def _twisted_piece(g: ExactMatrix, nu: Fraction, chains: list[list[tuple]], signs: Sequence[int]) -> _Piece:
    """The reversal q(g) v -> sign q(nu g^-1) v on the sum of the cyclic
    spaces spanned by the chains v, g v, ..., g^(m-1) v."""
    basis = [u for chain in chains for u in chain]
    # the sum is g-stable, so nu g^-1 on it is nu times the inverse of g on it
    twist = restrict_to(g, basis).inverse().scale(nu)
    columns, start = [], 0
    for chain, sign in zip(chains, signs):
        # column k: the coordinates of sign (nu g^-1)^k v
        col = tuple(frac(sign) if i == start else ZERO for i in range(len(basis)))
        for _ in chain:
            columns.append(col)
            col = twist.apply(col)
        start += len(chain)
    return _Piece(basis, ExactMatrix.from_columns(columns), flippable=len(basis) % 2 == 1)


def _paired_piece(
    space: QuadraticSpace, g: ExactMatrix, nu: Fraction, krylovs: list[tuple[list, list]]
) -> _Piece | None:
    """A nondegenerate Z(v) + Z(w') for two longest chains, with w' = p(g) w
    chosen so that the cross moments mu_m = B(v, g^m w') satisfy
    mu_m = eps nu^m mu_-m; then the twisted reversal on Z(v) and eps times it
    on Z(w') is an isometry.  None when no pair gives one."""
    top = max(len(chain) for chain, _ in krylovs)
    longest = [(chain, krylov) for chain, krylov in krylovs if len(chain) == top]
    for i, (cv, kv) in enumerate(longest):
        for cw, kw in longest[i + 1 :]:
            # independent chains: Z(v) + Z(w) is direct, and the moments
            # below need g^k w only for k <= 2 top - 2 < len(kw)
            if rank(ExactMatrix(cv + cw)) < 2 * top:
                continue

            def moment(k):  # B(v, g^k w), also for negative k
                if k >= 0:
                    return space.bilinear(kv[0], kw[k])
                return nu**k * space.bilinear(kv[-k], kw[0])

            for eps in (1, -1):
                rows = [[moment(m + j) - eps * nu**m * moment(j - m) for j in range(top)]
                        for m in range(top)]
                solutions = kernel(ExactMatrix(rows))
                for p in _cyclic_candidates(solutions, seed=top) if solutions else ():
                    chain = [_in_ambient(cw, [p])[0]]
                    for _ in range(top - 1):
                        chain.append(g.apply(chain[-1]))
                    if pairing_matrix(space.gram, cv + chain, cv + chain).det() == 0:
                        continue
                    # the reversal is well defined on Z(v) and Z(w') when their
                    # minimal polynomials are self-dual, as they are for longest
                    # chains; factor verifies the whole pair
                    return _twisted_piece(g, nu, [cv, chain], [1, eps])
    return None


def _cyclic_pieces(space: QuadraticSpace, g: ExactMatrix, nu: Fraction, subspace: list[tuple]) -> list[_Piece]:
    """Orthogonal decomposition of a g-stable nondegenerate subspace into
    nondegenerate cyclic pieces, with the reversal q(g) v -> q(nu g^-1) v on
    each, or into paired pieces where no cyclic piece is nondegenerate."""
    out = []
    current = span_basis(subspace)
    while current:
        krylovs = []
        for cand in _cyclic_candidates(current, seed=len(current)):
            # the span of current is g-invariant, so the cyclic subspace of
            # cand has dimension m <= len(current), and cand, ..., g^(m-1) cand
            # are its first m vectors
            krylov = [cand]
            for _ in range(len(current)):
                krylov.append(g.apply(krylov[-1]))
            chain = krylov[: rank(ExactMatrix(krylov))]
            if pairing_matrix(space.gram, chain, chain).det() != 0:
                piece = _twisted_piece(g, nu, [chain], [1])
                break
            krylovs.append((chain, krylov))
        else:
            piece = _paired_piece(space, g, nu, krylovs)
            if piece is None:
                raise FactorizationUnsupportedError(
                    f"no nondegenerate cyclic piece or pair in the remaining dimension {len(current)}"
                )
        out.append(piece)
        current = span_basis(_orthocomplement_in(space, current, piece.basis))
    return out


def _stable_kernel(m: ExactMatrix) -> list[tuple]:
    """Kernel of a stabilized power of m (the generalized kernel); an
    invertible m has none, so an empty kernel returns at once."""
    power = m
    prev = kernel(power)
    while prev and len(prev) < m.rows:
        power = power * m
        nxt = kernel(power)
        if len(nxt) == len(prev):
            return prev
        prev = nxt
    return prev


def _reversing_involution(space: QuadraticSpace, g: ExactMatrix, nu: Fraction) -> ExactMatrix:
    """x with x^2 = 1, x in O(q), x g x = nu g^{-1}, det x = (-1)^n."""
    dim = space.dim
    n = dim // 2
    ident = ExactMatrix.identity(dim)
    square, root = is_rational_square(nu)
    pieces: list[_Piece] = []
    split: list[tuple] = []
    # the generalized eigenspaces for +-sqrt(nu), where g / sqrt(nu) is +-unipotent
    for r in (root, -root) if square else ():
        part = _stable_kernel(g - ident.scale(r))
        if not part:
            continue
        split += part
        # restrict to the invariant subspace with its own coordinates
        sub_space = QuadraticSpace(len(part), pairing_matrix(space.gram, part, part))
        u = restrict_to(g, part).scale(ONE / r)
        for p in _unipotent_pieces(sub_space, u):
            pieces.append(_Piece(_in_ambient(part, p.basis), p.x_restricted, p.flippable))
    # the orthocomplement of those parts: the kernel of the rows t(v) gram
    rest = kernel(ExactMatrix(split) * space.gram) if split else _standard_basis(dim)
    if rest:
        pieces.extend(_cyclic_pieces(space, g, nu, rest))

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
        columns.extend(p.basis)
        blocks.append(p.x_restricted)
    change = ExactMatrix.from_columns(columns)
    x = change * ExactMatrix.block_diagonal(blocks) * change.inverse()
    return x


# ---------------------------------------------------------------------------
# the factorization


def factor(e: SimilitudeElement) -> InvolutionPair:
    """Factor g = x y with x an isometry involution of determinant (-1)^n and
    y = x g a similitude with y^2 = nu(y); exact, verified before returning."""
    if e.space.dim not in (2, 4, 6, 8):
        raise FactorizationUnsupportedError(f"dimension {e.space.dim} not supported")
    x = _reversing_involution(e.space, e.g, e.nu)
    pair = InvolutionPair(x, x * e.g)
    if not verify(e, pair):
        raise AssertionError("factorization failed verification")
    return pair
