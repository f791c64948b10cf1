"""Factoring similitude-orthogonal elements into two involutions.

Given g in GSO(V, q) over the rationals, produce x, y with g = x y, x an
isometry involution of determinant (-1)^n (2n = dim V), and y = x g a
similitude with y^2 = nu(y), that is x g x = nu g^{-1}.  One construction
builds such an x for every similitude factor nu in dimensions 2, 4, 6 and 8.

V splits orthogonally into pieces, and a piece is nothing but chains
v, g v, ..., g^(m-1) v with one sign each: x is the twisted reversal
g^k v -> sign (nu g^-1)^k v on every chain.  It is assembled once for the
whole space, as the matrix of the images times the inverse of the matrix of
the chains.  The pieces:

- for a square nu, the generalized eigenspaces of g for +-sqrt(nu) are split
  off and g / sqrt(nu) on them is +-unipotent.  Unipotent parts are
  decomposed into orthogonal strings: an odd string is one chain, and an
  isotropic pair of even strings is two chains with signs 1 and -1.  Where
  g / sqrt(nu) is exactly +-1, every vector of a basis is a chain of its own,
  an anisotropic line first;
- the rest (all of V for a non-square nu) splits into nondegenerate cyclic
  pieces, one chain each;
- where no cyclic piece is nondegenerate (the factor t^2 - nu with Jordan
  blocks), two cyclic spaces Z(v) + Z(w) are glued: w is replaced by p(g) w
  so that the cross moments mu_m = B(v, g^m w) satisfy mu_m = eps nu^m mu_-m,
  and the piece is the two chains with signs 1 and eps, the counterpart of
  the even string pairs.

The determinant parity is read off the trace and corrected by negating the
first odd-dimensional piece, the same replacement the inductive argument
uses.  An input is refused with FactorizationUnsupportedError only in another
dimension, where no cyclic piece or pair of them is nondegenerate, or where
no odd piece can fix the parity.
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
    generalized_kernel,
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


def _string(m: ExactMatrix, v: tuple, d: int) -> list[tuple]:
    """The Krylov chain v, m v, ..., m^(d-1) v."""
    out = [v]
    for _ in range(d - 1):
        out.append(m.apply(out[-1]))
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
    # N^0, N^1, ... up to the first zero power: every moment and shift below
    # reads one of them
    powers = [ExactMatrix.identity(space.dim)]
    while not powers[-1].is_zero():
        if len(powers) > space.dim:
            raise ValueError("operator is not nilpotent")
        powers.append(powers[-1] * n_mat)
    pieces: list[StringPiece] = []

    def moment(u, w, k):  # B(u, N^k w)
        return space.bilinear(u, powers[k].apply(w))

    current = _standard_basis(space.dim)
    while current:
        # the nilpotency index of N on span(current)
        span = ExactMatrix.from_columns(current)
        d = next(k for k, power in enumerate(powers) if (power * span).is_zero())
        top = lambda u, w: moment(u, w, d - 1)
        if d % 2 == 1:
            v = _find_anisotropic_top(current, top)
            # kill the intermediate even moments from the bottom up
            for j in range(1, (d - 1) // 2 + 1):
                t = -moment(v, v, d - 1 - 2 * j) / (2 * top(v, v))
                v = vec_add(v, vec_scale(t, powers[2 * j].apply(v)))
            piece = StringPiece(d, (v,))
            strings = _string(n_mat, v, d)
        else:
            v, w = _find_dual_top(current, top)
            w = vec_scale(ONE / top(v, w), w)
            # make the v-string isotropic
            for k in range(d - 2, -1, -2):
                v = vec_add(v, vec_scale(-moment(v, v, k) / 2, powers[d - 1 - k].apply(w)))
            # normalize the cross pairings to the antidiagonal
            for j in range(d - 2, -1, -1):
                w = vec_add(w, vec_scale(-moment(v, w, j), powers[d - 1 - j].apply(w)))
            # make the w-string isotropic (does not disturb the cross pairing)
            for k in range(d - 2, -1, -2):
                w = vec_add(w, vec_scale(moment(w, w, k) / 2, powers[d - 1 - k].apply(v)))
            piece = StringPiece(d, (v, w))
            strings = _string(n_mat, v, d) + _string(n_mat, w, d)
        pieces.append(piece)
        current = _orthocomplement_in(space, current, strings)
        current = span_basis(current)
    return pieces


def _find_anisotropic_top(basis, top):
    # where every basis vector is isotropic for the symmetric top, u + w and
    # u - w are anisotropic together, and u + w is drawn first
    for cand in _cyclic_candidates(basis, seed=len(basis)):
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
        gens = [v for p in by_d[d] for v in p.generators]
        pairing = pairing_matrix(space.gram * n_mat ** (d - 1), gens, gens)  # B(a, N^(d-1) b)
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


@dataclass(frozen=True)
class _Piece:
    """Chains v, g v, ..., g^(m-1) v of ambient vectors, one sign per chain:
    the reversing involution sends g^k v to sign (nu g^-1)^k v."""

    chains: list[list[tuple]]
    signs: list[int]


def _unipotent_pieces(space: QuadraticSpace, g: ExactMatrix, r: Fraction) -> list[_Piece]:
    """The pieces of a space on which g / r is unipotent, in that space's own
    coordinates."""
    u = g.scale(ONE / r)
    if u == ExactMatrix.identity(space.dim):
        # log u = 0: every string is a line and the reversal is the identity;
        # the line a determinant flip would negate (the first the string
        # decomposition splits off) comes first
        basis = _standard_basis(space.dim)
        v = _find_anisotropic_top(basis, space.bilinear)
        return [_Piece([[w]], [1]) for w in [v, *kernel(pairing_matrix(space.gram, [v], basis))]]
    # with N = log u, span(v, N v, ...) = span(v, g v, ...) and the reversal
    # is (-1)^i on N^i v: sign 1 on an odd string, 1 and -1 on an even pair
    return [
        _Piece([_string(g, v, p.d) for v in p.generators], [1, -1][: len(p.generators)])
        for p in orthogonal_string_decomposition(space, matrix_log_unipotent(u))
    ]


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
                    chain = _string(g, _in_ambient(cw, [p])[0], top)
                    if pairing_matrix(space.gram, cv + chain, cv + chain).det() == 0:
                        continue
                    # the reversal is well defined on Z(v) and Z(w') when their
                    # minimal polynomials are self-dual, as they are for longest
                    # chains; factor verifies the whole pair
                    return _Piece([cv, chain], [1, eps])
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
            krylov = _string(g, cand, len(current) + 1)
            chain = krylov[: rank(ExactMatrix(krylov))]
            if pairing_matrix(space.gram, chain, chain).det() != 0:
                piece = _Piece([chain], [1])
                break
            krylovs.append((chain, krylov))
        else:
            piece = _paired_piece(space, g, nu, krylovs)
            if piece is None:
                raise FactorizationUnsupportedError(
                    f"no nondegenerate cyclic piece or pair in the remaining dimension {len(current)}"
                )
        out.append(piece)
        vectors = [u for chain in piece.chains for u in chain]
        current = span_basis(_orthocomplement_in(space, current, vectors))
    return out


def _reversing_involution(space: QuadraticSpace, g: ExactMatrix, nu: Fraction) -> ExactMatrix:
    """x with x^2 = 1, x in O(q), x g x = nu g^{-1}, det x = (-1)^n."""
    dim = space.dim
    ident = ExactMatrix.identity(dim)
    square, root = is_rational_square(nu)
    pieces: list[_Piece] = []
    split: list[tuple] = []
    # the generalized eigenspaces for +-sqrt(nu), where g / sqrt(nu) is +-unipotent
    for r in (root, -root) if square else ():
        part = generalized_kernel(g - ident.scale(r))
        if not part:
            continue
        split += part
        # the pieces in the part's own coordinates, then in the ambient ones
        sub_space = QuadraticSpace(len(part), pairing_matrix(space.gram, part, part))
        sub_pieces = _unipotent_pieces(sub_space, restrict_to(g, part), r)
        ambient = iter(_in_ambient(part, [u for p in sub_pieces for chain in p.chains for u in chain]))
        pieces += [_Piece([[next(ambient) for _ in chain] for chain in p.chains], p.signs) for p in sub_pieces]
    # the orthocomplement of those parts: the kernel of the rows t(v) gram
    rest = kernel(ExactMatrix(split) * space.gram) if split else _standard_basis(dim)
    if rest:
        pieces += _cyclic_pieces(space, g, nu, rest)

    # x sends g^k v to sign (nu g^-1)^k v, and nu g^-1 is the adjoint G^-1 tg G
    adjoint = space.gram.inverse() * g.transpose() * space.gram
    source: list[tuple] = []
    image: list[tuple] = []
    odd = None  # the image columns of the first odd-dimensional piece
    for p in pieces:
        start = len(image)
        for chain, sign in zip(p.chains, p.signs):
            source += chain
            image += _string(adjoint, vec_scale(sign, chain[0]), len(chain))
        if odd is None and (len(image) - start) % 2:
            odd = slice(start, len(image))
    source_inverse = ExactMatrix.from_columns(source).inverse()
    x = ExactMatrix.from_columns(image) * source_inverse
    # an involution has det (-1)^((dim - tr x) / 2), which is (-1)^n exactly
    # when 4 divides tr x; negating an odd-dimensional piece flips it
    if x.trace() % 4:
        if odd is None:
            raise FactorizationUnsupportedError("no odd piece available to fix the determinant")
        image[odd] = [vec_scale(-1, u) for u in image[odd]]
        x = ExactMatrix.from_columns(image) * source_inverse
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
