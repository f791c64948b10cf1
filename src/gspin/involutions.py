"""Factoring similitude-orthogonal elements into two involutions.

Given g in GSO(V, q) over the rationals, produce x, y with g = x y, x an
isometry involution of determinant (-1)^n (2n = dim V), and y = x g a
similitude with y^2 = nu(y), that is x g x = nu g^{-1}.  One construction
builds such an x for every similitude factor nu in dimensions 2, 4, 6 and 8.

V splits orthogonally into pieces, and a piece is nothing but chains
v, g v, ..., g^(m-1) v with one sign each: x is the twisted reversal
g^k v -> sign (nu g^-1)^k v on every chain.  It is assembled once for the
whole space, as the matrix of the images times the inverse of the matrix of
the chains.  The pieces, after Wonenburger's strings and Milnor's split by
the characteristic polynomial:

- on the generalized kernel W1 of g^2 - nu, cut into the generalized
  eigenspaces for +-sqrt(nu) when nu is a square, Newton's step
  s <- (s + nu s^-1) / 2 from g gives the s in Q[g] with s^2 = nu and s^-1 g
  unipotent.  N = log(s^-1 g) is decomposed into orthogonal strings with
  scalars in Q[s], for the Q[s]-valued form h with rational part B / 2: an
  odd string is one chain of d [Q[s]:Q] vectors, and an isotropic pair of
  even strings is two such chains with signs 1 and -1.  The top of each
  string is found among a basis and its pairwise sums by polarization.
  Where s^-1 g = 1, every vector of a basis is a chain of its own, an
  anisotropic line first;
- on the rest, where g^2 - nu is invertible, cyclic pieces, one chain each:
  the first of a basis, its pairwise sums and differences whose cyclic
  space Z(v) is nondegenerate.  Where none is, the primary parts of the
  self-adjoint a = g + nu g^-1 split the rest first, without trial.  They
  are mutually orthogonal, Z_a(v) is the sum of its components in them, and
  Z_g(v) is nondegenerate exactly when Z_a(v) is.  On a p^k-primary part W
  the symmetric form B(x, p(a)^(k-1) y) is not zero, so by polarization
  some candidate v has a nondegenerate Z_a(v_W); the radical R of its Z(v)
  then misses W, and the generalized kernel of chi(a), chi the
  characteristic polynomial of a on R, is a proper sum of primary parts.

The determinant parity is read off the trace and corrected by negating the
first odd-dimensional piece, the same replacement the inductive argument
uses.  Only a square nu can need it: a cyclic piece of dimension m has
det x = (-1)^(m/2), and for a non-square nu x commutes with s on W1, so
det x = +1 there, while det g = nu^n makes 4 divide dim W1.  For a square
nu an even string pair of dimension m has det x = (-1)^(m/2) too, so a
wrong parity leaves an odd piece to negate.  FactorizationUnsupportedError
refuses only another dimension; its other raises are guards that the
arguments above show cannot fire.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlin import ExactMatrix, QuadraticSpace, frac, generalized_kernel, is_rational_square, kernel
from .exactlin import matrix_log_unipotent, pairing_matrix, poly_eval_matrix, rank, restrict_to, span_basis
from .exactlin import vec_add, vec_scale, ONE, ZERO


_HALF = Fraction(1, 2)


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
            raise ValueError("not an invertible similitude with the stated factor")
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
    return _strings_over(space, n_mat, ExactMatrix.identity(space.dim))


def _strings_over(space: QuadraticSpace, n_mat: ExactMatrix, s: ExactMatrix) -> list[StringPiece]:
    """The string decomposition with scalars in Q[s], for a self-adjoint s
    with s^2 = nu that commutes with n_mat.  A scalar a + b s is that matrix,
    and the pairing is h(u, w) = (B(u, w) + B(u, s w) s / nu) / 2: it is
    Q[s]-bilinear and symmetric, N is skew for it, and B(u, w) is twice the
    rational part of h(u, w), so h-orthogonal strings are B-orthogonal.  A
    string through v spans Q[s] v + Q[s] N v + ...  For s = +-sqrt(nu), h is
    B."""
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
    scalars = [powers[0]] if s.is_scalar() else [powers[0], s]  # a basis of Q[s] over Q
    half, s_half = powers[0].scale(_HALF), s.scale(ONE / (2 * (s * s)[0, 0]))
    pieces: list[StringPiece] = []

    def moment(u, w, k):  # h(u, N^k w)
        w = powers[k].apply(w)
        return half.scale(space.bilinear(u, w)) + s_half.scale(space.bilinear(u, s.apply(w)))

    current = _standard_basis(space.dim)
    while current:
        # the nilpotency index of N on span(current)
        span = ExactMatrix.from_columns(current)
        d = next(k for k, power in enumerate(powers) if (power * span).is_zero())
        top = lambda u, w: moment(u, w, d - 1)
        pairs = lambda u, w: not top(u, w).is_zero()
        if d % 2 == 1:
            v = _find_anisotropic_top(current, pairs)
            # kill the intermediate even moments from the bottom up
            for j in range(1, (d - 1) // 2 + 1):
                t = (moment(v, v, d - 1 - 2 * j) * top(v, v).inverse()).scale(-_HALF)
                v = vec_add(v, t.apply(powers[2 * j].apply(v)))
            generators = (v,)
        else:
            v, w = _find_dual_top(current, pairs)
            w = top(v, w).inverse().apply(w)
            # make the v-string isotropic
            for k in range(d - 2, -1, -2):
                v = vec_add(v, moment(v, v, k).scale(-_HALF).apply(powers[d - 1 - k].apply(w)))
            # normalize the cross pairings to the antidiagonal
            for j in range(d - 2, -1, -1):
                w = vec_add(w, (-moment(v, w, j)).apply(powers[d - 1 - j].apply(w)))
            # make the w-string isotropic (does not disturb the cross pairing)
            for k in range(d - 2, -1, -2):
                w = vec_add(w, moment(w, w, k).scale(_HALF).apply(powers[d - 1 - k].apply(v)))
            generators = (v, w)
        pieces.append(StringPiece(d, generators))
        strings = [b.apply(u) for v in generators for u in _string(n_mat, v, d) for b in scalars]
        current = span_basis(_orthocomplement_in(space, current, strings))
    return pieces


def _find_anisotropic_top(basis, pairs):
    # pairs(u, w) says whether a nonzero symmetric form pairs u and w; where
    # every basis vector is isotropic, some u + w is anisotropic by
    # polarization, and u + w is drawn before u - w
    for cand in _cyclic_candidates(basis):
        if pairs(cand, cand):
            return cand
    raise FactorizationUnsupportedError("no anisotropic vector at the top level")


def _find_dual_top(basis, pairs):
    for i, u in enumerate(basis):
        for w in basis[i + 1 :]:
            if pairs(u, w):
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


def _string_pieces(space: QuadraticSpace, g: ExactMatrix, s: ExactMatrix) -> list[_Piece]:
    """The pieces of a space on which a self-adjoint s with s^2 = nu commutes
    with g and s^-1 g is unipotent, in that space's own coordinates."""
    u = s.inverse() * g
    if u == ExactMatrix.identity(space.dim):
        # log u = 0: every string is a line and the reversal is the identity;
        # the line a determinant flip would negate (the first the string
        # decomposition splits off) comes first
        basis = _standard_basis(space.dim)
        v = _find_anisotropic_top(basis, space.bilinear)
        return [_Piece([[w]], [1]) for w in [v, *kernel(pairing_matrix(space.gram, [v], basis))]]
    # s and N = log u are polynomials in g, so a string through v is the
    # g-chain of v, and g = s exp(N) makes the reversal the Q[s]-linear map
    # (-1)^i on N^i v: sign 1 on an odd string, 1 and -1 on an even pair
    degree = 1 if s.is_scalar() else 2
    return [
        _Piece([_string(g, v, p.d * degree) for v in p.generators], [1, -1][: len(p.generators)])
        for p in _strings_over(space, matrix_log_unipotent(u), s)
    ]


def _cyclic_candidates(basis: list[tuple]):
    """The basis, then the sums and differences of its pairs."""
    yield from basis
    for i, u in enumerate(basis):
        for w in basis[i + 1 :]:
            yield vec_add(u, w)
            yield vec_add(u, vec_scale(-1, w))


def _cyclic_pieces(space: QuadraticSpace, g: ExactMatrix, subspace: list[tuple]) -> list[_Piece]:
    """Orthogonal decomposition of a g-stable nondegenerate subspace on which
    g^2 - nu is invertible into nondegenerate cyclic pieces, with the reversal
    q(g) v -> q(nu g^-1) v on each; where no candidate's cyclic space is
    nondegenerate, by the primary parts of a = g + nu g^-1 first."""
    out = []
    current = span_basis(subspace)
    while current:
        degenerate = []
        for cand in _cyclic_candidates(current):
            # the span of current is g-invariant, so the cyclic subspace of
            # cand has dimension m <= len(current), and cand, ..., g^(m-1) cand
            # are its first m vectors
            krylov = _string(g, cand, len(current) + 1)
            chain = krylov[: rank(ExactMatrix(krylov))]
            gram = pairing_matrix(space.gram, chain, chain)
            if gram.det() != 0:
                break
            degenerate.append((chain, gram))
        else:
            a = g + space.gram.inverse() * g.transpose() * space.gram
            for chain, gram in degenerate:
                chi = restrict_to(a, _in_ambient(chain, kernel(gram))).charpoly()
                part = _in_ambient(current, generalized_kernel(poly_eval_matrix(chi, restrict_to(a, current))))
                if len(part) < len(current):
                    rest = _orthocomplement_in(space, current, part)
                    return out + _cyclic_pieces(space, g, part) + _cyclic_pieces(space, g, rest)
            raise FactorizationUnsupportedError(f"no cyclic piece and no primary split in dimension {len(current)}")
        out.append(_Piece([chain], [1]))
        current = span_basis(_orthocomplement_in(space, current, chain))
    return out


def _reversing_involution(space: QuadraticSpace, g: ExactMatrix, nu: Fraction) -> ExactMatrix:
    """x with x^2 = 1, x in O(q), x g x = nu g^{-1}, det x = (-1)^n."""
    dim = space.dim
    ident = ExactMatrix.identity(dim)
    square, root = is_rational_square(nu)
    # the generalized kernel of g^2 - nu, split into the generalized
    # eigenspaces for +-sqrt(nu) when nu is a square
    if square:
        parts = [generalized_kernel(g - ident.scale(r)) for r in (root, -root)]
    else:
        parts = [generalized_kernel(g * g - ident.scale(nu))]
    pieces: list[_Piece] = []
    split: list[tuple] = []
    for part in parts:
        if not part:
            continue
        split += part
        # the pieces in the part's own coordinates, then in the ambient ones
        sub_space = QuadraticSpace(len(part), pairing_matrix(space.gram, part, part))
        sub_g = s = restrict_to(g, part)
        # Newton's step converges to the s in Q[g] with s^2 = nu and s^-1 g
        # unipotent, and is self-adjoint from the first step on
        while s * s != ExactMatrix.identity(len(part)).scale(nu):
            s = (s + s.inverse().scale(nu)).scale(_HALF)
        sub_pieces = _string_pieces(sub_space, sub_g, s)
        ambient = iter(_in_ambient(part, [u for p in sub_pieces for chain in p.chains for u in chain]))
        pieces += [_Piece([[next(ambient) for _ in chain] for chain in p.chains], p.signs) for p in sub_pieces]
    # the orthocomplement of those parts: the kernel of the rows t(v) gram
    rest = kernel(ExactMatrix(split) * space.gram) if split else _standard_basis(dim)
    if rest:
        pieces += _cyclic_pieces(space, g, rest)

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
