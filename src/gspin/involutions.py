"""Factoring similitude-orthogonal elements into two involutions.

Given g in GSO(V, q) over the rationals, produce x, y with g = x y, x an
isometry involution of determinant (-1)^n (2n = dim V), and y = x g a
similitude with y^2 = nu(y), that is x g x = nu g^{-1}.  One construction
builds such an x for every similitude factor nu in dimensions 2, 4, 6 and 8.

V splits orthogonally into pieces, and a piece is nothing but chains
v, g v, ..., g^(m-1) v with one sign each: x is the twisted reversal
g^k v -> sign (nu g^-1)^k v on every chain.  With S the chains and M their
images x = M S^-1, but S is never inverted: the pieces are mutually
orthogonal and nondegenerate, so the rows of S^-1 for a piece P are
Gram_P^-1 t(S_P) G, and the S_P Gram_P^-1 t(S_P) G add up to 1.  So x is 1
plus (M_P - S_P) Gram_P^-1 t(S_P) G for each piece P that x moves.  Every
set of vectors on the way is one ExactMatrix whose columns are those
vectors.  The pieces, after Wonenburger's strings and Milnor's split by the
characteristic polynomial:

- on the generalized kernel W1 of g^2 - nu, cut into the generalized
  eigenspaces for +-sqrt(nu) when nu is a square: the generalized kernels of
  m = g - r (r^2 = nu), or of m = g^2 - nu.  The adjoint of m is -r g^-1 m,
  or -nu g^-2 m, so im m = (ker m)^perp, and the generalized kernel is
  K = ker m exactly when B is nondegenerate on K.  Then g^2 = nu on K, and
  every vector of a basis is a chain of its own, an anisotropic line first.
  Otherwise the s in Q[g] with s^2 = nu and s^-1 g unipotent is r, or for a
  non-square nu the limit of Newton's step s <- (s + nu s^-1) / 2 from g.
  N = log(s^-1 g) is decomposed into orthogonal strings with scalars in
  Q[s], for the Q[s]-valued form h with rational part B / 2: an odd string
  is one chain of d [Q[s]:Q] vectors, and an isotropic pair of even strings
  is two such chains with signs 1 and -1.  The top of each string is found
  among a basis and its pairwise sums by polarization;
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
from itertools import combinations

from .exactlin import ExactMatrix, QuadraticSpace, frac, generalized_kernel, is_rational_square, kernel
from .exactlin import krylov, matrix_log_unipotent, pairing_matrix, poly_eval_matrix, rank, restrict_to
from .exactlin import similitude_factor, span_basis, ONE


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
        got = similitude_factor(self.g, self.space.gram)
        if got != self.nu:  # got is None for a factor of 0
            raise ValueError("not an invertible similitude with the stated factor")
        n = self.space.dim // 2
        if self.g.det() != self.nu**n:
            raise ValueError("not in the special similitude group: det != nu^n")


@dataclass(frozen=True)
class InvolutionPair:
    x: ExactMatrix
    y: ExactMatrix


def verify(e: SimilitudeElement, p: InvolutionPair) -> bool:
    """All four defining equations, exactly, from four products: given
    x^2 = 1, t(x) G x = G is G x = t(G x), and det x = (-1)^n is 4 | tr x
    (the -1-eigenspace has dimension (dim - tr x) / 2); given those and
    x y = g, y = x g has g's factor nu, so y^2 = nu(y) is y^2 = nu."""
    ident = ExactMatrix.identity(e.space.dim)
    if p.x * p.x != ident:
        return False
    if not (e.space.gram * p.x).is_symmetric() or p.x.trace() % 4:
        return False
    return p.x * p.y == e.g and p.y * p.y == ident.scale(e.nu)


# ---------------------------------------------------------------------------
# candidate vectors


def _cyclic_candidates(basis: ExactMatrix):
    """The basis columns, then the sums and differences of their pairs."""
    columns = [basis.columns(j, j + 1) for j in range(basis.cols)]
    yield from columns
    for u, w in combinations(columns, 2):
        yield u + w
        yield u - w


# ---------------------------------------------------------------------------
# orthogonal string decomposition of a nilpotent skew-adjoint operator


@dataclass(frozen=True)
class StringPiece:
    """A single orthogonal string (odd length) or an isotropic string pair."""

    d: int
    generators: ExactMatrix  # the frame [v] for odd, [v w] for a pair


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
    gram = space.gram
    check = n_mat.transpose() * gram + gram * n_mat
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

    def moment(u, w, k):  # h(u, N^k w) for columns u and w
        w = powers[k] * w
        return half.scale(pairing_matrix(gram, u, w)[0, 0]) + s_half.scale(pairing_matrix(gram, u, s * w)[0, 0])

    current = powers[0]
    while True:
        # the nilpotency index of N on span(current)
        d = next(k for k, power in enumerate(powers) if (power * current).is_zero())
        top = lambda u, w: moment(u, w, d - 1)
        pairs = lambda u, w: not top(u, w).is_zero()
        if d % 2 == 1:
            v = _find_anisotropic_top(current, pairs)
            # kill the intermediate even moments from the bottom up
            for j in range(1, (d - 1) // 2 + 1):
                t = (moment(v, v, d - 1 - 2 * j) * top(v, v).inverse()).scale(-_HALF)
                v = v + t * (powers[2 * j] * v)
            generators = v
        else:
            v, w = _find_dual_top(current, pairs)
            w = top(v, w).inverse() * w
            # make the v-string isotropic
            for k in range(d - 2, -1, -2):
                v = v + moment(v, v, k).scale(-_HALF) * (powers[d - 1 - k] * w)
            # normalize the cross pairings to the antidiagonal
            for j in range(d - 2, -1, -1):
                w = w - moment(v, w, j) * (powers[d - 1 - j] * w)
            # make the w-string isotropic (does not disturb the cross pairing)
            for k in range(d - 2, -1, -2):
                w = w + moment(w, w, k).scale(_HALF) * (powers[d - 1 - k] * v)
            generators = ExactMatrix.hstack([v, w])
        pieces.append(StringPiece(d, generators))
        strings = ExactMatrix.hstack([b * krylov(n_mat, generators, d) for b in scalars])
        # the strings are independent over Q[s] (a field), since their top
        # pairing is invertible; as many as dim span(current) fill it
        if strings.cols == current.cols:
            return pieces
        current = span_basis(current * kernel(pairing_matrix(gram, strings, current)))


def _find_anisotropic_top(basis: ExactMatrix, pairs):
    # pairs(u, w) says whether a nonzero symmetric form pairs the columns u
    # and w; where every basis vector is isotropic, some u + w is anisotropic
    # by polarization, and u + w is drawn before u - w
    for cand in _cyclic_candidates(basis):
        if pairs(cand, cand):
            return cand
    raise FactorizationUnsupportedError("no anisotropic vector at the top level")


def _find_dual_top(basis: ExactMatrix, pairs):
    for u, w in combinations([basis.columns(j, j + 1) for j in range(basis.cols)], 2):
        if pairs(u, w):
            return u, w
    raise FactorizationUnsupportedError("no dual pair at the top level")


# ---------------------------------------------------------------------------
# reversing involutions piece by piece


@dataclass(frozen=True)
class _Chains:
    """Chains v, g v, ..., g^(length-1) v side by side, and sign v for each:
    the reversal sends g^k v to sign (nu g^-1)^k v.  One piece (a chain, or
    the two of an even string pair), or for length one a part of lines:
    there the reversal is the identity, and each vector of an orthogonal
    basis is a chain of its own."""

    vectors: ExactMatrix
    signed_starts: ExactMatrix
    length: int


def _string_pieces(space: QuadraticSpace, g: ExactMatrix, part: ExactMatrix, root, nu) -> list[_Chains]:
    """The chains of a g-stable nondegenerate part on which g - root (or
    g^2 - nu, for root None) is nilpotent: the strings of N = log(s^-1 g)
    over Q[s].  s and N are polynomials in g, so a string through v is the
    g-chain of v, and g = s exp(N) makes the reversal the Q[s]-linear map
    (-1)^i on N^i v: sign 1 on an odd string, 1 and -1 on an even pair."""
    sub_space = QuadraticSpace(part.cols, pairing_matrix(space.gram, part, part))
    sub_g = restrict_to(g, part)
    ident = ExactMatrix.identity(part.cols)
    if root is not None:
        # the s in Q[g] with s^2 = nu and s^-1 g unipotent: s = root (1 + X),
        # X nilpotent, and (1 + X)^2 = 1 leaves X = 0
        s, u, degree = ident.scale(root), sub_g.scale(1 / root), 1
    else:
        # Newton's step converges to that s, and is self-adjoint from the
        # first step on
        s = sub_g
        while s * s != ident.scale(nu):
            s = (s + s.inverse().scale(nu)).scale(_HALF)
        u, degree = s.inverse() * sub_g, 2
    out = []
    for p in _strings_over(sub_space, matrix_log_unipotent(u), s):
        starts = part * p.generators
        signed = starts * ExactMatrix.diagonal([1, -1][: starts.cols])
        out.append(_Chains(krylov(g, starts, p.d * degree), signed, p.d * degree))
    return out


def _cyclic_pieces(space: QuadraticSpace, g: ExactMatrix, subspace: ExactMatrix) -> list[_Chains]:
    """Orthogonal decomposition of a g-stable nondegenerate subspace (the
    column span of subspace) on which g^2 - nu is invertible into
    nondegenerate cyclic pieces, with the reversal q(g) v -> q(nu g^-1) v on
    each; where no candidate's cyclic space is nondegenerate, by the primary
    parts of a = g + nu g^-1 first."""
    gram = space.gram
    out = []
    current = span_basis(subspace)
    while True:
        degenerate = []
        for cand in _cyclic_candidates(current):
            # the span of current is g-invariant, so the cyclic subspace of
            # cand has dimension m <= current.cols, and cand, ..., g^(m-1) cand
            # are its first m vectors; a nondegenerate Gram of all current.cols
            # of them shows m = current.cols, and the rank of the Krylov block
            # (its pivot columns come first) is m
            chain = krylov(g, cand, current.cols)
            chain_gram = pairing_matrix(gram, chain, chain)
            if chain_gram.det() != 0:
                break
            chain = chain.columns(0, rank(chain))
            chain_gram = pairing_matrix(gram, chain, chain)
            if chain.cols < current.cols and chain_gram.det() != 0:
                break
            degenerate.append((chain, chain_gram))
        else:
            a = g + gram.inverse() * g.transpose() * gram
            for chain, chain_gram in degenerate:
                radical = chain * kernel(chain_gram)
                chi = restrict_to(a, radical).charpoly()
                part = generalized_kernel(poly_eval_matrix(chi, restrict_to(a, current)))
                if part.cols < current.cols:
                    part = current * part
                    rest = current * kernel(pairing_matrix(gram, part, current))
                    return out + _cyclic_pieces(space, g, part) + _cyclic_pieces(space, g, rest)
            raise FactorizationUnsupportedError(f"no cyclic piece and no primary split in dimension {current.cols}")
        out.append(_Chains(chain, chain.columns(0, 1), chain.cols))
        # a chain as long as dim span(current) spans it: no orthocomplement
        if chain.cols == current.cols:
            return out
        current = span_basis(current * kernel(pairing_matrix(gram, chain, current)))


def _reversing_involution(space: QuadraticSpace, g: ExactMatrix, nu: Fraction) -> ExactMatrix:
    """x with x^2 = 1, x in O(q), x g x = nu g^{-1}, det x = (-1)^n."""
    gram = space.gram
    ident = ExactMatrix.identity(space.dim)
    square, root = is_rational_square(nu)
    # the generalized kernel of g^2 - nu, or for a square nu its halves: the
    # generalized kernels of m = g - r for r = +-sqrt(nu), or of m = g^2 - nu
    pieces: list[_Chains] = []
    parts: list[ExactMatrix] = []
    for r in (root, -root) if square else (None,):
        m = g - ident.scale(r) if square else g * g - ident.scale(nu)
        kernel_m = kernel(m)
        if not kernel_m.cols:
            continue
        # the adjoint of m is -r g^-1 m (or -nu g^-2 m), so im m = (ker m)^perp,
        # and ker m^2 = ker m exactly when ker m meets (ker m)^perp in 0
        kernel_gram = pairing_matrix(gram, kernel_m, kernel_m)
        if kernel_gram.det() != 0:
            parts.append(kernel_m)
            pieces.append(_Chains(kernel_m, kernel_m, 1))
        else:
            parts.append(generalized_kernel(m))
            pieces += _string_pieces(space, g, parts[-1], r, nu)
    # the orthocomplement of those parts: the kernel of t(parts) gram
    rest = kernel(ExactMatrix.hstack(parts).transpose() * gram) if parts else ident
    if rest.cols:
        pieces += _cyclic_pieces(space, g, rest)

    g_t = g.transpose()

    def reversal(p: _Chains) -> tuple[ExactMatrix, ExactMatrix]:
        # the coordinates c of the images M = S c of the chains S of a piece,
        # and the rows R = Gram^-1 t(S) G of S^-1 for it: M lies in the piece,
        # so c = R M, and G M is the chain of tg on G sign v, since the
        # adjoint nu g^-1 of g is G^-1 tg G
        transposed = p.vectors.transpose()
        rows = transposed * gram
        gram_inverse = (rows * p.vectors).inverse()
        return gram_inverse * (transposed * krylov(g_t, gram * p.signed_starts, p.length)), gram_inverse * rows

    # x = 1 plus S (c - 1) R for each piece; on chains of length one M = S
    x = ident
    for p in pieces:
        if p.length > 1:
            coordinates, rows = reversal(p)
            x = x + p.vectors * (coordinates - ExactMatrix.identity(coordinates.rows)) * rows
    # an involution has det (-1)^((dim - tr x) / 2), which is (-1)^n exactly
    # when 4 divides tr x; negating the images M_Q of the first odd-dimensional
    # piece Q, a single chain, flips it, and takes 2 S_Q c_Q R_Q off x.  On a
    # part of lines Q is the chain of its first anisotropic line v alone
    if x.trace() % 4:
        q = next((p for p in pieces if p.length % 2), None)
        if q is None:
            raise FactorizationUnsupportedError("no odd piece available to fix the determinant")
        if q.length == 1:
            v = _find_anisotropic_top(q.vectors, lambda u, w: pairing_matrix(gram, u, w)[0, 0] != 0)
            q = _Chains(v, v, 1)
        coordinates, rows = reversal(q)
        x = x - q.vectors * coordinates.scale(2) * rows
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
