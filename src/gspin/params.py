"""Formal global parameters and their classification.

A parameter is an unordered sum of pairs (cuspidal handle, d) with a
similitude character chi; discreteness, membership in the discrete set of a
target group, the six-type classification with component group / automorphy
character / distinguished sign element, the multiplicity formula, and the
block-matrix component-group oracle all live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .characters import AlphaClass, CharacterGroup, HeckeCharacterHandle
from .dualgroups import PAIR_PLANES, GroupTag, THETA_J, embed_pair
from .exactlin import (
    ExactMatrix,
    commutant_basis,
    frac,
    kron,
    matrix_equation_kernel,
    similitude_factor,
    ZERO,
)

# ---------------------------------------------------------------------------
# elementary abelian 2-groups of sign patterns on named labels


def _pattern_key(pattern: frozenset) -> tuple:
    return (len(pattern), sorted(pattern))


def _span(patterns: Iterable[frozenset]) -> set[frozenset]:
    """All symmetric differences of the given patterns, the empty one included."""
    span = {frozenset()}
    for p in patterns:
        if p not in span:
            span |= {s ^ p for s in span}
    return span


class TwoGroup:
    """Elementary abelian 2-group of sign patterns (label subsets, multiplied
    by symmetric difference): the patterns in `elements` (every pattern when
    omitted; when given, it must list a whole subgroup) modulo those spanned
    by `relations`.  Each element is the least member of its coset, ordered
    by (size, sorted labels)."""

    def __init__(
        self,
        basis_labels: Sequence[str],
        relations: Iterable[frozenset] = (),
        elements: Iterable[frozenset] | None = None,
    ):
        self.basis_labels = tuple(basis_labels)
        if len(set(self.basis_labels)) != len(self.basis_labels):
            raise ValueError("repeated basis label")
        self.relations = tuple(self._pattern(r) for r in relations)
        if elements is None:
            self._members = _span(frozenset([lab]) for lab in self.basis_labels)
        else:
            self._members = {self._pattern(e) for e in elements}
            if _span(self._members) != self._members:
                raise ValueError("sign patterns do not form a group")
        self._relation_span = _span(self.relations)
        if not self._relation_span <= self._members:
            raise ValueError("relation outside the group")
        self._elements = tuple(
            sorted({self.canonical(m) for m in self._members}, key=_pattern_key)
        )

    def _pattern(self, labels: Iterable[str]) -> frozenset:
        pattern = frozenset(labels)
        unknown = pattern.difference(self.basis_labels)
        if unknown:
            raise ValueError(f"unknown label {min(unknown)!r}")
        return pattern

    def canonical(self, labels: Iterable[str]) -> frozenset:
        pattern = self._pattern(labels)
        return min((pattern ^ r for r in self._relation_span), key=_pattern_key)

    def contains(self, labels: Iterable[str]) -> bool:
        return self._pattern(labels) in self._members

    def is_identity(self, labels: Iterable[str]) -> bool:
        return self._pattern(labels) in self._relation_span

    @property
    def order(self) -> int:
        return len(self._elements)

    @property
    def rank(self) -> int:
        return self.order.bit_length() - 1

    def elements(self) -> list[frozenset]:
        return list(self._elements)

    def characters(self) -> list["TwoGroupCharacter"]:
        """Every character once, as the least label set it flips; a flip set
        must meet each relation evenly to be a character of the quotient."""
        out = []
        seen = set()
        for r in range(len(self.basis_labels) + 1):
            for flips in itertools.combinations(sorted(self.basis_labels), r):
                flips = frozenset(flips)
                if any(len(flips & rel) % 2 for rel in self.relations):
                    continue
                key = tuple(len(flips & e) % 2 for e in self._elements)
                if key not in seen:
                    seen.add(key)
                    out.append(TwoGroupCharacter.make(self, dict.fromkeys(flips, -1)))
        assert len(out) == self.order
        return out

    def __eq__(self, other):
        return (
            isinstance(other, TwoGroup)
            and self.basis_labels == other.basis_labels
            and self.relations == other.relations
            and self._members == other._members
        )

    def __repr__(self):
        return f"TwoGroup(rank={self.rank}, basis={self.basis_labels})"


@dataclass(frozen=True)
class TwoGroupCharacter:
    """Character of a TwoGroup as a sign vector on the basis labels."""

    values: tuple[tuple[str, int], ...]

    @staticmethod
    def make(group: TwoGroup, values: Mapping[str, int]) -> "TwoGroupCharacter":
        group._pattern(values)  # every label must name a basis label
        vals = {lab: values.get(lab, 1) for lab in group.basis_labels}
        if any(v not in (1, -1) for v in vals.values()):
            raise ValueError("character values must be +-1")
        ch = TwoGroupCharacter(tuple(sorted(vals.items())))
        if any(ch.evaluate(rel) != 1 for rel in group.relations):
            raise ValueError("character violates the relations of the group")
        return ch

    @staticmethod
    def trivial(group: TwoGroup) -> "TwoGroupCharacter":
        return TwoGroupCharacter.make(group, {})

    @property
    def rep(self) -> frozenset:
        """The labels this character flips."""
        return frozenset(lab for lab, v in self.values if v == -1)

    def evaluate(self, labels: Iterable[str]) -> int:
        vals = dict(self.values)
        out = 1
        for lab in labels:
            out *= vals[lab]
        return out

    def __mul__(self, other: "TwoGroupCharacter") -> "TwoGroupCharacter":
        a, b = dict(self.values), dict(other.values)
        if set(a) != set(b):
            raise ValueError("characters of different groups")
        return TwoGroupCharacter(tuple(sorted((k, a[k] * b[k]) for k in a)))

    def is_trivial_on(self, group: TwoGroup) -> bool:
        return all(self.evaluate(el) == 1 for el in group.elements())


def character_dual(group: TwoGroup) -> list[TwoGroupCharacter]:
    """All characters of the group (each counted once)."""
    return group.characters()


# ---------------------------------------------------------------------------
# handles and formal parameters


@dataclass(frozen=True)
class CuspidalHandle:
    """Symbolic chi-self-dual cuspidal/discrete handle on GL_N."""

    id: str
    N: int
    central_character: HeckeCharacterHandle
    chi: HeckeCharacterHandle
    sign: int | None = None  # +1 orthogonal, -1 symplectic
    dihedral_from: AlphaClass | None = None
    tensor_origin: tuple[str, str] | None = None
    asai_origin: AlphaClass | None = None
    root_number_minus: bool = False  # the epsilon(1/2, pi x eta^-1) flag


def check_selfdual(group: CharacterGroup, handle: CuspidalHandle) -> None:
    """Enforce omega^2 = chi^N; for odd N, chi must be a square."""
    omega_sq = group.pow(handle.central_character, 2)
    chi_n = group.pow(handle.chi, handle.N)
    if not group.equal(omega_sq, chi_n):
        raise ValueError(f"{handle.id}: central character squared != chi^N")
    if handle.N % 2 == 1 and not handle.chi.square_root_exists:
        raise ValueError(f"{handle.id}: odd N forces chi to be a square")


def character_summand(group: CharacterGroup, eta: HeckeCharacterHandle, chi: HeckeCharacterHandle, id_hint: str | None = None) -> CuspidalHandle:
    """A GL1 summand; chi-self-dual means eta^2 = chi, always orthogonal."""
    if not group.equal(group.pow(eta, 2), chi):
        raise ValueError("character summand must square to chi")
    return CuspidalHandle(id=id_hint or f"char:{eta.id}", N=1, central_character=eta, chi=chi, sign=+1)


@dataclass(frozen=True)
class FormalParameter:
    """Formal unordered sum of (handle, d) pairs with similitude character chi."""

    chi: HeckeCharacterHandle
    summands: tuple[tuple[CuspidalHandle, int], ...]

    def __post_init__(self):
        for _, d in self.summands:
            if d < 1:
                raise ValueError("SL2 dimensions must be positive")

    @property
    def total_dim(self) -> int:
        return sum(h.N * d for h, d in self.summands)

    def is_discrete(self) -> bool:
        pairs = [(h.id, d) for h, d in self.summands]
        return len(pairs) == len(set(pairs))

    def sorted_summands(self) -> tuple[tuple[CuspidalHandle, int], ...]:
        return tuple(sorted(self.summands, key=lambda hd: (-hd[0].N, -hd[1], hd[0].id)))


# ---------------------------------------------------------------------------
# symplectic/orthogonal alternatives and the tensor transfer


def gl2_alternative(group: CharacterGroup, pi: CuspidalHandle) -> CuspidalHandle:
    """Resolve the GL2 alternative: symplectic iff chi equals the central
    character; otherwise orthogonal and dihedral from the quadratic class of
    their ratio."""
    if pi.N != 2:
        raise ValueError("GL2 handle required")
    ratio = group.ratio(pi.central_character, pi.chi)
    if ratio.is_trivial:
        return replace(pi, sign=-1)
    if ratio.order_two:
        cls = group.class_of_character(ratio)
        if cls is None:
            raise ValueError(f"no declared square class for {ratio.id}")
        return replace(pi, sign=+1, dihedral_from=cls)
    raise ValueError("central character / chi is neither trivial nor of order two")


@dataclass(frozen=True)
class GL4Alternative:
    case: str  # 'tensor', 'asai', 'symplectic'
    handle: CuspidalHandle
    alpha: AlphaClass | None = None


def gl4_alternative(group: CharacterGroup, pi: CuspidalHandle) -> GL4Alternative:
    """Resolve the GL4 trichotomy: tensor-type (orthogonal), Asai-type
    (orthogonal, with quadratic class chi^2/omega), or symplectic."""
    if pi.N != 4:
        raise ValueError("GL4 handle required")
    chi_sq = group.pow(pi.chi, 2)
    omega = pi.central_character
    if pi.tensor_origin is not None:
        if not group.equal(omega, chi_sq):
            raise ValueError("inconsistent handle: tensor origin with omega != chi^2")
        return GL4Alternative("tensor", replace(pi, sign=+1))
    if not group.equal(omega, chi_sq):
        ratio = group.ratio(chi_sq, omega)
        if not ratio.order_two:
            raise ValueError("chi^2 / omega must have order two")
        cls = group.class_of_character(ratio)
        if cls is None:
            raise ValueError(f"no declared square class for {ratio.id}")
        return GL4Alternative("asai", replace(pi, sign=+1, asai_origin=cls), cls)
    return GL4Alternative("symplectic", replace(pi, sign=-1))


def boxtimes(
    group: CharacterGroup,
    p1: tuple[CuspidalHandle, int] | CuspidalHandle,
    p2: tuple[CuspidalHandle, int] | CuspidalHandle,
) -> FormalParameter:
    """Tensor transfer GL2 x GL2 -> GL4 on discrete handles.

    Inputs are either cuspidal GL2 handles or pairs (character handle, 2)
    standing for eta[2]."""

    def split(p):
        if isinstance(p, CuspidalHandle):
            if p.N != 2:
                raise ValueError("GL2 handle required")
            return p, 1
        h, d = p
        if not (h.N == 1 and d == 2):
            raise ValueError("discrete GL2 datum must be cuspidal or eta[2]")
        return h, 2

    h1, d1 = split(p1)
    h2, d2 = split(p2)
    if d1 == 1 and d2 == 1:
        chi4 = group.mul(h1.central_character, h2.central_character)
        handle = CuspidalHandle(
            id=f"{h1.id}(x){h2.id}",
            N=4,
            central_character=group.pow(chi4, 2),
            chi=chi4,
            tensor_origin=(h1.id, h2.id),
        )
        return FormalParameter(chi=chi4, summands=((handle, 1),))
    if d1 == 2 and d2 == 2:
        eta12 = group.mul(h1.central_character, h2.central_character)
        chi4 = group.pow(eta12, 2)
        s = character_summand(group, eta12, chi4)
        return FormalParameter(chi=chi4, summands=((s, 1), (s, 3)))
    # eta[2] boxtimes cuspidal: the twist (eta * pi)[2]
    eta, pi = (h1, h2) if d1 == 2 else (h2, h1)
    omega = group.mul(group.pow(eta.central_character, 2), pi.central_character)
    twisted = CuspidalHandle(
        id=f"{eta.central_character.id}(*){pi.id}",
        N=2,
        central_character=omega,
        chi=omega,  # the twist is self-dual against its own central character
        sign=-1,
    )
    return FormalParameter(chi=omega, summands=((twisted, 2),))


# ---------------------------------------------------------------------------
# discrete membership


@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    reason: str


def psi_disc_membership(
    group: CharacterGroup,
    psi: FormalParameter,
    target: GroupTag,
    alpha_class: AlphaClass | None = None,
) -> MembershipReport:
    """Size, discreteness, per-summand sign condition, and (even GSpin only)
    the square-class condition on the product of central characters."""
    if psi.total_dim != target.std_dim:
        return MembershipReport(False, f"parameter has size {psi.total_dim}, target needs {target.std_dim}")
    if not psi.is_discrete():
        return MembershipReport(False, "not discrete: repeated summand")
    for h, d in psi.summands:
        if not group.equal(h.chi, psi.chi):
            return MembershipReport(False, f"summand {h.id} is self-dual against the wrong character")
        sign = h.sign
        if sign is None:
            return MembershipReport(False, f"summand {h.id} has unresolved duality type")
        required = (-1) ** (d - 1) * target.sign
        if sign != required:
            return MembershipReport(
                False, f"summand {h.id}[{d}] has sign {sign}, needs {required}"
            )
    if target.family == "gspin_even":
        n = target.n
        prod = group.pow(psi.chi, -n)
        for h, d in psi.summands:
            prod = group.mul(prod, group.pow(h.central_character, d))
        expected = group.class_character(alpha_class or AlphaClass(target.alpha))
        if not group.equal(prod, expected):
            return MembershipReport(False, "central-character product does not match the square class")
    return MembershipReport(True, "ok")


def require_membership(group: CharacterGroup, psi: FormalParameter, target: GroupTag) -> None:
    """Raise ValueError unless psi lies in the discrete set of the target."""
    report = psi_disc_membership(group, psi, target)
    if not report.ok:
        raise ValueError(f"not a discrete parameter: {report.reason}")


# ---------------------------------------------------------------------------
# the six types


class ArthurType(Enum):
    GENERAL = ("a", "General")
    YOSHIDA = ("b", "Yoshida")
    SOUDRY = ("c", "Soudry")
    SAITO_KUROKAWA = ("d", "SaitoKurokawa")
    HOWE_PS = ("e", "HowePiatetskiShapiro")
    ONE_DIMENSIONAL = ("f", "OneDimensional")

    @property
    def letter(self) -> str:
        return self.value[0]

    @property
    def label(self) -> str:
        return self.value[1]


@dataclass(frozen=True)
class SPsiElement:
    """The distinguished sign element: -1 exactly on even-d summands."""

    signs: tuple[tuple[str, int], ...]

    @staticmethod
    def of(psi: FormalParameter) -> "SPsiElement":
        return SPsiElement(tuple((h.id, (-1) ** (d - 1)) for h, d in psi.sorted_summands()))

    def support(self) -> frozenset:
        return frozenset(lab for lab, s in self.signs if s == -1)


@dataclass(frozen=True)
class Classification:
    arthur_type: ArthurType
    component_group: TwoGroup
    automorphy_character: TwoGroupCharacter
    sign_element: SPsiElement

    @property
    def component_rank(self) -> int:
        return self.component_group.rank


def component_group_table(psi: FormalParameter) -> TwoGroup:
    """The component group of a discrete parameter: sign flips on summands
    modulo the central all-flip."""
    labels = [h.id for h, _ in psi.sorted_summands()]
    return TwoGroup(labels, [frozenset(labels)])


def classify(
    group: CharacterGroup,
    psi: FormalParameter,
    root_number_minus: bool = False,
) -> Classification:
    """Type, component group, automorphy character and sign element of a
    discrete parameter for the rank-two odd similitude spin group."""
    from .dualgroups import GSPIN5

    require_membership(group, psi, GSPIN5)
    summands = psi.sorted_summands()
    shape = tuple((h.N, d) for h, d in summands)
    sgroup = component_group_table(psi)
    trivial = TwoGroupCharacter.trivial(sgroup)
    s_elt = SPsiElement.of(psi)

    if shape == ((4, 1),):
        return Classification(ArthurType.GENERAL, sgroup, trivial, s_elt)
    if shape == ((2, 1), (2, 1)):
        for h, _ in summands:
            if not group.equal(h.central_character, psi.chi):
                raise ValueError("unclassifiable: central characters must equal chi")
        return Classification(ArthurType.YOSHIDA, sgroup, trivial, s_elt)
    if shape == ((2, 2),):
        h = summands[0][0]
        if not group.ratio(h.central_character, psi.chi).order_two:
            raise ValueError("unclassifiable: ratio to chi must have order two")
        return Classification(ArthurType.SOUDRY, sgroup, trivial, s_elt)
    if shape == ((2, 1), (1, 2)):
        eps = trivial
        if root_number_minus:
            labels = sgroup.basis_labels
            eps = TwoGroupCharacter.make(sgroup, {lab: -1 for lab in labels})
        return Classification(ArthurType.SAITO_KUROKAWA, sgroup, eps, s_elt)
    if shape == ((1, 2), (1, 2)):
        return Classification(ArthurType.HOWE_PS, sgroup, trivial, s_elt)
    if shape == ((1, 4),):
        return Classification(ArthurType.ONE_DIMENSIONAL, sgroup, trivial, s_elt)
    raise ValueError(f"unclassifiable shape {shape}")


# ---------------------------------------------------------------------------
# multiplicity


def multiplicity_prefactor(psi: FormalParameter, target: GroupTag) -> int:
    """2 exactly for even GSpin targets with every N_i even; else 1."""
    if target.family == "gspin_even" and all(h.N % 2 == 0 for h, _ in psi.summands):
        return 2
    return 1


def multiplicity(
    group: CharacterGroup,
    psi: FormalParameter,
    local_data: Sequence[tuple[str, TwoGroupCharacter]],
    target: GroupTag | None = None,
    root_number_minus: bool = False,
) -> int:
    """The number of copies in the discrete spectrum: the prefactor if the
    product of the local characters equals the automorphy character, else 0.

    Only finitely many places contribute; unlisted places are trivial.  A psi
    outside the discrete set of the target raises ValueError."""
    from .dualgroups import GSPIN5

    target = target or GSPIN5
    require_membership(group, psi, target)
    if target.family == "gspin_odd":
        cls = classify(group, psi, root_number_minus=root_number_minus)
        sgroup, eps = cls.component_group, cls.automorphy_character
    else:
        sgroup = component_group_table(psi)
        eps = TwoGroupCharacter.trivial(sgroup)
    prod = TwoGroupCharacter.trivial(sgroup)
    for _place, ch in local_data:
        TwoGroupCharacter.make(sgroup, dict(ch.values))  # validates relations
        prod = prod * ch
    same = all(prod.evaluate(el) == eps.evaluate(el) for el in sgroup.elements())
    return multiplicity_prefactor(psi, target) if same else 0


# ---------------------------------------------------------------------------
# Satake composition


def std_compose(
    psi: FormalParameter,
    satake_inputs: Mapping[str, Sequence],
    chi_value: Fraction | int | str,
) -> tuple[list[tuple[Fraction, int]], Fraction]:
    """Compose Satake data with the standard representation.

    Each summand entry a contributes monomials a * q^((d-1-2k)/2) for
    0 <= k < d, encoded as (a, d-1-2k) with the exponent counted in halves.
    Returns (sorted multiset, chi value)."""
    out: list[tuple[Fraction, int]] = []
    for h, d in psi.summands:
        try:
            entries = satake_inputs[h.id]
        except KeyError:
            raise ValueError(f"missing Satake input for {h.id}") from None
        if len(entries) != h.N:
            raise ValueError(f"Satake input for {h.id} has size {len(entries)}, needs {h.N}")
        for a in entries:
            for k in range(d):
                out.append((frac(a), d - 1 - 2 * k))
    assert len(out) == psi.total_dim
    return sorted(out), frac(chi_value)


# ---------------------------------------------------------------------------
# the matrix oracle


_SL2_GENS = (
    ExactMatrix([[1, 1], [0, 1]]),
    ExactMatrix([[1, 0], [1, 1]]),
    ExactMatrix([[Fraction(2), 0], [0, Fraction(1, 2)]]),
)

# the idle plane of a two-summand block: similitude factor 9, like the samples
_IDLE_PLANE = ExactMatrix.identity(2).scale(3)


def _sym_cube(g: ExactMatrix) -> ExactMatrix:
    """Third symmetric power of a 2x2 matrix on the basis x^3, x^2 y, x y^2, y^3."""
    a, b, c, d = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    # images of basis monomials under x -> a x + c y, y -> b x + d y
    def expand(p, q):
        # coefficients of (a x + c y)^p (b x + d y)^q
        coeffs = [ZERO] * 4
        for i in range(p + 1):
            for j in range(q + 1):
                coef = (
                    _binom(p, i) * a**i * c ** (p - i) * _binom(q, j) * b**j * d ** (q - j)
                )
                coeffs[3 - (i + j)] += coef
        return coeffs

    cols = [expand(3 - k, k) for k in range(4)]
    return ExactMatrix.from_columns(cols)


def _binom(n: int, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out = out * (n - i) / (i + 1)
    return out


def _invariant_form(rep_gens: list[ExactMatrix]) -> ExactMatrix:
    """The (up to scale unique) invariant bilinear form of an irreducible
    representation, found by exact linear solve."""
    ident = ExactMatrix.identity(rep_gens[0].rows)
    basis = matrix_equation_kernel(
        [[(g.transpose(), "X", g), (-ident, "X", ident)] for g in rep_gens]  # t(g) B g = B
    )
    if len(basis) != 1:
        raise ValueError("invariant form is not unique")
    return basis[0]


def _antidiagonal_congruence(form: ExactMatrix) -> ExactMatrix:
    """Diagonal t with t(t) THETA_J t = form, for an antidiagonal alternating
    form: t = diag(1, 1, form[1,2]/J[1,2], form[0,3]/J[0,3])."""
    t = ExactMatrix.diagonal(
        [1, 1, form[1, 2] / THETA_J[1, 2], form[0, 3] / THETA_J[0, 3]]
    )
    if t.transpose() * THETA_J * t != form:
        raise ValueError("form is not diagonally congruent to THETA_J")
    return t


def _summand_blocks(psi: FormalParameter) -> dict[str, list[ExactMatrix]]:
    """Per-summand generator matrices in the fixed symplectic realization.

    Returns {summand id: 4x4 generators}.  With two summands, each acts on
    its plane of PAIR_PLANES through `embed_pair`, with 3 times the identity
    on the other plane, so that every generator is a similitude of THETA_J
    with factor 9.  Distinct handles receive distinct prime samples."""
    summands = psi.sorted_summands()
    shape = tuple((h.N, d) for h, d in summands)
    primes = iter((2, 5, 7, 11, 13))

    def plane_gens(det_value: Fraction) -> list[ExactMatrix]:
        p = frac(next(primes))
        return [
            ExactMatrix.diagonal([p, det_value / p]),
            ExactMatrix([[0, 1], [-det_value, 0]]),
        ]

    blocks: dict[str, list[ExactMatrix]] = {}
    if shape == ((2, 1), (2, 1)):
        c = frac(9)
        (h1, _), (h2, _) = summands
        blocks[h1.id] = [embed_pair(a, _IDLE_PLANE) for a in plane_gens(c)]
        blocks[h2.id] = [embed_pair(_IDLE_PLANE, a) for a in plane_gens(c)]
        return blocks
    if shape == ((2, 1), (1, 2)):
        s = frac(3)
        (pi, _), (eta, _) = summands
        blocks[pi.id] = [embed_pair(a, _IDLE_PLANE) for a in plane_gens(s * s)]
        blocks[eta.id] = [embed_pair(_IDLE_PLANE, u.scale(s)) for u in _SL2_GENS]
        return blocks
    if shape == ((1, 2), (1, 2)):
        s1, s2 = frac(3), frac(-3)
        (e1, _), (e2, _) = summands
        blocks[e1.id] = [embed_pair(u.scale(s1), _IDLE_PLANE) for u in _SL2_GENS]
        blocks[e2.id] = [embed_pair(_IDLE_PLANE, u.scale(s2)) for u in _SL2_GENS]
        return blocks
    if shape == ((2, 2),):
        c = frac(3)
        h = summands[0][0]
        p = frac(2)
        orth_gens = [
            ExactMatrix.diagonal([p, c / p]),
            ExactMatrix([[0, 1], [c, 0]]),
        ]
        gens = [kron(a, ExactMatrix.identity(2)) for a in orth_gens]
        gens += [kron(ExactMatrix.identity(2), u) for u in _SL2_GENS]
        blocks[h.id] = gens
        return blocks
    if shape == ((4, 1),):
        c = frac(3)
        h = summands[0][0]
        from .exactlin import matrix_exp_nilpotent
        from .dualgroups import _GSP4_NILPOTENTS

        gens = [ExactMatrix.diagonal([frac(2), frac(5), c / 5, c / 2]), THETA_J]
        gens += [matrix_exp_nilpotent(n) for n in _GSP4_NILPOTENTS[:3]]
        blocks[h.id] = gens
        return blocks
    if shape == ((1, 4),):
        s = frac(3)
        h = summands[0][0]
        sym_gens = [_sym_cube(u) for u in _SL2_GENS[:2]]
        t = _antidiagonal_congruence(_invariant_form(sym_gens))
        t_inv = t.inverse()
        blocks[h.id] = [(t * _sym_cube(u) * t_inv).scale(s) for u in _SL2_GENS]
        return blocks
    raise ValueError(f"oracle does not support shape {shape}")


@dataclass(frozen=True)
class OracleResult:
    component_group: TwoGroup
    sign_element: frozenset
    commutant_dim: int

    def agrees_with(self, cls: Classification) -> bool:
        table_group = cls.component_group
        if table_group.rank != self.component_group.rank:
            return False
        return table_group.canonical(cls.sign_element.support()) == self.sign_element


def component_group_oracle(psi: FormalParameter) -> OracleResult:
    """Compute the component group from block matrices, independently of
    `component_group_table`: the commutant of a generic realization in GSp4,
    with components found by `restriction.sign_patterns` on one self-paired
    piece per summand (its plane of PAIR_PLANES, or the whole space for a
    single summand), modulo the center."""
    # restriction imports this module
    from .restriction import PieceData, sign_patterns

    blocks = _summand_blocks(psi)
    summands = psi.sorted_summands()
    generators = [g for h, _ in summands for g in blocks[h.id]]
    if any(similitude_factor(g, THETA_J) is None for g in generators):
        raise ValueError("sample block outside GSp4")
    comm = commutant_basis(generators)
    k = len(summands)
    if len(comm) != k:
        raise ValueError(
            f"degenerate sample blocks: commutant dimension {len(comm)}, expected {k}"
        )
    ident = ExactMatrix.identity(4)
    coords = PAIR_PLANES if k > 1 else (range(4),)
    pieces = [
        PieceData(h.id, tuple(ident.row(i) for i in c), True, None)
        for (h, _), c in zip(summands, coords)
    ]
    group = sign_patterns(pieces, generators, THETA_J).group
    s_support = group.canonical({h.id for h, d in summands if d % 2 == 0})
    return OracleResult(component_group=group, sign_element=s_support, commutant_dim=len(comm))
