"""Packet restriction calculus.

Bounded parameters are carried as finite exact generator samples plus a shape
tag; component groups on both sides of the projection are recomputed from the
commutant algebra: the underlying space is split into joint eigenspace pieces,
each piece is classified by the restricted pairing (self-paired versus
isotropically paired), and component representatives are the admissible sign
patterns on self-paired pieces, modulo the centre and the connected part."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dualgroups import DualElement, SO5_GRAM, THETA_J, embed_pair, project_to_so5
from .exactlin import (
    ExactMatrix,
    commutant_basis,
    frac,
    kron,
    pairing_matrix,
    rational_eigensplit,
    restrict_to,
    similitude_factor,
    ONE,
    ZERO,
)

# ---------------------------------------------------------------------------
# sign groups (explicit element lists; subgroups of {+-1}^pieces)


@dataclass(frozen=True)
class SignGroupCharacter:
    """Character given by a representative label subset T: value on an
    element e is (-1)^(|T meet e|)."""

    rep: frozenset

    def evaluate(self, element: frozenset) -> int:
        return -1 if len(self.rep & element) % 2 else 1


class SignGroup:
    """An elementary abelian 2-group of sign patterns on named pieces."""

    def __init__(self, labels: Sequence[str], elements: Sequence[frozenset]):
        self.labels = tuple(labels)
        elems = {frozenset(e) for e in elements}
        if frozenset() not in elems:
            raise ValueError("sign group must contain the identity")
        for a in elems:
            for b in elems:
                if a ^ b not in elems:
                    raise ValueError("sign patterns are not closed under products")
        self.elements = tuple(sorted(elems, key=lambda s: (len(s), sorted(s))))

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def rank(self) -> int:
        return self.order.bit_length() - 1

    def characters(self) -> list[SignGroupCharacter]:
        out = []
        seen = set()
        for r in range(len(self.labels) + 1):
            for subset in itertools.combinations(sorted(self.labels), r):
                ch = SignGroupCharacter(frozenset(subset))
                key = tuple(ch.evaluate(e) for e in self.elements)
                if key not in seen:
                    seen.add(key)
                    out.append(ch)
        assert len(out) == self.order
        return out

    def contains(self, element: frozenset) -> bool:
        return frozenset(element) in set(self.elements)


# ---------------------------------------------------------------------------
# commutant pieces


def _split_pieces(generators: Sequence[ExactMatrix]) -> list[list[tuple]]:
    """Joint eigenspace decomposition under the commutant algebra."""
    n = generators[0].rows
    algebra = commutant_basis(generators)
    pieces: list[list[tuple]] = [
        [tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)]
    ]
    changed = True
    while changed:
        changed = False
        for b in algebra:
            new_pieces: list[list[tuple]] = []
            for basis in pieces:
                restricted = restrict_to(b, basis)
                parts, irrational = rational_eigensplit(restricted)
                if irrational:
                    raise ValueError("degenerate generator set: irrational commutant spectrum")
                if len(parts) <= 1:
                    new_pieces.append(basis)
                    continue
                changed = True
                span = ExactMatrix.from_columns([list(v) for v in basis])
                for _lam, sub in parts:
                    new_pieces.append([span.apply(v) for v in sub])
            pieces = new_pieces
    return pieces


@dataclass(frozen=True)
class PieceData:
    label: str
    basis: tuple[tuple, ...]
    self_paired: bool
    partner: str | None


def _classify_pieces(pieces: list[list[tuple]], form: ExactMatrix) -> list[PieceData]:
    named = [(f"p{i}", basis) for i, basis in enumerate(pieces)]
    out = []
    for label, basis in named:
        self_block = pairing_matrix(form, basis, basis)
        if self_block.det() != 0:
            out.append(PieceData(label, tuple(basis), True, None))
            continue
        if not self_block.is_zero():
            raise ValueError("degenerate generator set: piece with degenerate pairing")
        partners = [
            lab2
            for lab2, basis2 in named
            if lab2 != label and not pairing_matrix(form, basis, basis2).is_zero()
        ]
        if len(partners) != 1:
            raise ValueError("degenerate generator set: ambiguous isotropic pairing")
        out.append(PieceData(label, tuple(basis), False, partners[0]))
    return out


@dataclass(frozen=True)
class ComponentSignGroup:
    group: SignGroup
    pieces: tuple[PieceData, ...]
    center_relation: frozenset | None

    def matrix_for(self, pattern: frozenset) -> ExactMatrix:
        n = len(self.pieces[0].basis[0])
        columns = []
        order = []
        for p in self.pieces:
            sgn = -1 if p.label in pattern else 1
            for v in p.basis:
                order.append([frac(sgn) * frac(x) for x in v])
        basis = ExactMatrix.from_columns(
            [list(v) for p in self.pieces for v in p.basis]
        )
        flipped = ExactMatrix.from_columns(order)
        return flipped * basis.inverse()

    def pattern_of(self, m: ExactMatrix) -> frozenset:
        """Express a matrix acting by +-1 on every piece as a sign pattern."""
        pattern = set()
        for p in self.pieces:
            v = p.basis[0]
            image = m.apply(v)
            if image == tuple(frac(x) for x in v):
                sgn = 1
            elif image == tuple(-frac(x) for x in v):
                sgn = -1
            else:
                raise ValueError("matrix does not act by a sign on a piece")
            for w in p.basis[1:]:
                expected = tuple(frac(sgn) * frac(x) for x in w)
                if m.apply(w) != expected:
                    raise ValueError("matrix does not act by a sign on a piece")
            if sgn == -1:
                pattern.add(p.label)
        return self.canonical(pattern)

    def canonical(self, pattern) -> frozenset:
        pattern = frozenset(pattern)
        if self.center_relation is not None:
            alt = pattern ^ self.center_relation
            if (len(alt), sorted(alt)) < (len(pattern), sorted(pattern)):
                return alt
        return pattern


def component_sign_group(
    generators: Sequence[ExactMatrix],
    form: ExactMatrix,
    *,
    similitude_group: bool,
    special: bool,
    mod_center: bool,
) -> ComponentSignGroup:
    """Sign patterns on self-paired commutant pieces that satisfy the form
    condition, modulo the centre when requested.  Isotropically paired pieces
    sit in connected factors and contribute nothing."""
    pieces = _classify_pieces(_split_pieces(generators), form)
    self_labels = [p.label for p in pieces if p.self_paired]
    raw = ComponentSignGroup(SignGroup(self_labels, [frozenset()]), tuple(pieces), None)
    valid = []
    for r in range(len(self_labels) + 1):
        for subset in itertools.combinations(self_labels, r):
            pattern = frozenset(subset)
            m = raw.matrix_for(pattern)
            if any(m * g != g * m for g in generators):
                continue
            if similitude_group:
                if similitude_factor(m, form) is None:
                    continue
            else:
                if m.transpose() * form * m != form:
                    continue
            if special and m.det() != 1:
                continue
            valid.append(pattern)
    center = None
    if mod_center:
        all_pattern = frozenset(self_labels)
        if all_pattern in valid and all_pattern:
            center = all_pattern
    if center is not None:
        canon = lambda p: min((p, p ^ center), key=lambda s: (len(s), sorted(s)))
        valid = sorted({canon(p) for p in valid}, key=lambda s: (len(s), sorted(s)))
    group = SignGroup(self_labels, valid)
    return ComponentSignGroup(group, tuple(pieces), center)


# ---------------------------------------------------------------------------
# bounded parameter shapes


@dataclass(frozen=True)
class BoundedParameterDescriptor:
    shape: str
    generators: tuple[DualElement, ...]
    declared_rank: int


@dataclass(frozen=True)
class PacketMember:
    parent: BoundedParameterDescriptor
    label: str  # '' for a singleton packet, '+' or '-' for a pair


def packet_members(phi: BoundedParameterDescriptor) -> list[PacketMember]:
    if phi.declared_rank == 0:
        return [PacketMember(phi, "")]
    return [PacketMember(phi, "+"), PacketMember(phi, "-")]


def shape_catalog() -> dict[str, BoundedParameterDescriptor]:
    """Representative generator samples for the supported bounded shapes."""
    from .dualgroups import _GSP4_NILPOTENTS
    from .exactlin import matrix_exp_nilpotent

    c = frac(6)
    irr_gens = [
        DualElement(ExactMatrix.diagonal([2, 5, Fraction(3, 5), Fraction(3, 2)]), 3),
        DualElement(THETA_J, 1),
    ] + [DualElement(matrix_exp_nilpotent(n), 1) for n in _GSP4_NILPOTENTS]

    diag_a, diag_b = ExactMatrix.diagonal([2, 3]), ExactMatrix.diagonal([5, Fraction(6, 5)])
    flip = ExactMatrix([[0, 1], [-6, 0]])
    # the two 2-dim blocks vary independently across sample points
    two_two = [
        DualElement(embed_pair(diag_a, diag_b), c),
        DualElement(embed_pair(flip, ExactMatrix.diagonal([7, Fraction(6, 7)])), c),
        DualElement(embed_pair(ExactMatrix.diagonal([11, Fraction(6, 11)]), flip), c),
    ]

    dihedral_flip = ExactMatrix([[0, 1], [6, 0]])  # determinant -6 on both blocks
    two_two_dihedral = [
        DualElement(embed_pair(diag_a, diag_b), c),
        DualElement(embed_pair(dihedral_flip, dihedral_flip), -c),
    ]

    principal = [
        DualElement(ExactMatrix.diagonal([2, 3, Fraction(5, 3), Fraction(5, 2)]), 5),
        DualElement(ExactMatrix.diagonal([7, 2, Fraction(3, 2), Fraction(3, 7)]), 3),
    ]

    return {
        "irreducible": BoundedParameterDescriptor("irreducible", tuple(irr_gens), 0),
        "two_two_generic": BoundedParameterDescriptor("two_two_generic", tuple(two_two), 1),
        "two_two_dihedral": BoundedParameterDescriptor(
            "two_two_dihedral", tuple(two_two_dihedral), 1
        ),
        "principal_series": BoundedParameterDescriptor("principal_series", tuple(principal), 0),
    }


# ---------------------------------------------------------------------------
# projection and restriction


@dataclass(frozen=True)
class ProjectedParameter:
    parent: BoundedParameterDescriptor
    s_group: ComponentSignGroup          # component group upstairs
    s_group_prime: ComponentSignGroup    # component group downstairs
    embedded_s: frozenset | None         # image of the nontrivial element


def project_parameter(phi: BoundedParameterDescriptor) -> ProjectedParameter:
    """Push the samples through the projection and compute both component
    groups and the embedding of the upstairs group."""
    upstairs = component_sign_group(
        [e.g for e in phi.generators],
        THETA_J,
        similitude_group=True,
        special=False,
        mod_center=True,
    )
    if upstairs.group.rank != phi.declared_rank:
        raise ValueError(
            f"degenerate generator set: computed rank {upstairs.group.rank},"
            f" declared {phi.declared_rank}"
        )
    downstairs_gens = [project_to_so5(e) for e in phi.generators]
    if all(g == ExactMatrix.identity(5) for g in downstairs_gens):
        raise ValueError("degenerate generator set: projection is trivial")
    downstairs = component_sign_group(
        downstairs_gens,
        SO5_GRAM,
        similitude_group=False,
        special=True,
        mod_center=False,
    )
    embedded = None
    if upstairs.group.rank == 1:
        (nontrivial,) = [e for e in upstairs.group.elements if e]
        s_mat = upstairs.matrix_for(nontrivial)
        x = similitude_factor(s_mat, THETA_J)
        s_prime = project_to_so5(DualElement(s_mat, x))
        embedded = downstairs.pattern_of(s_prime)
        if not downstairs.group.contains(embedded):
            raise ValueError("image of the sign element is not a component")
        if embedded == frozenset():
            raise ValueError("embedding of the component group is not injective")
    return ProjectedParameter(phi, upstairs, downstairs, embedded)


def restrict_member(member: PacketMember, proj: ProjectedParameter) -> frozenset:
    """The set of downstairs characters occurring in the restriction of one
    packet member."""
    if member.parent != proj.parent:
        raise ValueError("member belongs to a different parameter")
    chars = proj.s_group_prime.group.characters()
    if proj.s_group.group.rank == 0:
        return frozenset(chars)
    want = 1 if member.label == "+" else -1
    return frozenset(ch for ch in chars if ch.evaluate(proj.embedded_s) == want)


@dataclass(frozen=True)
class CountReport:
    shape: str
    ok: bool
    packet_sizes: tuple[int, ...]
    dual_size: int

    def message(self) -> str:
        s = "+".join(str(k) for k in self.packet_sizes) or "0"
        return (
            f"{'pass' if self.ok else 'FAIL'} restriction count[{self.shape}]:"
            f" {s} = {self.dual_size}"
        )


def restriction_count_identity(proj: ProjectedParameter) -> CountReport:
    """The restrictions of all members partition the downstairs dual."""
    members = packet_members(proj.parent)
    parts = [restrict_member(m, proj) for m in members]
    all_chars = set(proj.s_group_prime.group.characters())
    union = set()
    disjoint = True
    for p in parts:
        if union & p:
            disjoint = False
        union |= p
    ok = disjoint and union == all_chars
    return CountReport(
        shape=proj.parent.shape,
        ok=ok,
        packet_sizes=tuple(len(p) for p in parts),
        dual_size=len(all_chars),
    )


# ---------------------------------------------------------------------------
# restriction on the endoscopic side (pairs of 2x2 blocks down to SO4)

SO4_FORM = kron(ExactMatrix([[0, 1], [-1, 0]]), ExactMatrix([[0, 1], [-1, 0]]))


@dataclass(frozen=True)
class PairParameterDescriptor:
    """Bounded parameter of the pair group: samples (a, b) with det a = det b."""

    shape: str
    pairs: tuple[tuple[ExactMatrix, ExactMatrix], ...]


def gso4_shape_catalog() -> dict[str, PairParameterDescriptor]:
    diag_a, diag_b = ExactMatrix.diagonal([2, 3]), ExactMatrix.diagonal([5, Fraction(6, 5)])
    flip6 = ExactMatrix([[0, 1], [-6, 0]])
    generic = ((diag_a, diag_b), (flip6, ExactMatrix([[1, 1], [-2, 4]])))
    dihedral = ((diag_a, diag_b), (ExactMatrix([[0, 1], [6, 0]]), ExactMatrix([[0, 1], [6, 0]])))
    return {
        "gso4_generic": PairParameterDescriptor("gso4_generic", generic),
        "gso4_dihedral_pair": PairParameterDescriptor("gso4_dihedral_pair", dihedral),
    }


def restrict_gso4(phi: PairParameterDescriptor) -> tuple[ComponentSignGroup, frozenset]:
    """The single member downstairs restriction: the full packet, as a set.

    Returns the downstairs component group and the (duplicate-free) set of
    its characters."""
    gens = []
    for a, b in phi.pairs:
        if a.det() != b.det():
            raise ValueError("pair members must have equal determinants")
        gens.append(kron(a, b).scale(ONE / a.det()))
    for g in gens:
        if g.transpose() * SO4_FORM * g != SO4_FORM or g.det() != 1:
            raise ValueError("pair image must be special orthogonal")
    downstairs = component_sign_group(
        gens, SO4_FORM, similitude_group=False, special=True, mod_center=True
    )
    chars = downstairs.group.characters()
    out = frozenset(chars)
    assert len(out) == len(chars), "restriction must be multiplicity free"
    return downstairs, out
