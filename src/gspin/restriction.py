"""Packet restriction calculus.

Bounded parameters are carried as finite exact generator samples plus a shape
tag; component groups on both sides of the projection are recomputed from the
commutant algebra: the underlying space is split into joint eigenspace pieces,
one column frame each, each piece is classified by the restricted pairing
(self-paired versus isotropically paired), and component representatives are
the admissible sign patterns on self-paired pieces, modulo the centre and the
connected part.  They form a TwoGroup, the 2-group type of every component
group in the package, kept here beside the engine that builds them.  A packet
member is its label alone ('packet', or '+' and '-': a GSp4 packet has at most
two members), and CountReport.constituents records what each restricts to."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .dualgroups import GSO4_GRAM, SO5_GRAM, THETA_J, embed_pair, project_to_so5, realize_shape
from .exactlin import (
    ExactMatrix,
    commutant_basis,
    kron,
    pairing_matrix,
    rational_eigensplit,
    restrict_to,
    similitude_factor,
    ONE,
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

    @property
    def order(self) -> int:
        return len(self._elements)

    @property
    def rank(self) -> int:
        return self.order.bit_length() - 1

    def elements(self) -> list[frozenset]:
        return list(self._elements)

    def characters(self) -> list[frozenset]:
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
                    out.append(flips)
        assert len(out) == self.order
        return out

    def character(self, values: Mapping[str, int]) -> frozenset:
        """The character with the given sign at each label (+1 where omitted),
        as the labels it flips."""
        self._pattern(values)  # every label must name a basis label
        if any(v not in (1, -1) for v in values.values()):
            raise ValueError("character values must be +-1")
        flips = frozenset(lab for lab, v in values.items() if v == -1)
        if any(self.value(flips, rel) != 1 for rel in self.relations):
            raise ValueError("character violates the relations of the group")
        return flips

    @staticmethod
    def value(character: frozenset, element: Iterable[str]) -> int:
        """(-1) to the number of the element's labels the character flips."""
        return -1 if len(character.intersection(element)) % 2 else 1

    def is_trivial(self, character: frozenset) -> bool:
        """Whether the character is 1 on every element."""
        return all(self.value(character, e) == 1 for e in self._elements)

    def __eq__(self, other):
        return (
            isinstance(other, TwoGroup)
            and self.basis_labels == other.basis_labels
            and self.relations == other.relations
            and self._members == other._members
        )

    def __repr__(self):
        return f"TwoGroup(rank={self.rank}, basis={self.basis_labels})"


# ---------------------------------------------------------------------------
# commutant pieces


def _split_pieces(generators: Sequence[ExactMatrix]) -> list[ExactMatrix]:
    """Joint eigenspace decomposition under the commutant algebra, one frame
    per piece.

    One pass over the commutant basis splits every piece into the rational
    generalized eigenspaces of each basis element b in turn.  After b has
    split a piece, b has one eigenvalue on every smaller piece cut from it
    later, so a second pass would split nothing; the one thing it would do
    is check that every final piece is invariant under every b, and that
    check follows the pass."""
    algebra = commutant_basis(generators)
    pieces = [ExactMatrix.identity(generators[0].rows)]
    for b in algebra:
        new_pieces = []
        for span in pieces:
            restricted = restrict_to(b, span) if span.cols > 1 else None
            if restricted is None or restricted.is_scalar():
                new_pieces.append(span)
                continue
            parts = rational_eigensplit(restricted)
            if sum(sub.cols for _lam, sub in parts) != span.cols:
                raise ValueError("degenerate generator set: irrational commutant spectrum")
            new_pieces.extend(span * sub for _lam, sub in parts)
        pieces = new_pieces
    for b in algebra:
        for span in pieces:
            restrict_to(b, span)  # raises unless the piece is b-invariant
    return pieces


@dataclass(frozen=True)
class PieceData:
    label: str
    basis: ExactMatrix  # a frame: the piece's basis vectors are its columns
    self_paired: bool


def _classify_pieces(pieces: list[ExactMatrix], form: ExactMatrix) -> list[PieceData]:
    named = [(f"p{i}", basis) for i, basis in enumerate(pieces)]
    out = []
    for label, basis in named:
        self_block = pairing_matrix(form, basis, basis)
        if self_block.det() != 0:
            out.append(PieceData(label, basis, True))
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
        out.append(PieceData(label, basis, False))
    return out


@dataclass(frozen=True)
class ComponentSignGroup:
    group: TwoGroup
    pieces: tuple[PieceData, ...]
    # the inverse of the matrix whose columns are the piece bases, in order
    basis_inverse: ExactMatrix = field(repr=False, compare=False)

    def matrix_for(self, pattern: frozenset) -> ExactMatrix:
        flipped = [-p.basis if p.label in pattern else p.basis for p in self.pieces]
        return ExactMatrix.hstack(flipped) * self.basis_inverse

    def pattern_of(self, m: ExactMatrix) -> frozenset:
        """Express a matrix acting by +-1 on every piece as a sign pattern."""
        pattern = set()
        for p in self.pieces:
            image = m * p.basis
            if image == -p.basis:
                pattern.add(p.label)
            elif image != p.basis:
                raise ValueError("matrix does not act by a sign on a piece")
        return self.group.canonical(pattern)


def _in_group(m: ExactMatrix, form: ExactMatrix) -> bool:
    """Membership in the group the form names: similitudes of an alternating
    form, special isometries of a symmetric one."""
    if form.is_antisymmetric():
        return similitude_factor(m, form) is not None
    if form.is_symmetric():
        return similitude_factor(m, form) == 1 and m.det() == 1
    raise ValueError("form must be alternating or symmetric")


def sign_patterns(
    pieces: Sequence[PieceData], generators: Sequence[ExactMatrix], form: ExactMatrix
) -> ComponentSignGroup:
    """The sign patterns on the self-paired pieces that commute with the
    generators and lie in the group of the form, modulo the all-flip pattern
    when it is one of them."""
    pieces = tuple(pieces)
    self_labels = [p.label for p in pieces if p.self_paired]
    basis_inverse = ExactMatrix.hstack([p.basis for p in pieces]).inverse()
    raw = ComponentSignGroup(TwoGroup(self_labels, elements=[frozenset()]), pieces, basis_inverse)
    valid = []
    for r in range(len(self_labels) + 1):
        for subset in itertools.combinations(self_labels, r):
            pattern = frozenset(subset)
            m = raw.matrix_for(pattern)
            if all(m * g == g * m for g in generators) and _in_group(m, form):
                valid.append(pattern)
    # isotropic partners have equal dimensions, so the all-flip pattern has
    # the determinant of -1: it is a component only when -1 is in the group,
    # and then it agrees with -1 up to the connected factors of the pairs
    center = frozenset(self_labels)
    relations = [center] if center and center in valid else []
    group = TwoGroup(self_labels, relations, elements=valid)
    return ComponentSignGroup(group, pieces, basis_inverse)


def component_sign_group(generators: Sequence[ExactMatrix], form: ExactMatrix) -> ComponentSignGroup:
    """The component group of the generators' centralizer in the group of
    the form (see `sign_patterns`), read off the commutant pieces.
    Isotropically paired pieces sit in connected factors and contribute
    nothing."""
    return sign_patterns(_classify_pieces(_split_pieces(generators), form), generators, form)


# ---------------------------------------------------------------------------
# bounded parameter shapes


@dataclass(frozen=True)
class BoundedParameterDescriptor:
    shape: str
    generators: tuple[ExactMatrix, ...]
    declared_rank: int


@functools.cache
def shape_catalog() -> Mapping[str, BoundedParameterDescriptor]:
    """Representative generator samples of the bounded shapes, built once, read-only."""
    two_two_dihedral = tuple(embed_pair(a, b) for a, b in gso4_shape_catalog()["gso4_dihedral_pair"])
    principal = (
        ExactMatrix.diagonal([2, 3, Fraction(5, 3), Fraction(5, 2)]),
        ExactMatrix.diagonal([7, 2, Fraction(3, 2), Fraction(3, 7)]),
    )
    return MappingProxyType({
        "irreducible": BoundedParameterDescriptor("irreducible", realize_shape(((4, 1, -1),)), 0),
        "two_two_generic": BoundedParameterDescriptor("two_two_generic", realize_shape(((2, 1, -1), (2, 1, -1))), 1),
        "two_two_dihedral": BoundedParameterDescriptor("two_two_dihedral", two_two_dihedral, 1),
        "principal_series": BoundedParameterDescriptor("principal_series", principal, 0),
    })


# ---------------------------------------------------------------------------
# projection and restriction


@dataclass(frozen=True)
class ProjectedParameter:
    parent: BoundedParameterDescriptor
    s_group: ComponentSignGroup          # component group upstairs
    s_group_prime: ComponentSignGroup    # component group downstairs
    embedded_s: frozenset | None         # image of the nontrivial element


@functools.cache
def project_parameter(phi: BoundedParameterDescriptor) -> ProjectedParameter:
    """Push the samples through the projection and compute both component
    groups and the embedding of the upstairs group, once per descriptor value."""
    upstairs = component_sign_group(phi.generators, THETA_J)
    if upstairs.group.rank != phi.declared_rank:
        raise ValueError(
            f"degenerate generator set: computed rank {upstairs.group.rank},"
            f" declared {phi.declared_rank}"
        )
    downstairs_gens = [project_to_so5(g) for g in phi.generators]
    if all(g == ExactMatrix.identity(5) for g in downstairs_gens):
        raise ValueError("degenerate generator set: projection is trivial")
    downstairs = component_sign_group(downstairs_gens, SO5_GRAM)
    embedded = None
    if upstairs.group.rank == 1:
        (nontrivial,) = [e for e in upstairs.group.elements() if e]
        embedded = downstairs.pattern_of(project_to_so5(upstairs.matrix_for(nontrivial)))
        if not downstairs.group.contains(embedded):
            raise ValueError("image of the sign element is not a component")
        if embedded == frozenset():
            raise ValueError("embedding of the component group is not injective")
    return ProjectedParameter(phi, upstairs, downstairs, embedded)


@dataclass(frozen=True)
class CountReport:
    shape: str
    ok: bool
    packet_sizes: tuple[int, ...]
    dual_size: int
    constituents: tuple[tuple[str, frozenset], ...]  # (member label or "packet", its restriction)

    def message(self) -> str:
        s = "+".join(str(k) for k in self.packet_sizes) or "0"
        return (
            f"{'pass' if self.ok else 'FAIL'} restriction count[{self.shape}]:"
            f" {s} = {self.dual_size}"
        )


def restriction_count_identity(proj: ProjectedParameter) -> CountReport:
    """Restrict each packet member once; the restrictions must partition the
    downstairs dual.  A packet with trivial component group is one member,
    which gets every character; else its members '+' and '-' get those
    taking that sign at s', the image of the nontrivial component."""
    chars = proj.s_group_prime.group.characters()
    if proj.s_group.group.rank == 0:
        constituents = (("packet", frozenset(chars)),)
    else:
        constituents = tuple(
            (label, frozenset(ch for ch in chars if TwoGroup.value(ch, proj.embedded_s) == sign))
            for label, sign in (("+", 1), ("-", -1))
        )
    parts = [part for _label, part in constituents]
    union = set().union(*parts)  # the parts are disjoint when their sizes add up to its size
    return CountReport(
        shape=proj.parent.shape,
        ok=union == set(chars) and sum(map(len, parts)) == len(union),
        packet_sizes=tuple(map(len, parts)),
        dual_size=len(chars),
        constituents=constituents,
    )


# ---------------------------------------------------------------------------
# restriction on the endoscopic side (pairs of 2x2 blocks down to SO4, whose
# form GSO4_GRAM is the Kronecker square of the 2x2 symplectic form)

def gso4_shape_catalog() -> dict[str, tuple[tuple[ExactMatrix, ExactMatrix], ...]]:
    """Bounded parameters of the pair group, by name: samples (a, b) with
    det a = det b."""
    diag_a, diag_b = ExactMatrix.diagonal([2, 3]), ExactMatrix.diagonal([5, Fraction(6, 5)])
    flip6 = ExactMatrix([[0, 1], [-6, 0]])
    generic = ((diag_a, diag_b), (flip6, ExactMatrix([[1, 1], [-2, 4]])))
    dihedral = ((diag_a, diag_b), (ExactMatrix([[0, 1], [6, 0]]), ExactMatrix([[0, 1], [6, 0]])))
    return {"gso4_generic": generic, "gso4_dihedral_pair": dihedral}


def restrict_gso4(pairs: tuple[tuple[ExactMatrix, ExactMatrix], ...]) -> tuple[ComponentSignGroup, frozenset]:
    """The single member's downstairs restriction, the full packet: the
    downstairs component group and the (duplicate-free) set of its characters."""
    gens = []
    for a, b in pairs:
        if a.det() != b.det():
            raise ValueError("pair members must have equal determinants")
        gens.append(kron(a, b).scale(ONE / a.det()))
    if not all(_in_group(g, GSO4_GRAM) for g in gens):
        raise ValueError("pair image must be special orthogonal")
    downstairs = component_sign_group(gens, GSO4_GRAM)
    return downstairs, frozenset(downstairs.group.characters())
