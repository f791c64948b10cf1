"""Formal global parameters and their classification.

A parameter is an unordered sum of pairs (cuspidal handle, d) with a
similitude character chi; discreteness, membership in the discrete set of a
target group, the six-type classification with component group / automorphy
character / distinguished sign element, and the multiplicity formula live
here, as does the component-group oracle, which reads the group off the
realization `dualgroups.realize_shape` with `restriction.sign_patterns`.

A component group is a `restriction.TwoGroup` of label sets.  Its elements,
its characters (each as the labels it flips, valued (-1)^|flips & element|)
and the sign element (the labels of the even-d summands) are all frozensets
of labels, multiplied by symmetric difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

from .characters import CharacterGroup, HeckeCharacterHandle
from .dualgroups import GSPIN5, GroupTag, THETA_J, realize_shape, summand_blocks
from .exactlin import ExactMatrix, commutant_basis, frac, similitude_factor
from .restriction import PieceData, TwoGroup, sign_patterns

# ---------------------------------------------------------------------------
# handles and formal parameters


@dataclass(frozen=True)
class CuspidalHandle:
    """Symbolic chi-self-dual cuspidal/discrete handle on GL_N, 1 <= N <= 5.
    Its duality type is read off its characters (`sign`); `check_selfdual`
    says whether the characters are consistent."""

    id: str
    N: int
    central_character: HeckeCharacterHandle
    chi: HeckeCharacterHandle
    tensor_origin: tuple[str, str] | None = None

    @property
    def sign(self) -> int:
        """+1 orthogonal, -1 symplectic.  Odd N is orthogonal; GL2 is
        symplectic iff omega = chi (wedge^2 pi = omega); GL4 iff omega = chi^2
        and it is not a tensor transfer."""
        omega, chi = self.central_character, self.chi
        if self.N == 2:
            return -1 if omega == chi else 1
        if self.N == 4 and self.tensor_origin is None:
            chi_sq = tuple((g, 2 * e) for g, e in chi.free)
            return -1 if omega.free == chi_sq and not omega.torsion else 1
        return 1


def check_selfdual(group: CharacterGroup, handle: CuspidalHandle) -> None:
    """The one handle validator: omega^2 = chi^N, and chi a square for odd N.
    For even N the ratio omega / chi^(N/2), trivial or of order two, is
    trivial under a tensor origin, and otherwise has a declared square class
    (an orthogonal GL2 or GL4 handle)."""
    omega = handle.central_character
    if group.pow(omega, 2) != group.pow(handle.chi, handle.N):
        raise ValueError(f"{handle.id}: central character squared != chi^N")
    if handle.N % 2 and not handle.chi.square_root_exists:
        raise ValueError(f"{handle.id}: odd N forces chi to be a square")
    ratio = group.ratio(omega, group.pow(handle.chi, handle.N // 2))
    if handle.N % 2 or ratio.is_trivial:
        return
    if handle.tensor_origin is not None:
        raise ValueError(f"{handle.id}: tensor origin with omega != chi^2")
    if group.class_of_character(ratio) is None:
        raise ValueError(f"{handle.id}: no declared square class for {ratio.id}")


def character_summand(group: CharacterGroup, eta: HeckeCharacterHandle, chi: HeckeCharacterHandle) -> CuspidalHandle:
    """A GL1 summand; chi-self-dual means eta^2 = chi, always orthogonal."""
    if group.pow(eta, 2) != chi:
        raise ValueError("character summand must square to chi")
    return CuspidalHandle(id=f"char:{eta.id}", N=1, central_character=eta, chi=chi)


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
# the tensor transfer


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
    alpha_class: str | None = None,
) -> MembershipReport:
    """Size, discreteness, per-summand sign condition, and (even GSpin only)
    the square-class condition on the product of central characters."""
    if psi.total_dim != target.std_dim:
        return MembershipReport(False, f"parameter has size {psi.total_dim}, target needs {target.std_dim}")
    if not psi.is_discrete():
        return MembershipReport(False, "not discrete: repeated summand")
    for h, d in psi.summands:
        if h.chi != psi.chi:
            return MembershipReport(False, f"summand {h.id} is self-dual against the wrong character")
        sign = h.sign
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
        expected = group.class_character(alpha_class or target.alpha)
        if prod != expected:
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
    """(letter, label, shape): the shape is the (N, d) pairs of the type's
    summands in `FormalParameter.sorted_summands` order."""

    GENERAL = ("a", "General", ((4, 1),))
    YOSHIDA = ("b", "Yoshida", ((2, 1), (2, 1)))
    SOUDRY = ("c", "Soudry", ((2, 2),))
    SAITO_KUROKAWA = ("d", "SaitoKurokawa", ((2, 1), (1, 2)))
    HOWE_PS = ("e", "HowePiatetskiShapiro", ((1, 2), (1, 2)))
    ONE_DIMENSIONAL = ("f", "OneDimensional", ((1, 4),))

    @property
    def letter(self) -> str:
        return self.value[0]

    @property
    def label(self) -> str:
        return self.value[1]

    @property
    def shape(self) -> tuple[tuple[int, int], ...]:
        return self.value[2]


_TYPE_OF_SHAPE = {t.shape: t for t in ArthurType}


@dataclass(frozen=True)
class Classification:
    arthur_type: ArthurType
    component_group: TwoGroup
    automorphy_character: frozenset  # the labels it flips
    sign_element: frozenset  # the labels of the even-d summands

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
    discrete parameter for the rank-two odd similitude spin group: the type
    whose shape psi has."""
    require_membership(group, psi, GSPIN5)
    summands = psi.sorted_summands()
    shape = tuple((h.N, d) for h, d in summands)
    kind = _TYPE_OF_SHAPE.get(shape)
    if kind is None:
        raise ValueError(f"unclassifiable shape {shape}")
    sgroup = component_group_table(psi)
    flipped = sgroup.basis_labels if kind is ArthurType.SAITO_KUROKAWA and root_number_minus else ()
    s_elt = frozenset(h.id for h, d in summands if d % 2 == 0)
    return Classification(kind, sgroup, frozenset(flipped), s_elt)


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
    local_data: Sequence[tuple[str, frozenset]],
    target: GroupTag | None = None,
    root_number_minus: bool = False,
) -> int:
    """The number of copies in the discrete spectrum: the prefactor if the
    product of the local characters equals the automorphy character, else 0.

    Only finitely many places contribute; unlisted places are trivial.  A psi
    outside the discrete set of the target raises ValueError."""
    target = target or GSPIN5
    if target != GSPIN5:  # classify checks membership for GSPIN5 itself
        require_membership(group, psi, target)
    if target.family == "gspin_odd":
        cls = classify(group, psi, root_number_minus=root_number_minus)
        sgroup, eps = cls.component_group, cls.automorphy_character
    else:
        sgroup = component_group_table(psi)
        eps = frozenset()
    # the product of the local characters equals eps iff eps times it is trivial
    for _place, ch in local_data:
        eps ^= sgroup.character(dict.fromkeys(ch, -1))  # validates ch
    return multiplicity_prefactor(psi, target) if sgroup.is_trivial(eps) else 0


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


def realize(psi: FormalParameter) -> list[ExactMatrix]:
    """`realize_shape` on the shape of psi, once it has a realization."""
    summands = psi.sorted_summands()
    blocks = summand_blocks(len(summands))
    if len(summands) > 2 or any(h.N * d != len(b) for (h, d), b in zip(summands, blocks)):
        raise ValueError(f"no realization for shape {tuple((h.N, d) for h, d in summands)}")
    return list(realize_shape(tuple((h.N, d, h.sign) for h, d in summands)))


@dataclass(frozen=True)
class OracleResult:
    component_group: TwoGroup
    sign_element: frozenset

    def agrees_with(self, cls: Classification) -> bool:
        table_group = cls.component_group
        if table_group.rank != self.component_group.rank:
            return False
        return table_group.canonical(cls.sign_element) == self.sign_element


def component_group_oracle(psi: FormalParameter) -> OracleResult:
    """Compute the component group from matrices, independently of
    `component_group_table`: the commutant of `realize(psi)` in GSp4,
    with components found by `restriction.sign_patterns` on one self-paired
    piece per summand, its block of `summand_blocks`, modulo the center, and
    the sign element read as a pattern off the realized SL2."""
    summands = psi.sorted_summands()
    generators = realize(psi)
    if any(similitude_factor(g, THETA_J) is None for g in generators):
        raise ValueError("realization outside GSp4")
    dim = len(commutant_basis(generators))
    k = len(summands)
    if dim != k:
        raise ValueError(f"degenerate realization: commutant dimension {dim}, expected {k}")
    # piece c is the frame of the unit vectors e_j, j in c
    pieces = [
        PieceData(h.id, ExactMatrix([[int(i == j) for j in c] for i in range(4)]), True)
        for (h, _), c in zip(summands, summand_blocks(k))
    ]
    signs = sign_patterns(pieces, generators, THETA_J)
    # s_psi is the image of -1 in SL2: (exp(e) exp(f)^-1 exp(e))^2
    e, f = generators[-2:]
    w = e * f.inverse() * e
    return OracleResult(component_group=signs.group, sign_element=signs.pattern_of(w * w))
