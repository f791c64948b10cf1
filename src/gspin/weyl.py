"""Standard Levi bookkeeping and regular twisted Weyl elements.

Levi classes are ordered partitions n = n_1 + ... + n_r + m subject to the
residual-rank constraints of each family.  Relative Weyl elements are stored
combinatorially: a permutation per block-size class, with signs in the spin
families and an implicit inverse-transpose twist in the GL family.  The
block-coordinate space modulo the central line carries the induced linear
action, making the regularity criterion a plain determinant."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .dualgroups import GroupTag
from .exactlin import ExactMatrix, frac, ZERO


# ---------------------------------------------------------------------------
# Levi descriptors


@dataclass(frozen=True)
class LeviDescriptor:
    group: GroupTag
    blocks: tuple[int, ...]
    m: int
    outer_copy: bool = False

    def __post_init__(self):
        if sum(self.blocks) + self.m != self.group.n and self.group.family != "gl_gl1":
            raise ValueError("blocks and residual rank must fill the group rank")
        if self.group.family == "gl_gl1" and sum(self.blocks) != self.group.n:
            raise ValueError("blocks must partition N")

    @property
    def size_classes(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for b in self.blocks:
            out[b] = out.get(b, 0) + 1
        return out

    def describe(self) -> str:
        parts = [f"GL{k}" for k in self.blocks]
        if self.group.family == "gl_gl1":
            tail = "GL1"
        else:
            # the residual group; a rank-zero GSpin is split
            tail = GroupTag(self.group.family, self.m, self.group.alpha if self.m else "1").describe()
        name = " x ".join(parts + [tail])
        return name + (" (outer copy)" if self.outer_copy else "")


def enumerate_levis(group: GroupTag) -> list[LeviDescriptor]:
    """All standard Levi classes of the supported rank-two groups (and the
    block Levis of GL4 x GL1), including duplicate outer copies."""
    fam = group.family
    if fam == "gl_gl1":
        if group.n != 4:
            raise ValueError("only GL4 x GL1 is supported")
        partitions = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        return [LeviDescriptor(group, p, 0) for p in partitions]
    if group.n != 2:
        raise ValueError("only rank-two spin-type groups are supported")
    out = []
    for blocks, m in (((), 2), ((1,), 1), ((2,), 0), ((1, 1), 0)):
        if fam == "gspin_even":
            if group.alpha != "1" and m == 0:
                continue  # residual rank must stay positive for non-split
            if group.alpha == "1" and m == 1:
                continue  # split even groups exclude residual rank one
        out.append(LeviDescriptor(group, blocks, m))
        if fam == "gspin_even" and group.alpha == "1" and m == 0 and blocks and blocks[-1] > 1:
            out.append(LeviDescriptor(group, blocks, m, outer_copy=True))
    return out


# ---------------------------------------------------------------------------
# twisted Weyl elements


@dataclass(frozen=True)
class TwistedWeylElement:
    """Element of the relative Weyl set of a Levi.

    perms maps a block size k to a permutation of the n_k same-size blocks
    (tuple of images).  signs carries the per-block sign flips in the spin
    families; the GL family has an implicit global inverse-transpose twist
    instead."""

    levi: LeviDescriptor
    perms: tuple[tuple[int, tuple[int, ...]], ...]
    signs: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def sign(self, k: int) -> tuple[int, ...]:
        return dict(self.signs)[k]

    @property
    def twisted_gl(self) -> bool:
        return self.levi.group.family == "gl_gl1"


def _cycles(perm: tuple[int, ...]) -> list[list[int]]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = perm[i]
        out.append(cyc)
    return out


def element_is_valid(w: TwistedWeylElement) -> bool:
    """Whether the combinatorial data lies in the image of the relative Weyl
    set; the only failure is the index-two condition for split even groups
    with no residual rank and an odd block size present."""
    levi = w.levi
    if levi.group.family != "gspin_even" or levi.m != 0:
        return True
    if not any(k % 2 == 1 for k in levi.size_classes):
        return True
    flips = 0
    for k, signs in w.signs:
        if k % 2 == 1:
            flips += sum(1 for s in signs if s == -1)
    return flips % 2 == 0


def enumerate_weyl_elements(levi: LeviDescriptor) -> list[TwistedWeylElement]:
    """All valid relative Weyl elements of the Levi (the twisted component in
    the GL family)."""
    classes = sorted(levi.size_classes.items())
    perm_choices = []
    for k, nk in classes:
        perm_choices.append([(k, p) for p in itertools.permutations(range(nk))])
    out = []
    if levi.group.family == "gl_gl1":
        for perms in itertools.product(*perm_choices) if perm_choices else [()]:
            out.append(TwistedWeylElement(levi, tuple(perms)))
        return out
    sign_choices = []
    for k, nk in classes:
        sign_choices.append([(k, s) for s in itertools.product((1, -1), repeat=nk)])
    for perms in itertools.product(*perm_choices) if perm_choices else [()]:
        for signs in itertools.product(*sign_choices) if sign_choices else [()]:
            w = TwistedWeylElement(levi, tuple(perms), tuple(signs))
            if element_is_valid(w):
                out.append(w)
    return out


def is_regular(w: TwistedWeylElement) -> bool:
    """GL family: every cycle of every permutation has odd length.  Spin
    families: every cycle has sign product -1."""
    if w.twisted_gl:
        return all(len(c) % 2 == 1 for k, p in w.perms for c in _cycles(p))
    for k, p in w.perms:
        signs = w.sign(k)
        for cyc in _cycles(p):
            prod = 1
            for i in cyc:
                prod *= signs[i]
            if prod != -1:
                return False
    return True


def _action_matrix(w: TwistedWeylElement) -> ExactMatrix:
    """The induced action on the block-coordinate space (one coordinate per
    block, all size classes together)."""
    order: list[tuple[int, int]] = []
    for k, nk in sorted(w.levi.size_classes.items()):
        order.extend((k, i) for i in range(nk))
    idx = {pair: n for n, pair in enumerate(order)}
    r = len(order)
    m = [[ZERO] * r for _ in range(r)]
    for k, p in w.perms:
        signs = dict(w.signs).get(k, tuple([1] * len(p))) if not w.twisted_gl else tuple([-1] * len(p))
        for j in range(len(p)):
            i = p[j]
            m[idx[(k, i)]][idx[(k, j)]] = frac(signs[j])
    return ExactMatrix(m)


def action_determinant(w: TwistedWeylElement) -> Fraction:
    """det of (action - 1) on the block-coordinate space modulo the centre."""
    r = sum(w.levi.size_classes.values())
    if r == 0:
        return Fraction(1)
    m = _action_matrix(w)
    d = (m - ExactMatrix.identity(r)).det()
    if w.twisted_gl:
        # quotient by the scalar line, an eigenvector of the action with
        # eigenvalue -1, on which action - 1 scales by -2
        return d / Fraction(-2)
    return d


def det_factor(w: TwistedWeylElement) -> Fraction:
    """|det(action - 1)| on the block-coordinate space; positive for regular
    elements, error otherwise."""
    if not is_regular(w):
        raise ValueError("determinant factor requested for a non-regular element")
    d = action_determinant(w)
    assert d != 0
    return abs(d)
