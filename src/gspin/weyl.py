"""Standard Levi bookkeeping and regular twisted Weyl elements.

Levi classes are ordered partitions n = n_1 + ... + n_r + m subject to the
residual-rank constraints of each family.  A relative Weyl element is a
signed permutation of the Levi's blocks that keeps block sizes; in the GL
family the inverse-transpose twist makes every sign -1.  The
block-coordinate space modulo the central line carries it as a linear
action, making the regularity criterion a plain determinant."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .dualgroups import GroupTag
from .exactlin import ExactMatrix


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
    """Element of the relative Weyl set of a Levi: a signed permutation of
    its blocks.  Block j goes to block images[j], of the same size, with sign
    signs[j]; in the GL family the inverse-transpose twist makes every sign
    -1."""

    levi: LeviDescriptor
    images: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        blocks = self.levi.blocks
        if sorted(self.images) != list(range(len(blocks))) or len(self.signs) != len(blocks):
            raise ValueError("images must permute the blocks, with one sign per block")
        if any(blocks[i] != k for i, k in zip(self.images, blocks)):
            raise ValueError("a block must go to a block of its own size")
        allowed = {-1} if self.levi.group.family == "gl_gl1" else {1, -1}
        if not set(self.signs) <= allowed:
            raise ValueError(f"signs must lie in {sorted(allowed)}")


def enumerate_weyl_elements(levi: LeviDescriptor) -> list[TwistedWeylElement]:
    """All relative Weyl elements of the Levi (the twisted component in the GL
    family).  A split even group with no residual rank keeps only the index-two
    subgroup: an even number of sign flips on the odd-size blocks."""
    blocks = levi.blocks
    r = len(blocks)
    perms = [p for p in itertools.permutations(range(r)) if all(blocks[i] == k for i, k in zip(p, blocks))]
    if levi.group.family == "gl_gl1":
        return [TwistedWeylElement(levi, p, (-1,) * r) for p in perms]
    index_two = levi.group.family == "gspin_even" and levi.m == 0
    return [
        TwistedWeylElement(levi, p, signs)
        for p in perms
        for signs in itertools.product((1, -1), repeat=r)
        if not (index_two and sum(k % 2 == 1 and s == -1 for k, s in zip(blocks, signs)) % 2)
    ]


def is_regular(w: TwistedWeylElement) -> bool:
    """Every cycle of the block permutation has sign product -1; in the GL
    family, where every sign is -1, every cycle has odd length."""
    seen: set[int] = set()
    for start in range(len(w.images)):
        if start in seen:
            continue
        prod, i = 1, start
        while i not in seen:
            seen.add(i)
            prod *= w.signs[i]
            i = w.images[i]
        if prod != -1:
            return False
    return True


def action_determinant(w: TwistedWeylElement) -> Fraction:
    """det of (action - 1) on the block-coordinate space (one coordinate per
    block) modulo the centre; the action is the signed permutation matrix."""
    r = len(w.images)
    if r == 0:
        return Fraction(1)
    m = [[0] * r for _ in range(r)]  # action - 1, column by column
    for j, (i, s) in enumerate(zip(w.images, w.signs)):
        m[i][j] += s
        m[j][j] -= 1
    d = ExactMatrix(m).det()
    if w.levi.group.family == "gl_gl1":
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
