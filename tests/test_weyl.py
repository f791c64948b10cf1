import pytest

from gspin.dualgroups import GL4_GL1, GSPIN5, SP4_GL1, gspin_even_tag
from gspin.weyl import (
    LeviDescriptor,
    TwistedWeylElement,
    action_determinant,
    det_factor,
    enumerate_levis,
    enumerate_weyl_elements,
    is_regular,
)


GSPIN4 = gspin_even_tag("1")
GSPIN4A = gspin_even_tag("alpha")
ALL_GROUPS = [GL4_GL1, GSPIN5, GSPIN4, SP4_GL1]


def test_levi_counts():
    assert len(enumerate_levis(GSPIN5)) == 4
    assert len(enumerate_levis(SP4_GL1)) == 4
    assert len(enumerate_levis(GL4_GL1)) == 5
    levis4 = enumerate_levis(GSPIN4)
    # full, GL2 x GSpin0 (two copies), GL1 x GL1 x GSpin0
    assert len(levis4) == 4
    assert sum(1 for l in levis4 if l.outer_copy) == 1
    assert not any(l.m == 1 for l in levis4)
    levis4a = enumerate_levis(GSPIN4A)
    assert [(l.blocks, l.m) for l in levis4a] == [((), 2), ((1,), 1)]


def test_levi_contains_full_group():
    for g in (GSPIN5, SP4_GL1, GSPIN4):
        assert any(l.blocks == () for l in enumerate_levis(g))


def test_gspin5_levi_names():
    names = {l.describe() for l in enumerate_levis(GSPIN5)}
    assert names == {
        "GSpin5",
        "GL1 x GSpin3",
        "GL2 x GSpin1",
        "GL1 x GL1 x GSpin1",
    }


def test_gl_regularity_criterion():
    levi = LeviDescriptor(GL4_GL1, (2, 2), 0)
    identity = TwistedWeylElement(levi, (0, 1), (-1, -1))
    swap = TwistedWeylElement(levi, (1, 0), (-1, -1))
    assert is_regular(identity)       # two odd cycles
    assert not is_regular(swap)       # one even cycle
    assert det_factor(identity) == 2  # the Yoshida-contribution factor
    assert action_determinant(swap) == 0


def test_gspin_regularity_criterion():
    levi = LeviDescriptor(GSPIN5, (1,), 1)
    minus = TwistedWeylElement(levi, (0,), (-1,))
    plus = TwistedWeylElement(levi, (0,), (1,))
    assert is_regular(minus) and det_factor(minus) == 2
    assert not is_regular(plus)
    with pytest.raises(ValueError):
        det_factor(plus)


def test_validity_index_two_for_split_even():
    elements = enumerate_weyl_elements(LeviDescriptor(GSPIN4, (1, 1), 0))
    assert len(elements) == 4
    assert {w.signs for w in elements} == {(1, 1), (-1, -1)}
    # GSpin5 keeps every sign pattern
    elements5 = enumerate_weyl_elements(LeviDescriptor(GSPIN5, (1, 1), 0))
    assert len(elements5) == 8
    assert (-1, 1) in {w.signs for w in elements5}
    # even block sizes carry no constraint
    elements2 = enumerate_weyl_elements(LeviDescriptor(GSPIN4, (2,), 0))
    assert {w.signs for w in elements2} == {(1,), (-1,)}


def test_blocks_move_only_among_blocks_of_their_size():
    elements = enumerate_weyl_elements(LeviDescriptor(GL4_GL1, (2, 1, 1), 0))
    assert {w.images for w in elements} == {(0, 1, 2), (0, 2, 1)}
    assert all(w.signs == (-1, -1, -1) for w in elements)


def test_element_refuses_what_no_relative_weyl_element_is():
    levi = LeviDescriptor(GL4_GL1, (2, 1, 1), 0)
    with pytest.raises(ValueError, match="own size"):
        TwistedWeylElement(levi, (1, 0, 2), (-1, -1, -1))
    with pytest.raises(ValueError, match="signs must lie in"):
        TwistedWeylElement(levi, (0, 1, 2), (-1, 1, -1))
    with pytest.raises(ValueError, match="permute the blocks"):
        TwistedWeylElement(levi, (0, 0, 2), (-1, -1, -1))
    with pytest.raises(ValueError, match="signs must lie in"):
        TwistedWeylElement(LeviDescriptor(GSPIN5, (1,), 1), (0,), (0,))


def test_exhaustive_regular_iff_nonzero_det():
    checked = 0
    for group in ALL_GROUPS:
        for levi in enumerate_levis(group):
            for w in enumerate_weyl_elements(levi):
                checked += 1
                assert is_regular(w) == (action_determinant(w) != 0), (
                    group.describe(),
                    levi.describe(),
                    w,
                )
    assert checked > 50


def test_regular_elements_exist_for_every_proper_levi_of_gl():
    for levi in enumerate_levis(GL4_GL1):
        assert any(is_regular(w) for w in enumerate_weyl_elements(levi))


def test_enumerate_levis_unsupported_rank():
    from gspin.dualgroups import GroupTag

    with pytest.raises(ValueError):
        enumerate_levis(GroupTag("gspin_odd", 3))
    with pytest.raises(ValueError):
        enumerate_levis(GroupTag("gl_gl1", 5))
