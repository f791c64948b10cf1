"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact rational arithmetic, so every comparison is equality; the
only tolerances are 'exact match'."""

import itertools
import random
from fractions import Fraction

import pytest

from gspin.dualgroups import (
    GL4_GL1,
    GSPIN5,
    SP4_GL1,
    gspin_even_tag,
    pinning_fixed_by_theta,
)
from gspin.exactlin import ExactMatrix, QuadraticSpace, bilinear, frac, similitude_factor
from gspin import endoscopy
from gspin.params import (
    ArthurType,
    CuspidalHandle,
    FormalParameter,
    TwoGroup,
    check_selfdual,
    classify,
    component_group_oracle,
    multiplicity,
    multiplicity_prefactor,
    psi_disc_membership,
)
from gspin.restriction import (
    gso4_shape_catalog,
    project_parameter,
    restrict_gso4,
    restriction_count_identity,
    shape_catalog,
)
from gspin.selftest import run_selftest, six_type_fixtures
from gspin.weyl import (
    LeviDescriptor,
    TwistedWeylElement,
    action_determinant,
    det_factor,
    enumerate_levis,
    enumerate_weyl_elements,
    is_regular,
)
from gspin.involutions import SimilitudeElement, factor, verify


def report(number: int, ok: bool, text: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


# ---------------------------------------------------------------------------
# the expected letter, type and rank of each of the six example parameters


EXPECTED = {
    "a": (ArthurType.GENERAL, 0),
    "b": (ArthurType.YOSHIDA, 1),
    "c": (ArthurType.SOUDRY, 0),
    "d": (ArthurType.SAITO_KUROKAWA, 1),
    "e": (ArthurType.HOWE_PS, 1),
    "f": (ArthurType.ONE_DIMENSIONAL, 0),
}


def test_criterion_1_type_table():
    g, fixtures = six_type_fixtures()
    assert [letter for letter, _, _ in fixtures] == sorted(EXPECTED)
    hits = 0
    for letter, psi, rank in fixtures:
        expected_type, expected_rank = EXPECTED[letter]
        assert rank == expected_rank
        for flag in (False, True):
            cls = classify(g, psi, root_number_minus=flag)
            assert cls.arthur_type == expected_type and cls.arthur_type.letter == letter
            assert cls.component_rank == expected_rank
            eps_trivial = cls.component_group.is_trivial(cls.automorphy_character)
            if letter == "d" and flag:
                assert not eps_trivial  # epsilon = sgn exactly here
            else:
                assert eps_trivial
        hits += 1
    report(1, hits == 6, f"six-type table reproduced exactly, {hits}/6")


def test_criterion_2_oracle_agreement():
    g, fixtures = six_type_fixtures()
    for letter, psi, _ in fixtures:
        cls = classify(g, psi)
        oracle = component_group_oracle(psi)
        assert oracle.component_group.rank == cls.component_rank, letter
        assert oracle.agrees_with(cls), letter
        # the sign element is minus one exactly on even-dimension summands
        expected_support = {h.id for h, d in psi.summands if d % 2 == 0}
        assert oracle.sign_element == oracle.component_group.canonical(expected_support)
    report(2, True, "matrix commutant oracle agrees with the table, marked element included")


def test_criterion_3_multiplicity_formula():
    g, fixtures = six_type_fixtures()
    sk = next(psi for letter, psi, _ in fixtures if letter == "d")
    sgroup = classify(g, sk).component_group
    chars = sgroup.characters()
    automorphic_sets = {}
    for flag in (False, True):
        for k in (1, 2, 3):
            members = []
            for assign in itertools.product(chars, repeat=k):
                data = [(f"v{i}", ch) for i, ch in enumerate(assign)]
                m = multiplicity(g, sk, data, root_number_minus=flag)
                assert m in (0, multiplicity_prefactor(sk, GSPIN5))
                if m:
                    members.append(assign)
            assert len(members) == 2 ** (k - 1), (flag, k)
            automorphic_sets[(flag, k)] = set(members)
    for k in (1, 2, 3):
        plus, minus = automorphic_sets[(False, k)], automorphic_sets[(True, k)]
        assert plus & minus == set()
        assert len(plus | minus) == 2**k  # the automorphic set flips with epsilon

    # the prefactor 2 on the even similitude spin group with all N_i even
    chi = g.element({"chi0": 1})
    beta = g.element({}, {"beta"})
    p1, p2 = (CuspidalHandle(id=q, N=2, central_character=g.mul(chi, beta), chi=chi) for q in ("q1", "q2"))
    for p in (p1, p2):
        check_selfdual(g, p)
    psi4 = FormalParameter(chi=chi, summands=((p1, 1), (p2, 1)))
    target = gspin_even_tag("1")
    assert psi_disc_membership(g, psi4, target).ok
    assert multiplicity_prefactor(psi4, target) == 2
    assert multiplicity(g, psi4, [], target=target) == 2
    report(3, True, "2^(k-1) members for k=1,2,3, flipped by the sign character; prefactor 2")


def test_criterion_4_endoscopy():
    dims = []
    for d in endoscopy.full_catalog():
        rep = endoscopy.verify_centralizer(d)
        assert rep.ok, rep.message()
        dims.append(rep.computed_dim)
    assert sorted(dims) == [3, 5, 7, 7, 7, 11]  # 11,7,7,5 twisted + 7, 3 ordinary
    iotas = {
        d.name: d.stabilisation_constant
        for d in endoscopy.full_catalog()
        if d.stabilisation_constant is not None
    }
    assert iotas == {"gspin5": Fraction(1), "h1": Fraction(1, 4)}
    assert pinning_fixed_by_theta().ok
    diag = endoscopy.restriction_diagrams_commute(seed=2)
    assert diag.ok and diag.samples >= 20
    report(4, True, "centralizer dims 11,7,7,5,7,3; constants 1 and 1/4; pinning; 20-sample diagrams")


def test_criterion_5_twisted_weyl():
    groups = [GL4_GL1, GSPIN5, gspin_even_tag("1"), SP4_GL1]
    total = 0
    for group in groups:
        for levi in enumerate_levis(group):
            for w in enumerate_weyl_elements(levi):
                total += 1
                assert is_regular(w) == (action_determinant(w) != 0)
    yoshida = TwistedWeylElement(LeviDescriptor(GL4_GL1, (2, 2), 0), (0, 1), (-1, -1))
    assert det_factor(yoshida) == 2
    report(5, True, f"regularity = nonzero determinant on {total} elements; contribution factor 2")


def test_criterion_6_restriction():
    for name, phi in shape_catalog().items():
        proj = project_parameter(phi)
        rep = restriction_count_identity(proj)
        assert rep.ok, rep.message()
        if proj.s_group.group.rank == 1:
            (plus, plus_chars), (minus, minus_chars) = rep.constituents
            assert (plus, minus) == ("+", "-")
            for ch in plus_chars:
                assert TwoGroup.value(ch, proj.embedded_s) == 1
            for ch in minus_chars:
                assert TwoGroup.value(ch, proj.embedded_s) == -1
    for name, phi in gso4_shape_catalog().items():
        group, chars = restrict_gso4(phi)
        assert isinstance(chars, frozenset)  # duplicate-free container
        assert len(chars) == group.group.order
    report(6, True, "packet restrictions partition the dual with the stated sign split")


SPACES = {
    4: [
        QuadraticSpace(4, ExactMatrix.antidiagonal([1] * 4)),
        QuadraticSpace(4, ExactMatrix.diagonal([1, 2, -3, 5])),
    ],
    6: [
        QuadraticSpace(6, ExactMatrix.antidiagonal([1] * 6)),
        QuadraticSpace(6, ExactMatrix.diagonal([1, 1, 2, -1, 3, 1])),
    ],
    8: [
        QuadraticSpace(8, ExactMatrix.antidiagonal([1] * 8)),
        QuadraticSpace(8, ExactMatrix.diagonal([1, 1, 1, 2, -2, 3, -3, 5])),
    ],
}


def _random_element(rng, space):
    g = ExactMatrix.identity(space.dim)
    for _ in range(2 * rng.randint(1, 2)):
        while True:
            v = tuple(frac(rng.randint(-2, 2)) for _ in range(space.dim))
            if bilinear(space.gram, v, v) != 0:
                break
        g = g * space.reflection(v)
    lam = frac(rng.randint(1, 4))
    if rng.random() < 0.3:
        lam = -lam
    g = g.scale(lam)
    return SimilitudeElement(space, g, similitude_factor(g, space.gram))


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_criterion_7_involutions(dim):
    rng = random.Random(1000 + dim)
    count = 0
    for _ in range(100):
        for space in SPACES[dim]:
            e = _random_element(rng, space)
            assert verify(e, factor(e)), f"dim {dim}"
            count += 1
    # edge cases return the stated normal forms
    space = SPACES[dim][0]
    ident = SimilitudeElement(space, ExactMatrix.identity(dim), 1)
    pair = factor(ident)
    assert verify(ident, pair)
    if dim % 4 == 0:
        assert pair.x == ExactMatrix.identity(dim) and pair.y == ExactMatrix.identity(dim)
    lam = frac(3)
    scal = SimilitudeElement(space, ExactMatrix.identity(dim).scale(lam), lam * lam)
    pair = factor(scal)
    assert verify(scal, pair)
    if dim % 4 == 0:
        assert pair.x == ExactMatrix.identity(dim)
        assert pair.y == ExactMatrix.identity(dim).scale(lam)
    report(7, count == 200, f"200 seeded factorizations verified exactly in dimension {dim}")


def test_criterion_8_determinism():
    ok1, lines1 = run_selftest(seed=42)
    ok2, lines2 = run_selftest(seed=42)
    text1, text2 = "\n".join(lines1).encode(), "\n".join(lines2).encode()
    assert ok1 and ok2
    assert text1 == text2
    report(8, True, "byte-identical selftest reports for the same seed")
