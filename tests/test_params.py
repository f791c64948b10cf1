import itertools
from fractions import Fraction

import pytest

from gspin import params
from gspin.characters import CharacterGroup
from gspin.dualgroups import GSPIN5, THETA_J, gspin_even_tag
from gspin.exactlin import ExactMatrix, similitude_factor
from gspin.params import (
    ArthurType,
    Classification,
    CuspidalHandle,
    FormalParameter,
    SPsiElement,
    TwoGroup,
    TwoGroupCharacter,
    boxtimes,
    character_dual,
    character_summand,
    check_selfdual,
    classify,
    component_group_oracle,
    component_group_table,
    gl2_alternative,
    gl4_alternative,
    multiplicity,
    multiplicity_prefactor,
    psi_disc_membership,
    std_compose,
)


# ---------------------------------------------------------------------------
# fixtures: a character group with one square chi, one non-square chi, and a
# quadratic class


def make_group():
    g = CharacterGroup()
    g.declare_generator("eta0")          # chi_sq = eta0^2 is a square
    g.declare_generator("chi0")          # non-square chi
    g.declare_generator("beta", order_two=True)
    beta = g.element({}, {"beta"})
    g.declare_class("alpha", beta)
    return g


def cuspidal_gl2(g, name, omega, chi, sign=None):
    h = CuspidalHandle(id=name, N=2, central_character=omega, chi=chi, sign=sign)
    check_selfdual(g, h)
    return h


def yoshida_parameter(g):
    chi = g.element({"chi0": 1})
    p1 = gl2_alternative(g, cuspidal_gl2(g, "pi1", chi, chi))
    p2 = gl2_alternative(g, cuspidal_gl2(g, "pi2", chi, chi))
    return FormalParameter(chi=chi, summands=((p1, 1), (p2, 1)))


def general_parameter(g):
    chi = g.element({"chi0": 1})
    pi = CuspidalHandle(id="Pi4", N=4, central_character=g.pow(chi, 2), chi=chi)
    check_selfdual(g, pi)
    alt = gl4_alternative(g, pi)
    assert alt.case == "symplectic"
    return FormalParameter(chi=chi, summands=((alt.handle, 1),))


def soudry_parameter(g):
    chi = g.element({"chi0": 1})
    beta = g.element({}, {"beta"})
    pi = gl2_alternative(g, cuspidal_gl2(g, "piDi", g.mul(chi, beta), chi))
    assert pi.sign == +1 and pi.dihedral_from is not None
    return FormalParameter(chi=chi, summands=((pi, 2),))


def saito_kurokawa_parameter(g):
    eta = g.element({"eta0": 1})
    chi = g.pow(eta, 2)
    pi = gl2_alternative(g, cuspidal_gl2(g, "piSK", chi, chi))
    e = character_summand(g, eta, chi)
    return FormalParameter(chi=chi, summands=((pi, 1), (e, 2)))


def howe_ps_parameter(g):
    eta1 = g.element({"eta0": 1})
    eta2 = g.mul(eta1, g.element({}, {"beta"}))
    chi = g.pow(eta1, 2)
    assert g.equal(g.pow(eta2, 2), chi)
    s1 = character_summand(g, eta1, chi)
    s2 = character_summand(g, eta2, chi)
    return FormalParameter(chi=chi, summands=((s1, 2), (s2, 2)))


def one_dimensional_parameter(g):
    eta = g.element({"eta0": 1})
    chi = g.pow(eta, 2)
    s = character_summand(g, eta, chi)
    return FormalParameter(chi=chi, summands=((s, 4),))


SIX = [
    (general_parameter, ArthurType.GENERAL, 0),
    (yoshida_parameter, ArthurType.YOSHIDA, 1),
    (soudry_parameter, ArthurType.SOUDRY, 0),
    (saito_kurokawa_parameter, ArthurType.SAITO_KUROKAWA, 1),
    (howe_ps_parameter, ArthurType.HOWE_PS, 1),
    (one_dimensional_parameter, ArthurType.ONE_DIMENSIONAL, 0),
]


# ---------------------------------------------------------------------------
# two-groups


def test_two_group_quotient():
    tg = TwoGroup(("a", "b"), [frozenset({"a", "b"})])
    assert tg.rank == 1
    assert tg.canonical({"a"}) == tg.canonical({"b"})
    assert tg.is_identity({"a", "b"})
    assert len(tg.elements()) == 2


def test_two_group_rejects_repeated_label():
    with pytest.raises(ValueError, match="repeated basis label"):
        TwoGroup(("a", "a", "b"), [frozenset({"a", "b"})])


def test_two_group_subquotient():
    # the patterns spanned by {a,b} and {b,c}, modulo {a,c}
    span = [frozenset(), frozenset("ab"), frozenset("bc"), frozenset("ac")]
    tg = TwoGroup(("a", "b", "c"), [frozenset("ac")], elements=span)
    assert tg.order == 2 and tg.rank == 1
    assert tg.canonical({"b", "c"}) == frozenset("ab")
    assert tg.canonical({"a", "c"}) == frozenset()
    assert tg.elements() == [frozenset(), frozenset("ab")]
    chars = tg.characters()
    assert len(chars) == tg.order
    assert [ch.rep for ch in chars] == [frozenset(), frozenset("b")]
    for ch in chars:
        assert ch.evaluate(frozenset("ac")) == 1


def test_character_respects_relations():
    tg = TwoGroup(("a", "b"), [frozenset({"a", "b"})])
    with pytest.raises(ValueError):
        TwoGroupCharacter.make(tg, {"a": -1, "b": 1})
    sgn = TwoGroupCharacter.make(tg, {"a": -1, "b": -1})
    assert sgn.evaluate({"a"}) == -1
    assert (sgn * sgn).is_trivial_on(tg)
    assert len(character_dual(tg)) == 2


def test_character_is_multiplicative():
    tg = TwoGroup(("a", "b", "c"), [frozenset({"a", "b", "c"})])
    for ch in character_dual(tg):
        for x in tg.elements():
            for y in tg.elements():
                xy = tg.canonical(set(x) ^ set(y))
                assert ch.evaluate(xy) == ch.evaluate(x) * ch.evaluate(y)


# ---------------------------------------------------------------------------
# alternatives


def test_gl2_alternative_symplectic():
    g = make_group()
    chi = g.element({"chi0": 1})
    pi = gl2_alternative(g, cuspidal_gl2(g, "pi", chi, chi))
    assert pi.sign == -1 and pi.dihedral_from is None


def test_gl2_alternative_orthogonal_dihedral():
    g = make_group()
    chi = g.element({"chi0": 1})
    omega = g.mul(chi, g.element({}, {"beta"}))
    pi = gl2_alternative(g, cuspidal_gl2(g, "pi", omega, chi))
    assert pi.sign == +1 and pi.dihedral_from.token == "alpha"


def test_gl2_alternative_trivial_chi():
    g = make_group()
    chi = g.trivial()
    pi = gl2_alternative(g, cuspidal_gl2(g, "pi", chi, chi))
    assert pi.sign == -1


def test_gl2_alternative_bad_ratio():
    g = make_group()
    chi = g.element({"chi0": 1})
    omega = g.mul(chi, g.element({"eta0": 1}))
    h = CuspidalHandle(id="bad", N=2, central_character=omega, chi=g.pow(omega, 2))
    with pytest.raises(ValueError):
        gl2_alternative(g, CuspidalHandle(id="bad", N=2, central_character=omega, chi=chi))


def test_gl4_alternative_cases():
    g = make_group()
    chi = g.element({"chi0": 1})
    # case 1: tensor origin with omega = chi^2
    t = CuspidalHandle(
        id="t", N=4, central_character=g.pow(chi, 2), chi=chi, tensor_origin=("a", "b")
    )
    alt = gl4_alternative(g, t)
    assert alt.case == "tensor" and alt.handle.sign == +1
    # case 2: omega != chi^2 by the quadratic beta
    a = CuspidalHandle(
        id="a4", N=4, central_character=g.mul(g.pow(chi, 2), g.element({}, {"beta"})), chi=chi
    )
    alt = gl4_alternative(g, a)
    assert alt.case == "asai" and alt.alpha.token == "alpha" and alt.handle.sign == +1
    # case 3: symplectic
    s = CuspidalHandle(id="s4", N=4, central_character=g.pow(chi, 2), chi=chi)
    alt = gl4_alternative(g, s)
    assert alt.case == "symplectic" and alt.handle.sign == -1
    # inconsistent: tensor origin but omega != chi^2
    bad = CuspidalHandle(
        id="bad4",
        N=4,
        central_character=g.mul(g.pow(chi, 2), g.element({}, {"beta"})),
        chi=chi,
        tensor_origin=("a", "b"),
    )
    with pytest.raises(ValueError):
        gl4_alternative(g, bad)


def test_boxtimes_rules():
    g = make_group()
    eta1 = g.element({"eta0": 1})
    eta2 = g.mul(eta1, g.element({}, {"beta"}))
    chi = g.pow(eta1, 2)
    e1 = character_summand(g, eta1, chi)
    e2 = character_summand(g, eta2, chi)
    # eta1[2] x eta2[2] = eta1 eta2 + eta1 eta2 [3]
    out = boxtimes(g, (e1, 2), (e2, 2))
    dims = sorted(d for _, d in out.summands)
    assert dims == [1, 3]
    ids = {h.id for h, _ in out.summands}
    assert len(ids) == 1
    # eta[2] x cuspidal = (eta pi)[2]
    pi = cuspidal_gl2(g, "pi", chi, chi, sign=-1)
    out2 = boxtimes(g, (e1, 2), pi)
    assert [(h.N, d) for h, d in out2.summands] == [(2, 2)]
    assert g.equal(out2.summands[0][0].central_character, out2.chi)
    # cuspidal x cuspidal: opaque GL4 handle with provenance
    out3 = boxtimes(g, pi, cuspidal_gl2(g, "rho", chi, chi, sign=-1))
    assert [(h.N, d) for h, d in out3.summands] == [(4, 1)]
    assert out3.summands[0][0].tensor_origin == ("pi", "rho")


# ---------------------------------------------------------------------------
# membership


def test_membership_yoshida():
    g = make_group()
    psi = yoshida_parameter(g)
    assert psi_disc_membership(g, psi, GSPIN5).ok


def test_membership_soudry():
    g = make_group()
    psi = soudry_parameter(g)
    assert psi_disc_membership(g, psi, GSPIN5).ok


def test_membership_rejects_repeated_summand():
    g = make_group()
    chi = g.element({"chi0": 1})
    p = gl2_alternative(g, cuspidal_gl2(g, "pi", chi, chi))
    psi = FormalParameter(chi=chi, summands=((p, 1), (p, 1)))
    rep = psi_disc_membership(g, psi, GSPIN5)
    assert not rep.ok and "discrete" in rep.reason


def test_membership_rejects_wrong_sign():
    g = make_group()
    chi = g.element({"chi0": 1})
    # orthogonal summand with d = 1 for the symplectic-dual target: forbidden
    omega = g.mul(chi, g.element({}, {"beta"}))
    p = gl2_alternative(g, cuspidal_gl2(g, "pi", omega, chi))
    q = gl2_alternative(g, cuspidal_gl2(g, "rho", chi, chi))
    psi = FormalParameter(chi=chi, summands=((p, 1), (q, 1)))
    rep = psi_disc_membership(g, psi, GSPIN5)
    assert not rep.ok and "sign" in rep.reason


def test_membership_permutation_invariant():
    g = make_group()
    psi = saito_kurokawa_parameter(g)
    flipped = FormalParameter(chi=psi.chi, summands=tuple(reversed(psi.summands)))
    assert psi_disc_membership(g, psi, GSPIN5).ok == psi_disc_membership(g, flipped, GSPIN5).ok
    assert classify(g, psi).arthur_type == classify(g, flipped).arthur_type


def test_membership_gspin4_square_class():
    g = make_group()
    chi = g.element({"chi0": 1})
    beta = g.element({}, {"beta"})
    # two orthogonal summands with central characters chi*beta: product is
    # chi^2, matching the split class
    p1 = gl2_alternative(g, cuspidal_gl2(g, "p1", g.mul(chi, beta), chi))
    p2 = gl2_alternative(g, cuspidal_gl2(g, "p2", g.mul(chi, beta), chi))
    psi = FormalParameter(chi=chi, summands=((p1, 1), (p2, 1)))
    assert psi_disc_membership(g, psi, gspin_even_tag("1")).ok
    # against the nontrivial class the same parameter fails
    rep = psi_disc_membership(g, psi, gspin_even_tag("alpha"))
    assert not rep.ok


# ---------------------------------------------------------------------------
# classification table


def test_classification_table():
    g = make_group()
    for build, expected_type, expected_rank in SIX:
        psi = build(g)
        cls = classify(g, psi)
        assert cls.arthur_type == expected_type
        assert cls.component_rank == expected_rank
        if expected_type != ArthurType.SAITO_KUROKAWA:
            assert cls.automorphy_character.is_trivial_on(cls.component_group)


def test_saito_kurokawa_epsilon_flag():
    g = make_group()
    psi = saito_kurokawa_parameter(g)
    plus = classify(g, psi, root_number_minus=False)
    minus = classify(g, psi, root_number_minus=True)
    assert plus.automorphy_character.is_trivial_on(plus.component_group)
    assert not minus.automorphy_character.is_trivial_on(minus.component_group)


def test_sign_element_parities():
    g = make_group()
    psi = saito_kurokawa_parameter(g)
    cls = classify(g, psi)
    support = cls.sign_element.support()
    # the eta[2] summand carries the -1 coordinate
    assert len(support) == 1
    (lab,) = support
    assert lab.startswith("char:")
    # Yoshida: both d odd, sign element trivial
    cls_y = classify(g, yoshida_parameter(g))
    assert cls_y.sign_element.support() == frozenset()


def test_classify_rejects_nonmember():
    g = make_group()
    chi = g.element({"chi0": 1})
    p = gl2_alternative(g, cuspidal_gl2(g, "pi", chi, chi))
    psi = FormalParameter(chi=chi, summands=((p, 1), (p, 1)))
    with pytest.raises(ValueError):
        classify(g, psi)


# ---------------------------------------------------------------------------
# the matrix oracle


def test_oracle_matches_table_on_all_six_types():
    g = make_group()
    for build, _expected_type, expected_rank in SIX:
        psi = build(g)
        cls = classify(g, psi)
        oracle = component_group_oracle(psi)
        assert oracle.component_group.rank == expected_rank
        assert oracle.agrees_with(cls), f"{build.__name__} disagrees"
        assert oracle.commutant_dim == len(psi.summands)


def test_oracle_disagrees_with_a_table_without_the_centre(monkeypatch):
    # the oracle computes its group from matrices, so a table that forgets
    # the central all-flip relation must be caught on every type
    g = make_group()

    def no_centre(psi):
        return TwoGroup([h.id for h, _ in psi.sorted_summands()])

    monkeypatch.setattr(params, "component_group_table", no_centre)
    for build, _expected_type, _expected_rank in SIX:
        psi = build(g)
        assert not component_group_oracle(psi).agrees_with(classify(g, psi)), build.__name__


def test_oracle_sample_blocks_are_similitudes():
    g = make_group()
    for build, _expected_type, _expected_rank in SIX:
        blocks = params._summand_blocks(build(g))
        for gens in blocks.values():
            for m in gens:
                assert similitude_factor(m, THETA_J) is not None, build.__name__


def test_sym_cube_congruence_is_diagonal():
    form = params._invariant_form([params._sym_cube(u) for u in params._SL2_GENS[:2]])
    t = params._antidiagonal_congruence(form)
    assert t == ExactMatrix.diagonal([1, 1, Fraction(1, 3), 1])
    assert t.transpose() * THETA_J * t == form
    with pytest.raises(ValueError):
        params._antidiagonal_congruence(ExactMatrix.identity(4))


# ---------------------------------------------------------------------------
# multiplicity formula


def test_prefactor():
    g = make_group()
    psi4 = yoshida_parameter(g)  # N1 = N2 = 2 even
    assert multiplicity_prefactor(psi4, gspin_even_tag()) == 2
    assert multiplicity_prefactor(psi4, GSPIN5) == 1
    psi_odd = FormalParameter(
        chi=psi4.chi,
        summands=psi4.summands[:1]
        + ((character_summand(g, g.element({"eta0": 1}), g.pow(g.element({"eta0": 1}), 2), "e"), 1),),
    )
    assert multiplicity_prefactor(psi_odd, gspin_even_tag()) == 1


def test_multiplicity_trivial_data():
    g = make_group()
    psi = yoshida_parameter(g)
    assert multiplicity(g, psi, []) == 1


def test_multiplicity_yoshida_two_sgn_places():
    g = make_group()
    psi = yoshida_parameter(g)
    sg = classify(g, psi).component_group
    sgn = TwoGroupCharacter.make(sg, {lab: -1 for lab in sg.basis_labels})
    assert multiplicity(g, psi, [("v1", sgn), ("v2", sgn)]) == 1
    assert multiplicity(g, psi, [("v1", sgn)]) == 0


def test_multiplicity_saito_kurokawa_sign_flip():
    g = make_group()
    psi = saito_kurokawa_parameter(g)
    # epsilon = sgn, all-trivial local data -> not automorphic
    assert multiplicity(g, psi, [], root_number_minus=True) == 0
    assert multiplicity(g, psi, [], root_number_minus=False) == 1


def test_multiplicity_counting_identity():
    g = make_group()
    psi = saito_kurokawa_parameter(g)
    sg = classify(g, psi).component_group
    chars = character_dual(sg)
    for k in (1, 2, 3):
        for flag in (False, True):
            members = 0
            for assign in itertools.product(chars, repeat=k):
                data = [(f"v{i}", ch) for i, ch in enumerate(assign)]
                m = multiplicity(g, psi, data, root_number_minus=flag)
                assert m in (0, 1)
                members += 1 if m else 0
            assert members == 2 ** (k - 1)


def test_multiplicity_gspin4_prefactor_two():
    g = make_group()
    chi = g.element({"chi0": 1})
    beta = g.element({}, {"beta"})
    p1 = gl2_alternative(g, cuspidal_gl2(g, "p1", g.mul(chi, beta), chi))
    p2 = gl2_alternative(g, cuspidal_gl2(g, "p2", g.mul(chi, beta), chi))
    psi = FormalParameter(chi=chi, summands=((p1, 1), (p2, 1)))
    target = gspin_even_tag("1")
    assert psi_disc_membership(g, psi, target).ok
    assert multiplicity(g, psi, [], target=target) == 2


def test_multiplicity_rejects_non_member_of_even_target():
    g = make_group()
    psi = one_dimensional_parameter(g)  # 1[4] is symplectic, GSpin4 needs orthogonal
    assert not psi_disc_membership(g, psi, gspin_even_tag("1")).ok
    with pytest.raises(ValueError, match="not a discrete parameter: .*needs -1"):
        multiplicity(g, psi, [], target=gspin_even_tag("1"))


def test_multiplicity_rejects_bad_character():
    g = make_group()
    psi = yoshida_parameter(g)
    sg = classify(g, psi).component_group
    lab = sg.basis_labels[0]
    bad = TwoGroupCharacter(((lab, -1), (sg.basis_labels[1], 1)))
    with pytest.raises(ValueError):
        multiplicity(g, psi, [("v", bad)])


# ---------------------------------------------------------------------------
# Satake composition


def test_std_compose_d1():
    g = make_group()
    psi = general_parameter(g)
    (h, _), = psi.summands
    out, chi_val = std_compose(psi, {h.id: [2, 3, "5/3", "3/2"]}, 15)
    assert chi_val == Fraction(15)
    assert [m for m in out] == sorted(
        [(Fraction(2), 0), (Fraction(3), 0), (Fraction(5, 3), 0), (Fraction(3, 2), 0)]
    )


def test_std_compose_eta2():
    g = make_group()
    eta = g.element({"eta0": 1})
    chi = g.pow(eta, 2)
    s = character_summand(g, eta, chi)
    psi = FormalParameter(chi=chi, summands=((s, 2), (s, 1)))
    out, _ = std_compose(psi, {s.id: [7]}, 49)
    assert (Fraction(7), 1) in out and (Fraction(7), -1) in out


def test_std_compose_yoshida():
    g = make_group()
    psi = yoshida_parameter(g)
    ids = [h.id for h, _ in psi.summands]
    out, _ = std_compose(psi, {ids[0]: [2, 3], ids[1]: [5, 7]}, 6)
    assert sorted(v for v, _ in out) == [2, 3, 5, 7]
    assert all(e == 0 for _, e in out)


def test_std_compose_size_mismatch():
    g = make_group()
    psi = yoshida_parameter(g)
    ids = [h.id for h, _ in psi.summands]
    with pytest.raises(ValueError):
        std_compose(psi, {ids[0]: [2], ids[1]: [5, 7]}, 6)


def test_membership_size_mismatch_rejected():
    g = make_group()
    chi = g.element({"chi0": 1})
    p = gl2_alternative(g, cuspidal_gl2(g, "pi", chi, chi))
    too_small = FormalParameter(chi=chi, summands=((p, 1),))
    rep = psi_disc_membership(g, too_small, GSPIN5)
    assert (rep.ok, rep.reason) == (False, "parameter has size 2, target needs 4")
