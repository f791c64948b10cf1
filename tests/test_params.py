import itertools
from fractions import Fraction

import pytest

from gspin import dualgroups, params
from gspin.characters import CharacterGroup
from gspin.dualgroups import GSPIN5, SO5_GRAM, THETA_J, embed_pair, gspin_even_tag, project_to_so5
from gspin.exactlin import ExactMatrix, commutant_basis, matrix_exp_nilpotent, matrix_log_unipotent, similitude_factor
from gspin.params import (
    ArthurType,
    Classification,
    CuspidalHandle,
    FormalParameter,
    TwoGroup,
    boxtimes,
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
    realize,
    std_compose,
)
from gspin.restriction import component_sign_group


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
    handle = gl4_alternative(g, pi)
    assert handle.sign == -1
    return FormalParameter(chi=chi, summands=((handle, 1),))


def soudry_parameter(g):
    chi = g.element({"chi0": 1})
    beta = g.element({}, {"beta"})
    pi = gl2_alternative(g, cuspidal_gl2(g, "piDi", g.mul(chi, beta), chi))
    assert pi.sign == +1
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
    assert g.pow(eta2, 2) == chi
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
    assert tg.canonical({"a", "b"}) == tg.canonical(())
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
    assert chars == [frozenset(), frozenset("b")]
    for ch in chars:
        assert tg.value(ch, frozenset("ac")) == 1


def test_character_respects_relations():
    tg = TwoGroup(("a", "b"), [frozenset({"a", "b"})])
    with pytest.raises(ValueError):
        tg.character({"a": -1, "b": 1})
    sgn = tg.character({"a": -1, "b": -1})
    assert tg.value(sgn, {"a"}) == -1
    assert tg.is_trivial(sgn ^ sgn)
    assert len(tg.characters()) == 2


def test_character_is_multiplicative():
    tg = TwoGroup(("a", "b", "c"), [frozenset({"a", "b", "c"})])
    for ch in tg.characters():
        for x in tg.elements():
            for y in tg.elements():
                xy = tg.canonical(set(x) ^ set(y))
                assert tg.value(ch, xy) == tg.value(ch, x) * tg.value(ch, y)


# ---------------------------------------------------------------------------
# alternatives


def test_gl2_alternative_symplectic():
    g = make_group()
    chi = g.element({"chi0": 1})
    pi = gl2_alternative(g, cuspidal_gl2(g, "pi", chi, chi))
    assert pi.sign == -1


def test_gl2_alternative_orthogonal_dihedral():
    g = make_group()
    chi = g.element({"chi0": 1})
    omega = g.mul(chi, g.element({}, {"beta"}))
    pi = gl2_alternative(g, cuspidal_gl2(g, "pi", omega, chi))
    assert pi.sign == +1 and g.class_of_character(g.ratio(omega, chi)) == "alpha"


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
    assert gl4_alternative(g, t).sign == +1
    # case 2: omega != chi^2 by the quadratic beta
    a = CuspidalHandle(
        id="a4", N=4, central_character=g.mul(g.pow(chi, 2), g.element({}, {"beta"})), chi=chi
    )
    assert gl4_alternative(g, a).sign == +1
    # case 3: symplectic
    s = CuspidalHandle(id="s4", N=4, central_character=g.pow(chi, 2), chi=chi)
    assert gl4_alternative(g, s).sign == -1
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
    # Asai-type refusals: chi^2 / omega not of order two, or of order two
    # without a declared square class
    free = CuspidalHandle(
        id="f4", N=4, central_character=g.mul(g.pow(chi, 2), g.element({"eta0": 1})), chi=chi
    )
    with pytest.raises(ValueError, match="order two"):
        gl4_alternative(g, free)
    g.declare_generator("gamma", order_two=True)
    undeclared = CuspidalHandle(
        id="u4", N=4, central_character=g.mul(g.pow(chi, 2), g.element({}, {"gamma"})), chi=chi
    )
    with pytest.raises(ValueError, match="no declared square class"):
        gl4_alternative(g, undeclared)


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
    assert out2.summands[0][0].central_character == out2.chi
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
            assert cls.component_group.is_trivial(cls.automorphy_character)


def test_saito_kurokawa_epsilon_flag():
    g = make_group()
    psi = saito_kurokawa_parameter(g)
    plus = classify(g, psi, root_number_minus=False)
    minus = classify(g, psi, root_number_minus=True)
    assert plus.component_group.is_trivial(plus.automorphy_character)
    assert not minus.component_group.is_trivial(minus.automorphy_character)


def test_sign_element_parities():
    g = make_group()
    psi = saito_kurokawa_parameter(g)
    cls = classify(g, psi)
    support = cls.sign_element
    # the eta[2] summand carries the -1 coordinate
    assert len(support) == 1
    (lab,) = support
    assert lab.startswith("char:")
    # Yoshida: both d odd, sign element trivial
    cls_y = classify(g, yoshida_parameter(g))
    assert cls_y.sign_element == frozenset()


def test_classify_rejects_nonmember():
    g = make_group()
    chi = g.element({"chi0": 1})
    p = gl2_alternative(g, cuspidal_gl2(g, "pi", chi, chi))
    psi = FormalParameter(chi=chi, summands=((p, 1), (p, 1)))
    with pytest.raises(ValueError):
        classify(g, psi)


def test_classify_refuses_a_yoshida_shape_whose_central_character_is_not_chi():
    # pi2 declares itself symplectic although omega = chi beta: a GSpin5
    # member of the Yoshida shape that no Yoshida parameter has
    g = make_group()
    chi = g.element({"chi0": 1})
    p1 = gl2_alternative(g, cuspidal_gl2(g, "pi1", chi, chi))
    p2 = cuspidal_gl2(g, "pi2", g.mul(chi, g.element({}, {"beta"})), chi, sign=-1)
    psi = FormalParameter(chi=chi, summands=((p1, 1), (p2, 1)))
    assert psi_disc_membership(g, psi, GSPIN5).ok
    with pytest.raises(ValueError, match="^unclassifiable: central characters must equal chi$"):
        classify(g, psi)


def test_classify_refuses_a_soudry_shape_whose_ratio_to_chi_is_trivial():
    g = make_group()
    chi = g.element({"chi0": 1})
    psi = FormalParameter(chi=chi, summands=((cuspidal_gl2(g, "piDi", chi, chi, sign=+1), 2),))
    assert psi_disc_membership(g, psi, GSPIN5).ok
    with pytest.raises(ValueError, match="^unclassifiable: ratio to chi must have order two$"):
        classify(g, psi)


def declarable_shapes(size):
    """Every multiset of (N, d, sign) of total size `size` that handles can
    declare: N = 1 is always orthogonal, N = 2 and N = 4 carry either sign."""
    kinds = [(n, d, s) for n in (1, 2, 4) for d in range(1, size // n + 1) for s in ((1,) if n == 1 else (1, -1))]
    return [
        combo
        for k in range(1, size + 1)
        for combo in itertools.combinations_with_replacement(kinds, k)
        if sum(n * d for n, d, _ in combo) == size
    ]


def declared_parameter(g, shape):
    """A parameter of the given shape over chi = eta0^2, one distinct handle
    per summand, each sign resolved by the GL2 or GL4 alternative."""
    eta = g.element({"eta0": 1})
    chi = g.pow(eta, 2)
    twists = [g.element({}, t) for t in ((), ("b0",), ("b1",), ("b0", "b1"))]
    summands = []
    for i, (n, d, sign) in enumerate(shape):
        if n == 1:
            handle = character_summand(g, g.mul(eta, twists[i]), chi)
        else:
            omega = g.pow(chi, n // 2)
            if sign == 1:
                omega = g.mul(omega, g.element({}, {"beta"}))
            handle = CuspidalHandle(id=f"pi{i}", N=n, central_character=omega, chi=chi)
            handle = gl2_alternative(g, handle) if n == 2 else gl4_alternative(g, handle)
        assert handle.sign == sign
        summands.append((handle, d))
    return FormalParameter(chi=chi, summands=tuple(summands))


def test_the_gspin5_members_of_every_declarable_shape_are_the_six_types():
    # so `unclassifiable shape` is unreachable for a member
    g = make_group()
    for name in ("b0", "b1"):
        g.declare_generator(name, order_two=True)
    shapes = declarable_shapes(4)
    assert len(shapes) == 16
    kinds = []
    for shape in shapes:
        psi = declared_parameter(g, shape)
        if psi_disc_membership(g, psi, GSPIN5).ok:
            kinds.append(classify(g, psi).arthur_type)
    assert len(kinds) == 6
    assert sorted(kinds, key=lambda t: t.letter) == list(ArthurType)


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
        assert len(commutant_basis(realize(psi))) == len(psi.summands)


def test_oracle_refuses_a_realization_with_a_large_commutant(monkeypatch):
    monkeypatch.setattr(params, "realize", lambda psi: [ExactMatrix.identity(4)])
    with pytest.raises(ValueError, match="degenerate realization: commutant dimension 16, expected 2"):
        component_group_oracle(yoshida_parameter(make_group()))


def test_oracle_refuses_a_gl2_handle_of_unresolved_duality_type():
    # a Yoshida-shaped psi whose handles never went through gl2_alternative
    g = make_group()
    chi = g.element({"chi0": 1})
    handles = [cuspidal_gl2(g, name, chi, chi) for name in ("pi1", "pi2")]
    psi = FormalParameter(chi=chi, summands=tuple((h, 1) for h in handles))
    with pytest.raises(ValueError, match="pi1: unresolved duality type"):
        component_group_oracle(psi)


def test_oracle_builds_each_realization_once(monkeypatch):
    # the realization depends only on the shape and the handle signs, so a
    # second oracle call on the same psi solves no sl2 kernel
    calls = []
    real = dualgroups.matrix_equation_kernel
    monkeypatch.setattr(dualgroups, "matrix_equation_kernel", lambda *a, **k: calls.append(1) or real(*a, **k))
    g = make_group()
    psi = saito_kurokawa_parameter(g)
    first = component_group_oracle(psi)
    assert len(calls) == 2  # e, then f
    second = component_group_oracle(psi)
    assert len(calls) == 2
    assert second.sign_element == first.sign_element
    assert second.component_group.elements() == first.component_group.elements()
    realize(psi).clear()  # each call returns a fresh list
    assert realize(psi) == realize(psi) != []
    # the handle checks run before the shared realization is looked up
    component_group_oracle(yoshida_parameter(g))
    chi = g.element({"chi0": 1})
    unresolved = [cuspidal_gl2(g, name, chi, chi) for name in ("pi1", "pi2")]
    with pytest.raises(ValueError, match="pi1: unresolved duality type"):
        realize(FormalParameter(chi=chi, summands=tuple((h, 1) for h in unresolved)))


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


def test_oracle_reads_the_sign_element_off_the_realized_sl2(monkeypatch):
    # the Howe-PS realization has the Saito-Kurokawa block sizes, but its
    # SL2 is -1 on both blocks, so only an oracle that reads s_psi off the
    # matrices disagrees with the table
    g = make_group()
    psi = saito_kurokawa_parameter(g)
    assert component_group_oracle(psi).agrees_with(classify(g, psi))
    howe_ps = realize(howe_ps_parameter(g))
    monkeypatch.setattr(params, "realize", lambda _psi: howe_ps)
    oracle = component_group_oracle(psi)
    assert oracle.sign_element == frozenset()
    assert not oracle.agrees_with(classify(g, psi))


def test_oracle_sample_blocks_are_similitudes():
    g = make_group()
    for build, _expected_type, _expected_rank in SIX:
        for m in realize(build(g)):
            assert similitude_factor(m, THETA_J) is not None, build.__name__


def test_realization_has_one_sl2_triple():
    # exp(e) and exp(f) close the generators; h carries the weights
    # d - 1 - 2k of every summand block, and (e, h, f) is an sl2 triple
    g = make_group()
    weights = {
        soudry_parameter: [1, -1, 1, -1],
        saito_kurokawa_parameter: [0, 1, -1, 0],
        howe_ps_parameter: [1, 1, -1, -1],
        one_dimensional_parameter: [3, 1, -1, -3],
    }
    for build, w in weights.items():
        e, f = (matrix_log_unipotent(u) for u in realize(build(g))[-2:])
        h = ExactMatrix.diagonal(w)
        assert h * e - e * h == e.scale(2), build.__name__
        assert h * f - f * h == f.scale(-2), build.__name__
        assert e * f - f * e == h, build.__name__


def _projected_rank(generators):
    down = [project_to_so5(m) for m in generators]
    return component_sign_group(down, SO5_GRAM).group.rank


def test_realization_projects_to_the_sp4_component_groups():
    g = make_group()
    ranks = [_projected_rank(realize(build(g))) for build, _t, _r in SIX]
    assert ranks == [0, 1, 1, 1, 2, 0]


def test_howe_ps_with_one_sl2_per_plane_loses_a_component():
    # eta1[2] + eta2[2] with SL2 x SL2 in place of the diagonal SL2:
    # the cross term becomes one irreducible 4-dimensional piece downstairs
    samples = realize(howe_ps_parameter(make_group()))[:-2]
    zero = ExactMatrix.zeros(2, 2)
    e_and_f = [ExactMatrix([[0, 1], [0, 0]]), ExactMatrix([[0, 0], [1, 0]])]
    per_plane = [embed_pair(n, zero) for n in e_and_f] + [embed_pair(zero, n) for n in e_and_f]
    assert _projected_rank(samples + [matrix_exp_nilpotent(n) for n in per_plane]) == 1


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
        + ((character_summand(g, g.element({"eta0": 1}), g.pow(g.element({"eta0": 1}), 2)), 1),),
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
    sgn = sg.character({lab: -1 for lab in sg.basis_labels})
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
    chars = sg.characters()
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
    bad = frozenset({lab})
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
