import pytest

from gspin.characters import CharacterGroup, TRIVIAL_CLASS


def test_generator_declaration_and_products():
    g = CharacterGroup()
    chi = g.declare_generator("chi0")
    eta = g.declare_generator("eta0")
    prod = g.mul(chi, eta)
    assert g.equal(g.mul(prod, g.inv(eta)), chi)
    assert g.mul(chi, g.inv(chi)).is_trivial


def test_order_two_generators():
    g = CharacterGroup()
    beta = g.declare_generator("beta", order_two=True)
    assert beta.order_two
    assert g.mul(beta, beta).is_trivial
    assert not beta.square_root_exists


def test_square_detection_and_roots():
    g = CharacterGroup()
    eta = g.declare_generator("eta0")
    chi = g.pow(eta, 2)
    assert chi.square_root_exists
    odd = g.pow(eta, 3)
    assert not odd.square_root_exists


def test_mixed_torsion_square():
    g = CharacterGroup()
    eta = g.declare_generator("eta0")
    beta = g.declare_generator("beta", order_two=True)
    mixed = g.mul(g.pow(eta, 2), beta)
    assert not mixed.square_root_exists
    assert not mixed.order_two  # has infinite-order part


def test_classes():
    g = CharacterGroup()
    beta = g.declare_generator("beta", order_two=True)
    alpha = g.declare_class("alpha", beta)
    assert g.class_character(alpha) == beta
    assert g.class_of_character(beta) == alpha
    assert g.class_of_character(g.trivial()) == TRIVIAL_CLASS
    chi = g.declare_generator("chi0")
    assert g.class_of_character(chi) is None
    with pytest.raises(ValueError):
        g.declare_class("gamma", chi)


def test_unknown_generator_rejected():
    g = CharacterGroup()
    with pytest.raises(ValueError):
        g.element({"nope": 1})
