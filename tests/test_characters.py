import pytest

from gspin.characters import CharacterGroup


def test_generator_declaration_and_products():
    g = CharacterGroup()
    chi = g.declare_generator("chi0")
    eta = g.declare_generator("eta0")
    prod = g.mul(chi, eta)
    assert g.mul(prod, g.inv(eta)) == chi
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
    g.declare_class("alpha", beta)
    assert g.class_character("alpha") == beta
    assert g.class_character("1") == g.trivial()
    assert g.class_of_character(beta) == "alpha"
    assert g.class_of_character(g.trivial()) == "1"
    chi = g.declare_generator("chi0")
    assert g.class_of_character(chi) is None
    with pytest.raises(ValueError, match="order-two character"):
        g.declare_class("gamma", chi)
    with pytest.raises(ValueError, match="'gamma' is not declared"):
        g.class_character("gamma")


def test_a_class_is_declared_again_only_with_its_character():
    g = CharacterGroup()
    beta = g.declare_generator("beta", order_two=True)
    gamma = g.declare_generator("gamma", order_two=True)
    g.declare_class("alpha", beta)
    g.declare_class("alpha", g.element({}, {"beta"}))  # the same character
    assert g.class_character("alpha") == beta
    with pytest.raises(ValueError, match="'alpha' is already declared with another character"):
        g.declare_class("alpha", gamma)
    with pytest.raises(ValueError, match="'1' is already declared with another character"):
        g.declare_class("1", beta)
    assert g.class_character("alpha") == beta and g.class_of_character(gamma) is None


def test_unknown_generator_rejected():
    g = CharacterGroup()
    with pytest.raises(ValueError):
        g.element({"nope": 1})
