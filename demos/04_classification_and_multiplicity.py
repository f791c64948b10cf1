#!/usr/bin/env python3
"""Classifying discrete parameters and evaluating the multiplicity formula.

The six shapes of discrete parameters are built from symbolic handles; the
table classification is cross-checked against the matrix commutant oracle,
and the multiplicity formula counts automorphic members over local sign
patterns.
"""

import itertools

from gspin.characters import CharacterGroup
from gspin.params import (
    CuspidalHandle,
    FormalParameter,
    character_summand,
    classify,
    component_group_oracle,
    gl2_alternative,
    multiplicity,
)

group = CharacterGroup()
group.declare_generator("eta0")
group.declare_generator("chi0")
group.declare_generator("beta", order_two=True)
beta = group.element({}, {"beta"})
group.declare_class("alpha", beta)
chi = group.element({"chi0": 1})
eta = group.element({"eta0": 1})
chi_sq = group.pow(eta, 2)


def cuspidal(name, omega, against):
    return gl2_alternative(
        group, CuspidalHandle(id=name, N=2, central_character=omega, chi=against)
    )


fixtures = {
    "general": FormalParameter(
        chi=chi,
        summands=((CuspidalHandle("Pi4", 4, group.pow(chi, 2), chi, sign=-1), 1),),
    ),
    "yoshida": FormalParameter(
        chi=chi, summands=((cuspidal("pi1", chi, chi), 1), (cuspidal("pi2", chi, chi), 1))
    ),
    "soudry": FormalParameter(
        chi=chi, summands=((cuspidal("piDi", group.mul(chi, beta), chi), 2),)
    ),
    "saito-kurokawa": FormalParameter(
        chi=chi_sq,
        summands=((cuspidal("piSK", chi_sq, chi_sq), 1), (character_summand(group, eta, chi_sq), 2)),
    ),
    "howe-ps": FormalParameter(
        chi=chi_sq,
        summands=(
            (character_summand(group, eta, chi_sq), 2),
            (character_summand(group, group.mul(eta, beta), chi_sq), 2),
        ),
    ),
    "one-dimensional": FormalParameter(
        chi=chi_sq, summands=((character_summand(group, eta, chi_sq), 4),)
    ),
}

print("== the six discrete shapes ==")
for name, psi in fixtures.items():
    cls = classify(group, psi)
    oracle = component_group_oracle(psi)
    eps = "1" if cls.component_group.is_trivial(cls.automorphy_character) else "sgn"
    print(
        f"{name:>16}: letter ({cls.arthur_type.letter}), component group of rank"
        f" {cls.component_rank}, epsilon = {eps}, oracle agrees: {oracle.agrees_with(cls)}"
    )

print()
print("== the multiplicity formula on a flagged Saito-Kurokawa parameter ==")
sk = fixtures["saito-kurokawa"]
sgroup = classify(group, sk).component_group
chars = sgroup.characters()
for flag in (False, True):
    counts = []
    for k in (1, 2, 3):
        automorphic = sum(
            1
            for assign in itertools.product(chars, repeat=k)
            if multiplicity(group, sk, [(f"v{i}", c) for i, c in enumerate(assign)], root_number_minus=flag)
        )
        counts.append(f"k={k}: {automorphic}/{2**k}")
    label = "sgn" if flag else "1"
    print(f"epsilon = {label:>3}: automorphic sign patterns  " + ",  ".join(counts))
