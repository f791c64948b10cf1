#!/usr/bin/env python3
"""Classifying discrete parameters and evaluating the multiplicity formula.

The example parameter of each of the six types is built from symbolic
handles; the table classification is cross-checked against the matrix
commutant oracle, and the multiplicity formula counts automorphic members
over local sign patterns.
"""

import itertools

from gspin.params import classify, component_group_oracle, multiplicity
from gspin.selftest import six_type_fixtures

NAMES = dict(zip("abcdef", ("general", "yoshida", "soudry", "saito-kurokawa", "howe-ps", "one-dimensional")))

group, fixtures = six_type_fixtures()

print("== the six discrete shapes ==")
for letter, psi, _rank in fixtures:
    cls = classify(group, psi)
    oracle = component_group_oracle(psi)
    eps = "1" if cls.component_group.is_trivial(cls.automorphy_character) else "sgn"
    print(
        f"{NAMES[letter]:>16}: letter ({cls.arthur_type.letter}), component group of rank"
        f" {cls.component_rank}, epsilon = {eps}, oracle agrees: {oracle.agrees_with(cls)}"
    )

print()
print("== the multiplicity formula on a flagged Saito-Kurokawa parameter ==")
sk = next(psi for letter, psi, _rank in fixtures if letter == "d")
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
