#!/usr/bin/env python3
"""Levi classes and regular twisted Weyl elements.

For each supported group the standard Levi classes are enumerated.  A
relative Weyl element is a signed permutation of the Levi's blocks (every
sign -1 in the twisted GL family); the combinatorial regularity criterion
(every cycle has sign product -1, so odd cycles in the GL family) is matched
against the determinant of the induced action on block coordinates.
"""

from gspin.dualgroups import GL4_GL1, GSPIN5, SP4_GL1, gspin_even_tag
from gspin.weyl import (
    action_determinant,
    det_factor,
    enumerate_levis,
    enumerate_weyl_elements,
    is_regular,
)

for group in (GL4_GL1, GSPIN5, gspin_even_tag("1"), gspin_even_tag("alpha"), SP4_GL1):
    print(f"== {group.describe()} ==")
    for levi in enumerate_levis(group):
        elements = enumerate_weyl_elements(levi)
        regular = [w for w in elements if is_regular(w)]
        ok = all(is_regular(w) == (action_determinant(w) != 0) for w in elements)
        factors = sorted(str(det_factor(w)) for w in regular)
        print(
            f"  {levi.describe():<28} elements {len(elements):>3}, regular {len(regular):>3},"
            f" det factors {factors}, criterion = determinant: {ok}"
        )
    print()

print("the two-block twisted contribution has determinant factor 2:")
from gspin.weyl import LeviDescriptor, TwistedWeylElement

w = TwistedWeylElement(LeviDescriptor(GL4_GL1, (2, 2), 0), (0, 1), (-1, -1))
print("det factor =", det_factor(w))
