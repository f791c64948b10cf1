#!/usr/bin/env python3
"""The twisted GL4 x GL1 stage and its symplectic fixed points.

The pinning-preserving twist theta(g, x) = (J tg^-1 J^-1, x det g) is an
involution; the fixed points of its dual version are exactly the similitude
symplectic group, and the exterior square over the similitude projects it
onto the special orthogonal group in five variables.
"""

import random

from gspin.dualgroups import (
    DualElement,
    SO5_GRAM,
    THETA_J,
    apply_theta,
    pinning_fixed_by_theta,
    project_to_so5,
    sample_gsp4,
)
from gspin.exactlin import ExactMatrix, frac, similitude_factor

print("the twist matrix J:")
print(THETA_J)
print()

e = DualElement(ExactMatrix.diagonal([2, 3, 5, 7]), 1)
t = apply_theta(e)
print("theta(diag(2,3,5,7), 1) =", t.g, ", GL1 part:", t.x)
print("applying theta twice returns the input:", apply_theta(t) == e)
print()

print("pinning check (Borel, torus, simple root vectors):", pinning_fixed_by_theta().ok)
print()

rng = random.Random(0)
g = sample_gsp4(rng, frac(3))
print("a symplectic similitude sample with factor 3:")
print(g)
print("fixed by the dual twist:", similitude_factor(g, THETA_J) == 3)
p = project_to_so5(g)
print("its projection to SO5:")
print(p)
print("orthogonal for the induced form:", p.transpose() * SO5_GRAM * p == SO5_GRAM)
print("special:", p.det() == 1)
print()

center = ExactMatrix.identity(4).scale(5)
print("the center projects to the identity:", project_to_so5(center) == ExactMatrix.identity(5))
