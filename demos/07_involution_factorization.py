#!/usr/bin/env python3
"""Factoring similitude-orthogonal elements into two involutions.

Every g in GSO(V, q) of dimension 2, 4, 6 or 8, whatever its similitude
factor, square or not, is written as g = x y with x an isometry involution of
determinant (-1)^n and y a similitude squaring to its own factor.  This walk
uses square factors; the logarithm of a unipotent isometry shows the
underlying string decomposition with its symmetric/alternating pairings.
"""

import random

from gspin.exactlin import ExactMatrix, QuadraticSpace, bilinear, frac, matrix_exp_nilpotent, matrix_log_unipotent
from gspin.exactlin import similitude_factor
from gspin.involutions import SimilitudeElement, factor, orthogonal_string_decomposition, verify

space = QuadraticSpace(4, ExactMatrix.antidiagonal([1, 1, 1, 1]))

print("== a scalar ==")
lam = frac(3)
e = SimilitudeElement(space, ExactMatrix.identity(4).scale(lam), lam * lam)
pair = factor(e)
print("x = identity:", pair.x == ExactMatrix.identity(4))
print("y = 3 * identity:", pair.y == ExactMatrix.identity(4).scale(lam))

print()
print("== a product of reflections times a scalar ==")
rng = random.Random(1)


def aniso(space):
    while True:
        v = tuple(frac(rng.randint(-3, 3)) for _ in range(space.dim))
        if bilinear(space.gram, v, v) != 0:
            return v


g = space.reflection(aniso(space)) * space.reflection(aniso(space))
g = g.scale(frac(2))
e = SimilitudeElement(space, g, similitude_factor(g, space.gram))
pair = factor(e)
print("element:")
print(e.g)
print("x:")
print(pair.x)
print("y:")
print(pair.y)
print("verified exactly:", verify(e, pair))

print()
print("== string decomposition of a unipotent isometry ==")
nil = ExactMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0]])
u = matrix_exp_nilpotent(nil)
for p in orthogonal_string_decomposition(space, matrix_log_unipotent(u)):
    print(
        f"string length {p.d}, multiplicity {p.generators.cols},"
        f" induced pairing {'symmetric' if p.d % 2 else 'alternating'}"
    )
e = SimilitudeElement(space, u, 1)
print("the unipotent factors too:", verify(e, factor(e)))

print()
print("== an eight-dimensional sweep ==")
big = QuadraticSpace(8, ExactMatrix.antidiagonal([1] * 8))
good = 0
for _ in range(10):
    g = ExactMatrix.identity(8)
    for _ in range(4):
        g = g * big.reflection(aniso(big))
    g = g.scale(frac(rng.randint(1, 3)))
    e = SimilitudeElement(big, g, similitude_factor(g, big.gram))
    good += verify(e, factor(e))
print(f"{good}/10 seeded factorizations verified")
