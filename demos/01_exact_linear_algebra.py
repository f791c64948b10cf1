#!/usr/bin/env python3
"""A tour of the exact linear algebra substrate.

Everything in the toolkit runs on dense matrices over Fraction: kernels,
commutants, rational spectral splits, and quadratic-space reflections.
"""

from gspin.exactlin import (
    ExactMatrix,
    QuadraticSpace,
    commutant_basis,
    kernel,
    rational_eigensplit,
)

print("== kernels ==")
m = ExactMatrix([[1, 1], [2, 2]])
print("matrix:", m)
k = kernel(m)
print("kernel basis:", list(k.transpose().entries()), "(the line through (1, -1))")

print()
print("== commutants ==")
print("commutant of the 4x4 identity:", len(commutant_basis([ExactMatrix.identity(4)])))
print(
    "commutant of diag(1,2,3,4):",
    len(commutant_basis([ExactMatrix.diagonal([1, 2, 3, 4])])),
    "(the diagonal torus)",
)

print()
print("== rational spectral splits ==")
g = ExactMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
parts = rational_eigensplit(g)
for lam, basis in parts:
    print(f"eigenvalue {lam}: generalized eigenspace of dimension {basis.cols}")
print(f"irrational part: dimension {g.rows - sum(b.cols for _, b in parts)} (a rotation block, x^2 + 1)")

print()
print("== quadratic spaces ==")
space = QuadraticSpace(4, ExactMatrix.antidiagonal([1, 1, 1, 1]))
r = space.reflection((1, 0, 0, 1))
print("reflection in (1,0,0,1): det =", r.det(), ", squares to identity:", r * r == ExactMatrix.identity(4))
print("preserves the form:", r.transpose() * space.gram * r == space.gram)
