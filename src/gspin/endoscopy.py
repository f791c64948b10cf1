"""Elliptic endoscopic data with exact verification.

Each datum stores the printed matrix ingredients: the semisimple element s
(a 4x4 matrix), a fixed generating set of its group H, the Frobenius image
for non-split members, and the stabilisation constant where one is on
record.  Each datum solves, by exact linear algebra, the basis of its
(twisted) centralizer Lie algebra once, when it is built, and checks there,
once, that its Frobenius image is an involution normalizing the embedded
subgroup and that each of its generators centralizes s in the twisted or
the ordinary sense; the six data are built once per process, and
full_catalog is the only way to them.  verify_centralizer compares the
dimension of that basis with the printed one and reports both checks.  The
generators of a twisted datum are elements (g, x) of the stage GL4 x GL1,
x from the embedding's own formula; the restriction diagrams project bare
GSp4 matrices.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .dualgroups import (
    DualElement,
    GSO4_GRAM,
    GSP4_NILPOTENTS,
    SO5_GRAM,
    THETA_J,
    embed_pair,
    embed_so4_block,
    project_to_so5,
    sample_gl2,
    sample_gsp4,
)
# kernel is no longer called here but stays bound: perfbench/test_perfbench.py
# checks that the tracer wraps it at this binding site too
from .exactlin import (
    ExactMatrix,
    frac,
    kernel,  # noqa: F401
    kron,
    matrix_equation_kernel,
    matrix_exp_nilpotent,
    rank,
    similitude_factor,
    ONE,
)

# ---------------------------------------------------------------------------
# printed matrices

S_GSO4 = ExactMatrix.diagonal([-1, -1, 1, 1])
S_RANK1 = ExactMatrix.diagonal([-1, 1, 1, 1])
S_H1 = ExactMatrix.diagonal([1, -1, -1, 1])
S_H2 = ExactMatrix.diagonal([1, -1, -1, 1])

FROBENIUS_GSO4 = ExactMatrix(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ]
)
FROBENIUS_RANK1 = ExactMatrix(
    [
        [0, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [1, 0, 0, 0],
    ]
)
# kron(w, w) for the 2x2 swap w: it commutes with S_H2, lies in GSO4 and
# fixes a line of the centre of h2's torus, so the datum is elliptic
FROBENIUS_H2 = ExactMatrix(
    [
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
    ]
)

# the form of each ordinary ambient; the twisted one, 'twisted_gl4', has none
ORDINARY_FORMS = {"gspin5": THETA_J, "gspin4": GSO4_GRAM}


@dataclass(frozen=True)
class EndoscopicDatum:
    """An elliptic endoscopic datum given by its matrix ingredients, with
    the basis of its (twisted) centralizer Lie algebra solved once."""

    name: str
    base: str  # 'twisted_gl4', 'gspin5', 'gspin4'
    h_description: str
    s: ExactMatrix
    expected_centralizer_dim: int
    generators: tuple[DualElement, ...] = field(compare=False, repr=False)  # a fixed generating set of H
    frobenius_image: ExactMatrix | None = None
    stabilisation_constant: Fraction | None = None
    lie_basis: tuple[tuple[ExactMatrix, Fraction], ...] = field(init=False, compare=False, repr=False)
    frobenius_ok: bool = field(init=False, compare=False, repr=False)
    generators_ok: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.base not in ("twisted_gl4", *ORDINARY_FORMS):
            raise ValueError(f"unknown base {self.base!r}")
        object.__setattr__(self, "lie_basis", tuple(_lie_basis(self)))
        object.__setattr__(self, "frobenius_ok", _frobenius_ok(self))
        object.__setattr__(self, "generators_ok", _generators_ok(self))

    @property
    def twisted(self) -> bool:
        return self.base == "twisted_gl4"


@functools.cache
def full_catalog() -> tuple[EndoscopicDatum, ...]:
    """The data of all three ambients with the one nontrivial square class
    'alpha' declared, built once, read-only: what verify-endoscopy and the
    selftest verify.

    Each row carries fixed generators (g, x) of its group H, x from its
    embedding.  With u, l, t = [[1, 1], [0, 1]], [[1, 0], [1, 1]], diag(2, 1):
    GSp4 (gspin5) by exp(N) for N in a basis of its strictly upper part,
    THETA_J and diag(1, 1, 2, 2), x = nu; GSO4 = GL2 (x) GL2 (gspin4, as
    GSO4_GRAM is J2 (x) J2), x = det a det b; diag(x1, m, det m / x1)
    (rank1), x = det m; the pairs on PAIR_PLANES (h1), x = det; the torus
    ad = bc (h2), x = bc."""
    u, l = ExactMatrix([[1, 1], [0, 1]]), ExactMatrix([[1, 0], [1, 1]])
    t, one = ExactMatrix.diagonal([2, 1]), ExactMatrix.identity(2)
    pairs = [(u, one), (l, one), (one, u), (one, l)]
    gsp4 = tuple(DualElement(matrix_exp_nilpotent(n), 1) for n in GSP4_NILPOTENTS) + (
        DualElement(THETA_J, 1), DualElement(ExactMatrix.diagonal([1, 1, 2, 2]), 2)
    )
    gso4 = tuple(DualElement(kron(a, b), a.det() * b.det()) for a, b in pairs + [(t, one)])
    rank1 = tuple(
        DualElement(
            ExactMatrix.block_diagonal([ExactMatrix.diagonal([x1]), m, ExactMatrix.diagonal([m.det() / x1])]), m.det()
        )
        for x1, m in ((1, u), (1, l), (1, t), (2, one))
    )
    h1 = tuple(DualElement(embed_pair(a, b), a.det()) for a, b in pairs + [(t, t)])
    diagonals = ([2, 1, 1, Fraction(1, 2)], [1, 2, 1, 2], [1, 1, 2, 2])
    h2 = tuple(DualElement(ExactMatrix.diagonal(v), v[1] * v[2]) for v in diagonals)
    tw = "twisted_gl4"
    rows = (
        # name, ambient, H, s, centralizer dimension, generators, Frobenius image, constant
        ("gspin5", tw, "GSpin5", ExactMatrix.identity(4), 11, gsp4, None, ONE),
        ("gspin4^1", tw, "GSpin4^1", S_GSO4, 7, gso4, None, None),
        ("gspin4^alpha", tw, "GSpin4^alpha", S_GSO4, 7, gso4, FROBENIUS_GSO4, None),
        ("rank1^alpha", tw, "(GSpin2^alpha x GSpin3)/GL1", S_RANK1, 5, rank1, FROBENIUS_RANK1, None),
        ("h1", "gspin5", "(GL2 x GL2)/GL1", S_H1, 7, h1, None, Fraction(1, 4)),
        ("h2^alpha", "gspin4", "(GSpin2^alpha x GSpin2^alpha)/GL1", S_H2, 3, h2, FROBENIUS_H2, None),
    )
    return tuple(EndoscopicDatum(*row) for row in rows)


# ---------------------------------------------------------------------------
# centralizer Lie algebras


def twisted_centralizer_basis(s: ExactMatrix) -> list[tuple[ExactMatrix, Fraction]]:
    """Basis of {(X, t) : X A + A tX = t A}, A = s J: the Lie algebra of the
    fixed points of Ad(s) composed with the dual twist."""
    a = s * THETA_J
    ident = ExactMatrix.identity(4)
    return matrix_equation_kernel([[(ident, "X", a), (a, "Xt", ident)]], scalar=a)


def ordinary_centralizer_basis(
    s: ExactMatrix, form: ExactMatrix
) -> list[tuple[ExactMatrix, Fraction]]:
    """Basis of {(X, t) : tX form + form X = t form, s X = X s}."""
    ident = ExactMatrix.identity(form.rows)
    return matrix_equation_kernel(
        [
            [(ident, "Xt", form), (form, "X", ident)],
            [(s, "X", ident), (-ident, "X", s)],
        ],
        scalar=form,
    )


def _lie_basis(d: EndoscopicDatum) -> list[tuple[ExactMatrix, Fraction]]:
    if d.twisted:
        return twisted_centralizer_basis(d.s)
    return ordinary_centralizer_basis(d.s, ORDINARY_FORMS[d.base])


def _frobenius_ok(d: EndoscopicDatum) -> bool:
    """Is the printed Frobenius image, if any, an involution normalizing the
    centralizer Lie algebra?"""
    if d.frobenius_image is None:
        return True
    # the basis is independent, so the conjugates lie in its span exactly
    # when they leave its rank alone; each vector (y, t) is one row
    c, cinv = d.frobenius_image, d.frobenius_image.inverse()
    rows = [[v for r in y.entries() for v in r] + [t] for x, t in d.lie_basis for y in (x, c * x * cinv)]
    return c * c == ExactMatrix.identity(4) and rank(ExactMatrix(rows)) == len(d.lie_basis)


def theta_s_fixed(s: ExactMatrix, e: DualElement) -> bool:
    """Is (g, x) fixed by Ad(s) composed with the dual twist?

    With A = s J the twisted image of g is x A tg^-1 A^-1, so the fixed
    points are the g with x A tg^-1 A^-1 = g, that is g A tg = x A.  That is
    the equation of a similitude tg with factor x for the form A, and it
    needs no inverse: as x != 0 and A is invertible, det(g)^2 = x^4 makes
    every solution g invertible, and for invertible g the two equations are
    equivalent."""
    return similitude_factor(e.g.transpose(), s * THETA_J) == e.x


def _generators_ok(d: EndoscopicDatum) -> bool:
    """Does each generator of H centralize s, twisted or ordinarily?  Both
    are closed subgroup conditions, so they hold on the Zariski closure of
    the group the generators generate, which contains H^0: the tests pin
    that their logs, closed under brackets and their Ad, span the printed
    dimension."""
    s = d.s
    if d.twisted:
        return all(theta_s_fixed(s, e) for e in d.generators)
    return all(s * e.g == e.g * s for e in d.generators)


@dataclass(frozen=True)
class CentralizerReport:
    datum: str
    ok: bool
    expected_dim: int
    computed_dim: int
    frobenius_ok: bool
    samples_ok: bool

    def message(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return (
            f"{status} centralizer[{self.datum}]: dim {self.computed_dim}"
            f" (expected {self.expected_dim}), frobenius {'ok' if self.frobenius_ok else 'BAD'},"
            f" samples {'ok' if self.samples_ok else 'BAD'}"
        )


def verify_centralizer(d: EndoscopicDatum) -> CentralizerReport:
    """Compare the dimension of the datum's centralizer basis with the
    printed one, and read the Frobenius and generator checks made when the
    datum was built."""
    dim = len(d.lie_basis)
    ok = dim == d.expected_centralizer_dim and d.frobenius_ok and d.generators_ok
    return CentralizerReport(
        datum=d.name,
        ok=ok,
        expected_dim=d.expected_centralizer_dim,
        computed_dim=dim,
        frobenius_ok=d.frobenius_ok,
        samples_ok=d.generators_ok,
    )


# ---------------------------------------------------------------------------
# the two restriction diagrams


@dataclass(frozen=True)
class DiagramReport:
    ok: bool
    samples: int
    failures: tuple[str, ...]

    def message(self) -> str:
        return (
            f"{'pass' if self.ok else 'FAIL'} restriction diagrams on {self.samples} samples"
            + ("" if self.ok else f": {'; '.join(self.failures)}")
        )


def restriction_diagrams_commute(seed: int = 0) -> DiagramReport:
    """Exact elementwise commutativity of the two dual-group squares on 20
    seeded samples.

    Square one: on symplectic elements the exterior square over the
    similitude on GL4 x GL1 is 1 (+) (projection to SO5), and the projection
    lands in SO5 (project_to_so5 fails unless the first holds, so the check
    is that p5 preserves SO5_GRAM and has determinant one).  Square two: the
    endoscopic pair embedding into GSp4 followed by the projection agrees
    with the Kronecker-product map into SO4 followed by its embedding."""
    samples = 20
    rng = random.Random(seed)
    failures = []
    for i in range(samples):
        p5 = project_to_so5(sample_gsp4(rng, frac(rng.randint(1, 4))))
        if similitude_factor(p5, SO5_GRAM) != 1:
            failures.append(f"square1@{i}")
        if p5.det() != 1:
            failures.append(f"square1-det@{i}")

        det = frac(rng.randint(1, 5))
        a = sample_gl2(rng, det)
        b = sample_gl2(rng, det)
        via_gsp4 = project_to_so5(embed_pair(a, b))
        via_so4 = embed_so4_block(kron(a, b).scale(ONE / det))
        if via_gsp4 != via_so4:
            failures.append(f"square2@{i}")
    # identity element commutes trivially; include it once
    if project_to_so5(ExactMatrix.identity(4)) != ExactMatrix.identity(5):
        failures.append("identity")
    return DiagramReport(ok=not failures, samples=samples, failures=tuple(failures))
