"""Elliptic endoscopic data with exact verification.

Each datum stores the printed matrix ingredients: the semisimple element s,
the Frobenius image for non-split members, and the stabilisation constant
where one is on record.  verify_centralizer recomputes, by exact linear
algebra, the dimension of the (twisted) centralizer Lie algebra and checks
that the Frobenius images are involutions normalizing the embedded subgroup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .characters import AlphaClass, TRIVIAL_CLASS
from .dualgroups import (
    DualElement,
    GSO4_GRAM,
    SPLIT_BASIS,
    THETA_J,
    embed_pair,
    embed_so4_block,
    exterior_square,
    project_to_so5,
    sample_gl2,
    sample_gso4,
    sample_gsp4,
)
# kernel is no longer called here but stays bound: perfbench/test_perfbench.py
# checks that the tracer wraps it at this binding site too
from .exactlin import ExactMatrix, frac, in_span, kernel, matrix_equation_kernel, ONE  # noqa: F401

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
FROBENIUS_H2 = ExactMatrix(
    [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
)


@dataclass(frozen=True)
class EndoscopicDatum:
    """An elliptic endoscopic datum given by its matrix ingredients."""

    name: str
    base: str  # 'twisted_gl4', 'gspin5', 'gspin4'
    h_description: str
    s: DualElement
    twisted: bool
    expected_centralizer_dim: int
    alpha: AlphaClass = TRIVIAL_CLASS
    frobenius_image: ExactMatrix | None = None
    stabilisation_constant: Fraction | None = None


def catalog(ambient: str, classes: Sequence[AlphaClass] = ()) -> list[EndoscopicDatum]:
    """The elliptic endoscopic data attached to the ambient space.

    ambient is 'twisted_gl4' (the twisted GL4 x GL1 space), 'gspin5', or
    'gspin4'; square classes beyond the trivial one must be declared by the
    caller."""
    nontrivial = [c for c in classes if not c.is_trivial]
    if ambient == "twisted_gl4":
        out = [
            EndoscopicDatum(
                name="gspin5",
                base=ambient,
                h_description="GSpin5",
                s=DualElement(ExactMatrix.identity(4), ONE),
                twisted=True,
                expected_centralizer_dim=11,
                stabilisation_constant=Fraction(1),
            ),
            EndoscopicDatum(
                name="gspin4^1",
                base=ambient,
                h_description="GSpin4^1",
                s=DualElement(S_GSO4, ONE),
                twisted=True,
                expected_centralizer_dim=7,
            ),
        ]
        for cls in nontrivial:
            out.append(
                EndoscopicDatum(
                    name=f"gspin4^{cls.token}",
                    base=ambient,
                    h_description=f"GSpin4^{cls.token}",
                    s=DualElement(S_GSO4, ONE),
                    twisted=True,
                    expected_centralizer_dim=7,
                    alpha=cls,
                    frobenius_image=FROBENIUS_GSO4,
                )
            )
            out.append(
                EndoscopicDatum(
                    name=f"rank1^{cls.token}",
                    base=ambient,
                    h_description=f"(GSpin2^{cls.token} x GSpin3)/GL1",
                    s=DualElement(S_RANK1, ONE),
                    twisted=True,
                    expected_centralizer_dim=5,
                    alpha=cls,
                    frobenius_image=FROBENIUS_RANK1,
                )
            )
        return out
    if ambient == "gspin5":
        return [
            EndoscopicDatum(
                name="h1",
                base=ambient,
                h_description="(GL2 x GL2)/GL1",
                s=DualElement(S_H1, ONE),
                twisted=False,
                expected_centralizer_dim=7,
                stabilisation_constant=Fraction(1, 4),
            )
        ]
    if ambient == "gspin4":
        out = []
        for cls in nontrivial:
            out.append(
                EndoscopicDatum(
                    name=f"h2^{cls.token}",
                    base=ambient,
                    h_description=f"(GSpin2^{cls.token} x GSpin2^{cls.token})/GL1",
                    s=DualElement(S_H2, ONE),
                    twisted=False,
                    expected_centralizer_dim=3,
                    alpha=cls,
                    frobenius_image=FROBENIUS_H2,
                )
            )
        return out
    raise ValueError(f"unsupported ambient {ambient!r}")


def full_catalog() -> list[EndoscopicDatum]:
    """The data of all three ambients with the one nontrivial square class
    'alpha' declared: what verify-endoscopy and the selftest verify."""
    alpha = AlphaClass("alpha")
    return [
        d
        for ambient, classes in (("twisted_gl4", [alpha]), ("gspin5", []), ("gspin4", [alpha]))
        for d in catalog(ambient, classes)
    ]


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
        return twisted_centralizer_basis(d.s.g)
    if d.base == "gspin5":
        return ordinary_centralizer_basis(d.s.g, THETA_J)
    return ordinary_centralizer_basis(d.s.g, GSO4_GRAM)


def theta_s_fixed(s: ExactMatrix, e: DualElement) -> bool:
    """Is (g, x) fixed by Ad(s) composed with the dual twist?"""
    gt_inv = e.g.inverse().transpose()
    h = (s * THETA_J * gt_inv * THETA_J.inverse() * s.inverse()).scale(e.x)
    return h == e.g


def _xi_samples(d: EndoscopicDatum, rng: random.Random) -> list[DualElement]:
    if d.base == "twisted_gl4":
        if d.name == "gspin5":
            return [sample_gsp4(rng, frac(rng.randint(1, 4))) for _ in range(4)]
        if d.name.startswith("gspin4"):
            return [sample_gso4(rng) for _ in range(4)]
        out = []
        for _ in range(4):
            m = sample_gl2(rng, frac(rng.randint(1, 5)))
            det_m = m.det()
            x1 = frac(rng.randint(1, 5))
            g = ExactMatrix(
                [
                    [x1, 0, 0, 0],
                    [0, m[0, 0], m[0, 1], 0],
                    [0, m[1, 0], m[1, 1], 0],
                    [0, 0, 0, det_m / x1],
                ]
            )
            out.append(DualElement(g, det_m))
        return out
    if d.base == "gspin5":
        out = []
        for _ in range(4):
            det = frac(rng.randint(1, 5))
            a = sample_gl2(rng, det)
            b = sample_gl2(rng, det)
            g = embed_pair(a, b)
            out.append(DualElement(g, det))
        return out
    # gspin4: the diagonal torus ad = bc
    out = []
    for _ in range(4):
        a, b, c = (frac(rng.randint(1, 5)) for _ in range(3))
        out.append(DualElement(ExactMatrix.diagonal([a, b, c, b * c / a]), b * c))
    return out


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


def verify_centralizer(d: EndoscopicDatum, seed: int = 0) -> CentralizerReport:
    """Recompute the centralizer dimension and the normalization properties of
    the printed Frobenius image; check that embedded sample elements commute
    with the (twisted) action."""
    basis = _lie_basis(d)
    dim = len(basis)

    frob_ok = True
    if d.frobenius_image is not None:
        c = d.frobenius_image
        frob_ok = c * c == ExactMatrix.identity(4)
        span = [tuple(x[i, j] for i in range(4) for j in range(4)) + (t,) for x, t in basis]
        cinv = c.inverse()
        for x, t in basis:
            conj = c * x * cinv
            vec = tuple(conj[i, j] for i in range(4) for j in range(4)) + (t,)
            if not in_span(vec, span):
                frob_ok = False
                break

    rng = random.Random(seed)
    samples_ok = True
    for e in _xi_samples(d, rng):
        if d.twisted:
            if not theta_s_fixed(d.s.g, e):
                samples_ok = False
        else:
            if d.s.g * e.g != e.g * d.s.g:
                samples_ok = False

    ok = dim == d.expected_centralizer_dim and frob_ok and samples_ok
    return CentralizerReport(
        datum=d.name,
        ok=ok,
        expected_dim=d.expected_centralizer_dim,
        computed_dim=dim,
        frobenius_ok=frob_ok,
        samples_ok=samples_ok,
    )


# ---------------------------------------------------------------------------
# recovering the square class from Satake-level data


def recover_alpha(pair: tuple[ExactMatrix, Fraction], nontrivial: AlphaClass) -> AlphaClass:
    """'split' detection at one place: the class is trivial exactly when
    det g = x^2; otherwise the caller's nontrivial token is returned."""
    g, x = pair
    x = frac(x)
    if g.det() == x * x:
        return TRIVIAL_CLASS
    return nontrivial


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


def restriction_diagrams_commute(seed: int = 0, samples: int = 20) -> DiagramReport:
    """Exact elementwise commutativity of the two dual-group squares.

    Square one: exterior square over the similitude on GL4 x GL1 agrees with
    1 (+) (projection to SO5) on symplectic elements.  Square two: the
    endoscopic pair embedding into GSp4 followed by the projection agrees
    with the Kronecker-product map into SO4 followed by its embedding."""
    rng = random.Random(seed)
    failures = []
    split_inv = SPLIT_BASIS.inverse()
    for i in range(samples):
        e = sample_gsp4(rng, frac(rng.randint(1, 4)))
        f6 = exterior_square(e.g).scale(ONE / e.x)
        p5 = project_to_so5(e)
        lhs = split_inv * f6 * SPLIT_BASIS
        rhs = ExactMatrix.block_diagonal([ExactMatrix.identity(1), p5])
        if lhs != rhs:
            failures.append(f"square1@{i}")
        if f6.det() != 1:
            failures.append(f"square1-det@{i}")

        det = frac(rng.randint(1, 5))
        a = sample_gl2(rng, det)
        b = sample_gl2(rng, det)
        via_gsp4 = project_to_so5(DualElement(embed_pair(a, b), det))
        from .exactlin import kron

        via_so4 = embed_so4_block(kron(a, b).scale(ONE / det))
        if via_gsp4 != via_so4:
            failures.append(f"square2@{i}")
    # identity element commutes trivially; include it once
    if project_to_so5(DualElement(ExactMatrix.identity(4), ONE)) != ExactMatrix.identity(5):
        failures.append("identity")
    return DiagramReport(ok=not failures, samples=samples, failures=tuple(failures))
