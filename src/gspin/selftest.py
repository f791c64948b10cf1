"""The full invariant suite behind the selftest subcommand.

Every module-level property is re-checked with a fixed seed; the report is a
deterministic sequence of pass/fail lines, suitable for byte-for-byte
comparison across runs."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .characters import CharacterGroup
from .dualgroups import (
    DualElement,
    GL4_GL1,
    GSPIN5,
    SP4_GL1,
    apply_theta,
    gspin_even_tag,
    pinning_fixed_by_theta,
    project_to_so5,
    sample_gsp4,
    SO5_GRAM,
)
from .exactlin import ExactMatrix, QuadraticSpace, bilinear, frac, kernel, rank, similitude_factor
from . import endoscopy
from .params import (
    CuspidalHandle,
    FormalParameter,
    character_summand,
    classify,
    component_group_oracle,
    gl2_alternative,
    multiplicity,
    std_compose,
)
from .restriction import project_parameter, restriction_count_identity, shape_catalog
from .weyl import (
    action_determinant,
    det_factor,
    enumerate_levis,
    enumerate_weyl_elements,
    is_regular,
    LeviDescriptor,
    TwistedWeylElement,
)
from .involutions import InvolutionPair, SimilitudeElement, factor, verify


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'pass' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def six_type_fixtures():
    """The character group and the example parameter of each Arthur type, as
    (letter, psi, component rank) in letter order."""
    g = CharacterGroup()
    g.declare_generator("eta0")
    g.declare_generator("chi0")
    g.declare_generator("beta", order_two=True)
    beta = g.element({}, {"beta"})
    g.declare_class("alpha", beta)
    chi = g.element({"chi0": 1})
    eta = g.element({"eta0": 1})
    chi_sq = g.pow(eta, 2)

    def cusp(name, omega, against):
        return gl2_alternative(g, CuspidalHandle(id=name, N=2, central_character=omega, chi=against))

    pi4 = CuspidalHandle(id="Pi4", N=4, central_character=g.pow(chi, 2), chi=chi, sign=-1)
    e1, e2 = (character_summand(g, e, chi_sq) for e in (eta, g.mul(eta, beta)))
    return g, [
        ("a", FormalParameter(chi=chi, summands=((pi4, 1),)), 0),
        ("b", FormalParameter(chi=chi, summands=((cusp("pi1", chi, chi), 1), (cusp("pi2", chi, chi), 1))), 1),
        ("c", FormalParameter(chi=chi, summands=((cusp("piDi", g.mul(chi, beta), chi), 2),)), 0),
        ("d", FormalParameter(chi=chi_sq, summands=((cusp("piSK", chi_sq, chi_sq), 1), (e1, 2))), 1),
        ("e", FormalParameter(chi=chi_sq, summands=((e1, 2), (e2, 2))), 1),
        ("f", FormalParameter(chi=chi_sq, summands=((e1, 4),)), 0),
    ]


# ---------------------------------------------------------------------------
# checks (each returns a CheckResult)


def check_kernel_rank(seed: int, corrupt: bool) -> CheckResult:
    rng = random.Random(seed)
    for trial in range(10):
        n = rng.randint(1, 6)
        m = ExactMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        if corrupt and trial == 3:
            m = ExactMatrix.zeros(n, n)
            expected = 0  # wrong on purpose
        else:
            expected = n - rank(m)
        base = kernel(m)
        if base.cols != expected or not (m * base).is_zero():
            return CheckResult("exactlin.kernel_rank", False, f"trial {trial}")
    return CheckResult("exactlin.kernel_rank", True, "rank-nullity on 10 seeded matrices")


def check_theta_involution(seed: int, corrupt: bool) -> CheckResult:
    rng = random.Random(seed)
    for trial in range(8):
        while True:
            g = ExactMatrix([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
            if g.det() != 0:
                break
        e = DualElement(g, frac(rng.randint(1, 5)))
        if apply_theta(apply_theta(e)) != e:
            return CheckResult("dualgroups.theta_involution", False, f"trial {trial}")
    return CheckResult("dualgroups.theta_involution", True, "twist squares to one on 8 samples")


def check_pinning(seed: int, corrupt: bool) -> CheckResult:
    report = pinning_fixed_by_theta()
    return CheckResult(
        "dualgroups.pinning", report.ok, "borel, torus and root vectors preserved"
        if report.ok
        else ",".join(report.failures)
    )


def check_projection(seed: int, corrupt: bool) -> CheckResult:
    rng = random.Random(seed)
    for trial in range(6):
        g1 = sample_gsp4(rng, frac(rng.randint(1, 3)))
        g2 = sample_gsp4(rng, frac(rng.randint(1, 3)))
        p1, p2 = project_to_so5(g1), project_to_so5(g2)
        if project_to_so5(g1 * g2) != p1 * p2:
            return CheckResult("dualgroups.projection", False, f"multiplicativity {trial}")
        if similitude_factor(p1, SO5_GRAM) != 1:
            return CheckResult("dualgroups.projection", False, f"orthogonality {trial}")
    return CheckResult("dualgroups.projection", True, "multiplicative and orthogonal on 6 samples")


def check_endoscopy_catalog(seed: int, corrupt: bool) -> CheckResult:
    data = endoscopy.full_catalog()
    reports = []
    for d in data:
        if corrupt and d.name == "h1":
            d = replace(d, s=ExactMatrix.diagonal([1, 1, -1, 1]))
        reports.append(endoscopy.verify_centralizer(d))
    bad = [r for r in reports if not r.ok]
    dims = ",".join(str(r.computed_dim) for r in reports)
    if bad:
        return CheckResult("endoscopy.catalog", False, "; ".join(r.message() for r in bad))
    iotas = {d.name: d.stabilisation_constant for d in data if d.stabilisation_constant is not None}
    if iotas != {"gspin5": Fraction(1), "h1": Fraction(1, 4)}:
        return CheckResult("endoscopy.catalog", False, "stabilisation constants off")
    return CheckResult("endoscopy.catalog", True, f"centralizer dims {dims}; constants 1 and 1/4")


def check_endoscopy_diagrams(seed: int, corrupt: bool) -> CheckResult:
    report = endoscopy.restriction_diagrams_commute(seed=seed)
    return CheckResult(
        "endoscopy.diagrams",
        report.ok,
        f"both squares on {report.samples} samples" if report.ok else ";".join(report.failures),
    )


def check_types_table_vs_oracle(seed: int, corrupt: bool) -> CheckResult:
    g, fixtures = six_type_fixtures()
    for letter, psi, expected_rank in fixtures:
        cls = classify(g, psi, root_number_minus=False)
        if cls.arthur_type.letter != letter or cls.component_rank != expected_rank:
            return CheckResult("params.type_table", False, f"letter {letter}")
        oracle = component_group_oracle(psi)
        if not oracle.agrees_with(cls):
            return CheckResult("params.type_table", False, f"oracle disagrees at {letter}")
    # epsilon is sgn exactly for the flagged Saito-Kurokawa fixture
    sk = fixtures[3][1]
    eps_minus = classify(g, sk, root_number_minus=True).automorphy_character
    eps_plus = classify(g, sk, root_number_minus=False).automorphy_character
    cg = classify(g, sk).component_group
    if cg.is_trivial(eps_plus) is not True or cg.is_trivial(eps_minus) is not False:
        return CheckResult("params.type_table", False, "epsilon flag")
    return CheckResult("params.type_table", True, "six types match the oracle, epsilon flag correct")


def check_multiplicity_counting(seed: int, corrupt: bool) -> CheckResult:
    g, fixtures = six_type_fixtures()
    sk = fixtures[3][1]
    sgroup = classify(g, sk).component_group
    chars = sgroup.characters()
    for k in (1, 2, 3):
        for flag in (False, True):
            members = 0
            for assign in itertools.product(chars, repeat=k):
                m = multiplicity(g, sk, [(f"v{i}", c) for i, c in enumerate(assign)], root_number_minus=flag)
                if m not in (0, 1):
                    return CheckResult("params.multiplicity", False, f"m={m}")
                members += bool(m)
            if members != 2 ** (k - 1):
                return CheckResult("params.multiplicity", False, f"k={k} flag={flag}")
    return CheckResult("params.multiplicity", True, "2^(k-1) automorphic members for k=1,2,3")


def check_weyl_equivalence(seed: int, corrupt: bool) -> CheckResult:
    total = 0
    for group in (GL4_GL1, GSPIN5, gspin_even_tag("1"), SP4_GL1):
        for levi in enumerate_levis(group):
            for w in enumerate_weyl_elements(levi):
                total += 1
                if is_regular(w) != (action_determinant(w) != 0):
                    return CheckResult("weyl.regularity", False, levi.describe())
    yoshida = TwistedWeylElement(LeviDescriptor(GL4_GL1, (2, 2), 0), (0, 1), (-1, -1))
    if det_factor(yoshida) != 2:
        return CheckResult("weyl.regularity", False, "det factor for the two-block twist")
    return CheckResult("weyl.regularity", True, f"criterion = determinant on {total} elements; factor 2")


def check_restriction_counting(seed: int, corrupt: bool) -> CheckResult:
    for phi in shape_catalog().values():
        report = restriction_count_identity(project_parameter(phi))
        if not report.ok:
            return CheckResult("restriction.count", False, report.message())
    return CheckResult("restriction.count", True, "partitions of the dual on every catalog shape")


def _lagrangian_root(rng: random.Random, dim: int) -> ExactMatrix:
    """y = (A, J tA J) on the antidiagonal form, A a block sum of 2 x 2
    roots of one non-square nu: a similitude with factor nu and y^2 = nu."""
    nu = rng.choice((2, -1, 3, -3, 5, 6, -7))
    roots = []
    for _ in range(dim // 4):
        a, b = rng.randint(-3, 3), rng.choice((1, -1))
        roots.append(ExactMatrix([[a, b], [(nu - a * a) * b, -a]]))
    a = ExactMatrix.block_diagonal(roots)
    j = ExactMatrix.antidiagonal([1] * (dim // 2))
    return ExactMatrix.block_diagonal([a, j * a.transpose() * j])


def check_involutions(seed: int, corrupt: bool) -> CheckResult:
    rng = random.Random(seed)
    spaces = [
        QuadraticSpace(4, ExactMatrix.antidiagonal([1] * 4)),
        QuadraticSpace(6, ExactMatrix.diagonal([1, 1, 2, -1, 3, 1])),
        QuadraticSpace(8, ExactMatrix.antidiagonal([1] * 8)),
    ]
    count = 0
    for space in spaces:
        for trial in range(8):
            g = ExactMatrix.identity(space.dim)
            for _ in range(2 * rng.randint(1, 2)):
                while True:
                    v = tuple(frac(rng.randint(-3, 3)) for _ in range(space.dim))
                    if bilinear(space.gram, v, v) != 0:
                        break
                g = g * space.reflection(v)
            if trial == 7 and space.dim != 6:
                g = g * _lagrangian_root(rng, space.dim)  # a non-square nu
            else:
                g = g.scale(frac(rng.randint(1, 4)))
            e = SimilitudeElement(space, g, similitude_factor(g, space.gram))
            pair = factor(e)
            if corrupt and count == 3:
                pair = InvolutionPair(pair.x, -pair.y)  # wrong on purpose: x y = -g
            if not verify(e, pair):
                return CheckResult("involutions.factor", False, f"seed {seed} trial {count} dim {space.dim}")
            count += 1
    return CheckResult("involutions.factor", True, f"{count} seeded factorizations verified")


def check_std_compose(seed: int, corrupt: bool) -> CheckResult:
    g, fixtures = six_type_fixtures()
    yoshida = fixtures[1][1]
    ids = [h.id for h, _ in yoshida.summands]
    out, _ = std_compose(yoshida, {ids[0]: [2, 3], ids[1]: [5, 7]}, 6)
    if len(out) != 4:
        return CheckResult("params.std_compose", False, "size")
    sk = fixtures[3][1]
    ids = {h.id: h for h, _ in sk.summands}
    eta_id = next(i for i, h in ids.items() if h.N == 1)
    pi_id = next(i for i, h in ids.items() if h.N == 2)
    out, _ = std_compose(sk, {pi_id: [2, 3], eta_id: [5]}, 25)
    if (frac(5), 1) not in out or (frac(5), -1) not in out:
        return CheckResult("params.std_compose", False, "half-power twist")
    return CheckResult("params.std_compose", True, "multiset sizes and half-power twists")


CHECKS: list[Callable[[int, bool], CheckResult]] = [
    check_kernel_rank,
    check_theta_involution,
    check_pinning,
    check_projection,
    check_endoscopy_catalog,
    check_endoscopy_diagrams,
    check_types_table_vs_oracle,
    check_multiplicity_counting,
    check_weyl_equivalence,
    check_restriction_counting,
    check_involutions,
    check_std_compose,
]


CORRUPTIBLE = ("kernel_rank", "endoscopy_catalog", "involutions")  # the checks that read corrupt


def run_selftest(seed: int = 0, corrupt: str | None = None) -> tuple[bool, list[str]]:
    """Run every named check, corrupting the one named (one of CORRUPTIBLE);
    returns (all passed, report lines)."""
    if corrupt is not None and corrupt not in CORRUPTIBLE:
        raise ValueError(f"check {corrupt!r} has no corruption hook")
    lines = [f"selftest seed={seed}"]
    all_ok = True
    for fn in CHECKS:
        name = fn.__name__.removeprefix("check_")
        result = fn(seed, corrupt == name)
        all_ok &= result.ok
        lines.append(result.line())
    lines.append("selftest " + ("PASS" if all_ok else "FAIL"))
    return all_ok, lines
