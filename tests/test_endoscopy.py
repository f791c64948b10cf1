import random
from fractions import Fraction

import pytest

from gspin.dualgroups import DualElement, sample_gsp4
from gspin.exactlin import ExactMatrix, frac, matrix_log_unipotent, rank, span_basis
from gspin import cli, endoscopy
from gspin.endoscopy import (
    FROBENIUS_GSO4,
    FROBENIUS_H2,
    FROBENIUS_RANK1,
    full_catalog,
    ordinary_centralizer_basis,
    restriction_diagrams_commute,
    S_GSO4,
    S_H1,
    S_RANK1,
    theta_s_fixed,
    twisted_centralizer_basis,
    verify_centralizer,
)


def _data(ambient: str) -> list:
    return [d for d in full_catalog() if d.base == ambient]


def test_catalog_families_for_twisted_space():
    data = _data("twisted_gl4")
    names = [d.name for d in data]
    assert names == ["gspin5", "gspin4^1", "gspin4^alpha", "rank1^alpha"]
    families = {n.split("^")[0] for n in names}
    assert families == {"gspin5", "gspin4", "rank1"}  # three families
    by_name = {d.name: d for d in data}
    assert by_name["gspin5"].s == ExactMatrix.identity(4)
    assert by_name["gspin4^alpha"].s == ExactMatrix.diagonal([-1, -1, 1, 1])
    assert by_name["rank1^alpha"].s == ExactMatrix.diagonal([-1, 1, 1, 1])
    assert by_name["gspin4^alpha"].frobenius_image == FROBENIUS_GSO4
    assert by_name["rank1^alpha"].frobenius_image == FROBENIUS_RANK1
    assert by_name["gspin5"].stabilisation_constant == 1


def test_catalog_gspin5():
    (h1,) = _data("gspin5")
    assert h1.stabilisation_constant == Fraction(1, 4)
    assert h1.expected_centralizer_dim == 7
    assert not h1.twisted


def test_catalog_gspin4():
    (h2,) = _data("gspin4")
    assert h2.expected_centralizer_dim == 3
    assert h2.frobenius_image == FROBENIUS_H2


def test_ordinary_frobenius_images_commute_with_s_and_h2_stays_elliptic():
    ordinary = [d for d in full_catalog() if not d.twisted and d.frobenius_image is not None]
    assert [d.name for d in ordinary] == ["h2^alpha"]
    for d in ordinary:
        c = d.frobenius_image
        assert c * d.s == d.s * c, d.name
    # h2's Lie algebra is a torus, so the part its Frobenius image fixes is
    # the fixed part of the centre: a line, as the datum is elliptic
    (h2,) = ordinary
    c = h2.frobenius_image
    moved = [c * x * c.inverse() - x for x, _ in h2.lie_basis]
    assert len(h2.lie_basis) == 3
    assert len(h2.lie_basis) - rank(ExactMatrix([[v for row in m.entries() for v in row] for m in moved])) == 1


def test_catalog_filters_the_one_read_only_tuple():
    data = full_catalog()
    assert full_catalog() is data
    assert [d.name for d in data] == ["gspin5", "gspin4^1", "gspin4^alpha", "rank1^alpha", "h1", "h2^alpha"]
    filtered = [d for ambient in ("twisted_gl4", "gspin5", "gspin4") for d in _data(ambient)]
    assert all(a is b for a, b in zip(filtered, data, strict=True))


def test_two_endoscopy_suites_solve_each_centralizer_once(monkeypatch):
    calls = []
    real = endoscopy.matrix_equation_kernel
    monkeypatch.setattr(endoscopy, "matrix_equation_kernel", lambda *a, **k: calls.append(1) or real(*a, **k))
    for _ in range(2):
        ok, lines = cli._endoscopy_suite(0)
        assert ok, lines
    assert len(calls) == 6


def test_a_warm_endoscopy_suite_inverts_only_the_frobenius_images_and_takes_no_exponential(monkeypatch):
    import gspin
    from gspin import exactlin

    cli._endoscopy_suite(0)
    calls = {"inverse": 0, "exp": 0}
    real_inverse, real_exp = ExactMatrix.inverse, exactlin.matrix_exp_nilpotent

    def inverse(m):
        calls["inverse"] += 1
        return real_inverse(m)

    def exp(n):
        calls["exp"] += 1
        return real_exp(n)

    monkeypatch.setattr(ExactMatrix, "inverse", inverse)
    for module in vars(gspin).values():
        if getattr(module, "matrix_exp_nilpotent", None) is real_exp:
            monkeypatch.setattr(module, "matrix_exp_nilpotent", exp)
    ok, lines = cli._endoscopy_suite(1)
    assert ok, lines
    # each datum checks its Frobenius image once, when it is built
    assert calls == {"inverse": 0, "exp": 0}


def test_a_warm_endoscopy_suite_makes_at_most_100_integer_products(monkeypatch):
    # 576 while the constant factors of the samplers and projections were
    # dense products, and each similitude factor took two; 162 while
    # verify_centralizer drew samples; now only the restriction diagrams draw
    import gspin
    from gspin import exactlin

    cli._endoscopy_suite(0)
    calls = []
    real = exactlin.int_product

    def int_product(rows, columns):
        calls.append(1)
        return real(rows, columns)

    for module in vars(gspin).values():
        if getattr(module, "int_product", None) is real:
            monkeypatch.setattr(module, "int_product", int_product)
    ok, lines = cli._endoscopy_suite(1)
    assert ok, lines
    assert 0 < len(calls) <= 100


def test_a_warm_verify_centralizer_multiplies_no_matrices(monkeypatch):
    # each datum checks its generators once, when it is built
    from gspin import exactlin

    data = full_catalog()
    calls = []
    real = exactlin._matmul
    monkeypatch.setattr(exactlin, "_matmul", lambda a, b: calls.append(1) or real(a, b))
    for d in data:
        assert verify_centralizer(d).ok
    assert calls == []


def test_twisted_centralizer_dimensions():
    assert len(twisted_centralizer_basis(ExactMatrix.identity(4))) == 11
    assert len(twisted_centralizer_basis(ExactMatrix.diagonal([-1, -1, 1, 1]))) == 7
    assert len(twisted_centralizer_basis(ExactMatrix.diagonal([-1, 1, 1, 1]))) == 5


def test_ordinary_centralizer_dimensions():
    from gspin.dualgroups import GSO4_GRAM, THETA_J

    assert len(ordinary_centralizer_basis(S_H1, THETA_J)) == 7
    assert len(ordinary_centralizer_basis(ExactMatrix.diagonal([1, -1, -1, 1]), GSO4_GRAM)) == 3
    # unconstrained s: the full similitude Lie algebras
    assert len(ordinary_centralizer_basis(ExactMatrix.identity(4), THETA_J)) == 11
    assert len(ordinary_centralizer_basis(ExactMatrix.identity(4), GSO4_GRAM)) == 7


def test_every_catalog_entry_passes_verification():
    for d in full_catalog():
        report = verify_centralizer(d)
        assert report.ok, report.message()


def _log(g: ExactMatrix) -> ExactMatrix | None:
    """log g of a unipotent g, diag(k) of g = diag(2^k), None otherwise."""
    if (g - ExactMatrix.identity(g.rows)).charpoly()[:-1] == [0] * g.rows:
        return matrix_log_unipotent(g)
    entries = [g[i, i] for i in range(g.rows)]
    if g != ExactMatrix.diagonal(entries):
        return None
    exponents = [e.numerator.bit_length() - e.denominator.bit_length() for e in entries]
    assert entries == [Fraction(2) ** k for k in exponents], "diagonal generator not a power of 2"
    return ExactMatrix.diagonal(exponents)


def _generated_lie_algebra_dim(gens: list[ExactMatrix]) -> int:
    """Dimension of the span of the logs of the generators, closed under
    Ad(g) for every generator g and under brackets: a Lie algebra inside
    that of the Zariski closure of the group the generators generate."""
    n = gens[0].rows
    algebra = [x for x in map(_log, gens) if x is not None]
    dim = -1
    while dim < len(algebra):
        dim = len(algebra)
        grown = algebra + [g * x * g.inverse() for g in gens for x in algebra]
        grown += [x * y - y * x for i, x in enumerate(algebra) for y in algebra[:i]]
        basis = span_basis(ExactMatrix([[v for r in x.entries() for v in r] for x in grown]).transpose())
        algebra = [ExactMatrix([v[n * i : n * i + n] for i in range(n)]) for v in basis.transpose().entries()]
    return dim


def test_the_generators_generate_a_group_of_the_printed_dimension():
    dims = [_generated_lie_algebra_dim([e.g for e in d.generators]) for d in full_catalog()]
    assert dims == [d.expected_centralizer_dim for d in full_catalog()] == [11, 7, 7, 5, 7, 3]
    # without the similitude diag(1, 1, 2, 2), GSp4's generators generate Sp4
    (gsp4,) = [d for d in full_catalog() if d.name == "gspin5"]
    assert _generated_lie_algebra_dim([e.g for e in gsp4.generators][:-1]) == 10


S_ELEMENTS = (ExactMatrix.identity(4), S_GSO4, S_RANK1, S_H1, ExactMatrix.diagonal([2, 1, -1, 3]))


def test_generator_verdicts_for_every_datum_and_s():
    from dataclasses import replace

    rows = [
        (d.name, "".join(str(int(verify_centralizer(replace(d, s=s)).samples_ok)) for s in S_ELEMENTS))
        for d in full_catalog()
    ]
    # columns: s = 1, S_GSO4, S_RANK1, S_H1, diag(2, 1, -1, 3)
    assert rows == [
        ("gspin5", "10000"),
        ("gspin4^1", "01000"),
        ("gspin4^alpha", "01000"),
        ("rank1^alpha", "10110"),
        ("h1", "10010"),
        ("h2^alpha", "11111"),
    ]


def test_an_unknown_base_is_refused():
    from dataclasses import replace

    (h1,) = [d for d in full_catalog() if d.name == "h1"]
    with pytest.raises(ValueError, match="unknown base 'gspin6'"):
        replace(h1, base="gspin6")


def test_verification_draws_nothing(monkeypatch):
    from dataclasses import replace

    def no_draws(*args):
        raise AssertionError("verify_centralizer drew a random sample")

    monkeypatch.setattr(endoscopy.random, "Random", no_draws)
    for d in full_catalog():
        report = verify_centralizer(replace(d))
        assert report.ok, report.message()


@pytest.mark.parametrize(
    "name, image",
    [
        # an involution that does not normalize
        ("rank1^alpha", ExactMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])),
        ("gspin4^alpha", ExactMatrix.diagonal([1, 1, 1, 2])),  # not an involution
    ],
)
def test_verification_catches_a_wrong_frobenius_image(name, image):
    from dataclasses import replace

    (d,) = [d for d in full_catalog() if d.name == name]
    report = verify_centralizer(replace(d, frobenius_image=image))
    assert not report.ok and not report.frobenius_ok and report.samples_ok
    assert "frobenius BAD" in report.message()


def test_frobenius_images_are_involutions():
    for m in (FROBENIUS_GSO4, FROBENIUS_RANK1, FROBENIUS_H2):
        assert m * m == ExactMatrix.identity(4)


def test_theta_s_fixedness_of_gsp4_and_gso4_samples():
    rng = random.Random(2)
    for _ in range(5):
        x = frac(rng.randint(1, 4))
        assert theta_s_fixed(ExactMatrix.identity(4), DualElement(sample_gsp4(rng, x), x))
    (gso4,) = [d for d in full_catalog() if d.name == "gspin4^1"]
    for e in gso4.generators:
        assert theta_s_fixed(ExactMatrix.diagonal([-1, -1, 1, 1]), e)


def test_rank1_member_shape():
    # diag(x1, M, x2) with x1 x2 = det M is fixed for the rank-one s-element
    m = ExactMatrix([[2, 1], [3, 4]])
    x1 = frac(2)
    g = ExactMatrix(
        [
            [x1, 0, 0, 0],
            [0, 2, 1, 0],
            [0, 3, 4, 0],
            [0, 0, 0, m.det() / x1],
        ]
    )
    assert theta_s_fixed(ExactMatrix.diagonal([-1, 1, 1, 1]), DualElement(g, m.det()))
    # breaking the constraint x1 x2 = det M loses fixedness
    bad = ExactMatrix(
        [
            [x1, 0, 0, 0],
            [0, 2, 1, 0],
            [0, 3, 4, 0],
            [0, 0, 0, 1],
        ]
    )
    assert not theta_s_fixed(ExactMatrix.diagonal([-1, 1, 1, 1]), DualElement(bad, m.det()))


def test_verification_catches_corrupted_matrix():
    (h1,) = _data("gspin5")
    from dataclasses import replace

    corrupted = replace(h1, s=ExactMatrix.diagonal([1, 1, -1, 1]))
    assert not verify_centralizer(corrupted).ok


def test_restriction_diagrams_commute():
    report = restriction_diagrams_commute(seed=0)
    assert report.ok, report.message()
    # determinism: same seed, same verdict
    again = restriction_diagrams_commute(seed=0)
    assert report == again


def test_restriction_diagrams_catch_a_corrupted_so4_embedding(monkeypatch):
    # flipping the sign of the last tensor coordinate still fixes the
    # invariant line, but embeds the SO4 block wrongly
    from gspin import dualgroups

    flip = ExactMatrix.diagonal([1, 1, 1, 1, 1, -1])
    monkeypatch.setattr(
        dualgroups, "_SO4_BLOCK_TO_SPLIT", dualgroups._SO4_BLOCK_TO_SPLIT * flip
    )
    report = restriction_diagrams_commute(seed=0)
    assert not report.ok
    assert report.message().startswith("FAIL restriction diagrams on 20 samples: square2@0")
    assert all(f.startswith("square2@") for f in report.failures)


def test_restriction_diagrams_catch_a_projection_outside_so5(monkeypatch):
    # rescaling one complement vector of the split basis still fixes the
    # invariant line, so the projection returns, but conjugated out of
    # SO(SO5_GRAM); the basis is replaced wherever it is bound, so a square
    # one that recomputed the same split product would agree with it
    from gspin import dualgroups, endoscopy

    basis = dualgroups.SPLIT_BASIS * ExactMatrix.diagonal([1, 2, 1, 1, 1, 1])
    for module in (dualgroups, endoscopy):
        monkeypatch.setattr(module, "SPLIT_BASIS", basis, raising=False)
        monkeypatch.setattr(module, "SPLIT_BASIS_INV", basis.inverse(), raising=False)
    report = restriction_diagrams_commute(seed=0)
    assert not report.ok
    assert report.message().startswith("FAIL restriction diagrams on 20 samples: square1@0")
    assert {f"square1@{i}" for i in range(5)} <= set(report.failures)
    assert not any(f.startswith("square1-det@") for f in report.failures)
