import json

import pytest

from gspin import restriction
from gspin.cli import main
from gspin.dualgroups import THETA_J, project_to_so5
from gspin.exactlin import ONE, ExactMatrix, kron
from gspin.params import TwoGroup
from gspin.restriction import (
    BoundedParameterDescriptor,
    _classify_pieces,
    _in_group,
    _split_pieces,
    component_sign_group,
    gso4_shape_catalog,
    project_parameter,
    restrict_gso4,
    restriction_count_identity,
    shape_catalog,
)


def test_sign_group_basics():
    g = TwoGroup(("a", "b"), elements=[frozenset(), frozenset({"a", "b"})])
    assert g.order == 2 and g.rank == 1
    chars = g.characters()
    assert len(chars) == 2
    nontrivial = [c for c in chars if g.value(c, frozenset({"a", "b"})) == -1]
    assert len(nontrivial) == 1
    with pytest.raises(ValueError):
        TwoGroup(("a",), elements=[frozenset({"a"})])  # missing identity
    with pytest.raises(ValueError):
        TwoGroup(("a", "b"), elements=[frozenset(), frozenset({"a"}), frozenset({"b"})])  # not closed


def test_shape_ranks_upstairs():
    cat = shape_catalog()
    for name, expected in (
        ("irreducible", 0),
        ("two_two_generic", 1),
        ("two_two_dihedral", 1),
        ("principal_series", 0),
    ):
        proj = project_parameter(cat[name])
        assert proj.s_group.group.rank == expected, name


def test_downstairs_ranks():
    cat = shape_catalog()
    proj = project_parameter(cat["two_two_generic"])
    assert proj.s_group_prime.group.rank == 1
    proj = project_parameter(cat["two_two_dihedral"])
    assert proj.s_group_prime.group.rank == 2
    proj = project_parameter(cat["irreducible"])
    assert proj.s_group_prime.group.rank == 0
    proj = project_parameter(cat["principal_series"])
    assert proj.s_group_prime.group.rank == 0


def test_embedding_is_injective_where_defined():
    cat = shape_catalog()
    for name in ("two_two_generic", "two_two_dihedral"):
        proj = project_parameter(cat[name])
        assert proj.embedded_s is not None and proj.embedded_s != frozenset()


def test_constituents_of_a_trivial_group_are_one_member_with_everything():
    proj = project_parameter(shape_catalog()["irreducible"])
    rep = restriction_count_identity(proj)
    assert rep.constituents == (("packet", frozenset(proj.s_group_prime.group.characters())),)


def test_constituents_split_the_dual_by_the_sign_at_s_prime():
    proj = project_parameter(shape_catalog()["two_two_dihedral"])
    (plus_label, out_plus), (minus_label, out_minus) = restriction_count_identity(proj).constituents
    assert (plus_label, minus_label) == ("+", "-")
    assert len(out_plus) == len(out_minus) == 2  # half of the four characters
    assert not (out_plus & out_minus)
    for ch in out_plus:
        assert TwoGroup.value(ch, proj.embedded_s) == 1
    for ch in out_minus:
        assert TwoGroup.value(ch, proj.embedded_s) == -1


def test_count_identity_all_shapes():
    cat = shape_catalog()
    for name, phi in cat.items():
        report = restriction_count_identity(project_parameter(phi))
        assert report.ok, report.message()
        assert sum(report.packet_sizes) == report.dual_size


def test_count_identity_fails_on_an_overlap_or_a_gap(monkeypatch):
    # no overlap can occur: each character takes one sign at s', so it lies
    # in exactly one of the '+' and '-' parts.  A gap can: a value that is
    # neither sign leaves both parts empty
    proj = project_parameter(shape_catalog()["two_two_generic"])
    assert restriction_count_identity(proj).ok
    monkeypatch.setattr(restriction.TwoGroup, "value", lambda *args: 0)
    rep = restriction_count_identity(proj)
    assert not rep.ok and rep.packet_sizes == (0, 0)


def test_degenerate_generators_rejected():
    phi = BoundedParameterDescriptor("identity-only", (ExactMatrix.identity(4),), 0)
    with pytest.raises(ValueError):
        project_parameter(phi)


def test_declared_rank_mismatch_rejected():
    cat = shape_catalog()
    wrong = BoundedParameterDescriptor("irreducible", cat["irreducible"].generators, 1)
    with pytest.raises(ValueError):
        project_parameter(wrong)


def test_gso4_restriction_generic_singleton():
    cat = gso4_shape_catalog()
    group, chars = restrict_gso4(cat["gso4_generic"])
    assert group.group.rank == 0
    assert len(chars) == 1


def test_gso4_restriction_dihedral_full_dual():
    cat = gso4_shape_catalog()
    group, chars = restrict_gso4(cat["gso4_dihedral_pair"])
    assert group.group.rank == 1
    assert len(chars) == 2
    assert chars == frozenset(group.group.characters())


def test_gso4_rejects_unequal_determinants():
    bad = ((ExactMatrix.diagonal([2, 3]), ExactMatrix.diagonal([2, 4])),)
    with pytest.raises(ValueError):
        restrict_gso4(bad)


# piece bases of the commutant split, in order, as the coordinate indices of
# the unit vectors spanning each piece (every recorded basis vector is a unit
# vector)
RECORDED_PIECES = {
    "irreducible": ([[0, 1, 2, 3]], [[0, 1, 2, 3, 4]]),
    "two_two_generic": ([[0, 3], [1, 2]], [[0, 1, 3, 4], [2]]),
    "two_two_dihedral": ([[0, 3], [1, 2]], [[0, 4], [1, 3], [2]]),
    "principal_series": ([[3], [2], [1], [0]], [[4], [3], [2], [1], [0]]),
    "gso4_generic": ([[0, 1, 2, 3]],),
    "gso4_dihedral_pair": ([[0, 3], [1, 2]],),
}


def _unit_pieces(n, pieces):
    return [ExactMatrix([[int(i == k) for k in piece] for i in range(n)]) for piece in pieces]


@pytest.mark.parametrize("shape", sorted(RECORDED_PIECES))
def test_split_pieces_match_recorded_bases(shape):
    if shape.startswith("gso4"):
        pairs = gso4_shape_catalog()[shape]
        sides = [[kron(a, b).scale(ONE / a.det()) for a, b in pairs]]
    else:
        elements = shape_catalog()[shape].generators
        sides = [list(elements), [project_to_so5(g) for g in elements]]
    for gens, recorded in zip(sides, RECORDED_PIECES[shape], strict=True):
        assert _split_pieces(gens) == _unit_pieces(gens[0].rows, recorded)


def test_split_pieces_checks_invariance_of_the_final_pieces():
    # the commutant of the identity is every matrix, and no proper piece is
    # invariant under all of them
    with pytest.raises(ValueError, match="not invariant"):
        component_sign_group([ExactMatrix.identity(4)], THETA_J)


def test_split_pieces_refuses_an_irrational_commutant_spectrum():
    # the rotation's commutant is Q[i]: the rotation itself has no rational eigenvalue
    with pytest.raises(ValueError, match="irrational commutant spectrum"):
        _split_pieces([ExactMatrix([[0, -1], [1, 0]])])


def test_classify_pieces_pairs_two_isotropic_lines():
    # the eigenlines of diag(2, 3) are isotropic for the alternating form and
    # pair with each other
    pieces = _classify_pieces(_split_pieces([ExactMatrix.diagonal([2, 3])]), ExactMatrix([[0, 1], [-1, 0]]))
    assert [(p.basis.cols, p.self_paired) for p in pieces] == [(1, False), (1, False)]
    assert {p.basis for p in pieces} == {ExactMatrix([[1], [0]]), ExactMatrix([[0], [1]])}


def test_classify_pieces_refuses_an_isotropic_line_with_two_partners():
    # e1 is isotropic and pairs with both e2 and e3
    form = ExactMatrix([[0, 1, 1], [-1, 0, 0], [-1, 0, 0]])
    with pytest.raises(ValueError, match="ambiguous isotropic pairing"):
        _classify_pieces(_unit_pieces(3, [[0], [1], [2]]), form)


def test_pattern_of_reads_signs_and_refuses_anything_else():
    down = project_parameter(shape_catalog()["two_two_generic"]).s_group_prime
    assert down.pattern_of(ExactMatrix.identity(5)) == frozenset()
    assert down.pattern_of(down.matrix_for(frozenset({"p0"}))) == frozenset({"p0"})
    with pytest.raises(ValueError, match="does not act by a sign"):
        down.pattern_of(ExactMatrix.identity(5).scale(2))
    # +1 on the first basis vector of p0 and -1 on its second is no sign either
    assert down.pieces[0].basis.cols > 1
    mixed = ExactMatrix.hstack([p.basis for p in down.pieces]) * ExactMatrix.diagonal([1, -1, 1, 1, 1]) * down.basis_inverse
    with pytest.raises(ValueError, match="does not act by a sign"):
        down.pattern_of(mixed)


def _fields(proj):
    """Everything a projection answers, as plain values."""
    return [
        proj.parent,
        *(
            (side.group.basis_labels, side.group.relations, side.group.elements(), side.pieces)
            for side in (proj.s_group, proj.s_group_prime)
        ),
        proj.embedded_s,
    ]


@pytest.mark.parametrize("shape", sorted(shape_catalog()))
def test_memoized_projection_equals_a_fresh_one(shape):
    phi = shape_catalog()[shape]
    cached = project_parameter(phi)
    assert project_parameter(phi) is cached
    assert _fields(cached) == _fields(project_parameter.__wrapped__(phi))


def test_each_shape_is_projected_once_across_runs(tmp_path, capsys, monkeypatch):
    calls = []
    real = restriction.component_sign_group
    monkeypatch.setattr(restriction, "component_sign_group", lambda *a: calls.append(1) or real(*a))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"requests": [{"op": "restriction", "shape": "two_two_dihedral"}]}))
    project_parameter.cache_clear()
    for _ in range(2):
        assert main(["run", str(scenario)]) == 0
    assert capsys.readouterr().out.count("pass restriction count[two_two_dihedral]") == 2
    assert len(calls) == 2  # upstairs and downstairs, on the first run only


def test_shape_catalog_is_read_only():
    cat = shape_catalog()
    assert shape_catalog() is cat
    with pytest.raises(TypeError):
        cat["irreducible"] = cat["principal_series"]


def test_in_group_refuses_a_singular_matrix_the_form_sends_to_zero():
    rank_one = ExactMatrix([[1, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert not _in_group(rank_one, THETA_J)
    assert not _in_group(ExactMatrix.zeros(4, 4), THETA_J)
    assert _in_group(ExactMatrix.diagonal([1, 2, 3, 6]), THETA_J)
