"""Property test: the twisted fixed-point test of the endoscopy generators,
`theta_s_fixed`, agrees with applying Ad(s) after the dual twist and
comparing, on words in the generators, which are fixed, and on perturbed
ones that are not.

Examples are derandomized, so every run checks the same words.
"""

from functools import reduce
from operator import mul

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gspin.dualgroups import THETA_J, DualElement  # noqa: E402
from gspin.endoscopy import S_GSO4, S_H1, S_RANK1, full_catalog, theta_s_fixed  # noqa: E402
from gspin.exactlin import ExactMatrix  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
S_ELEMENTS = (ExactMatrix.identity(4), S_GSO4, S_RANK1, S_H1, ExactMatrix.diagonal([2, 1, -1, 3]))
SHEAR = ExactMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def _fixed_by_the_twist(s: ExactMatrix, e: DualElement) -> bool:
    """Is g fixed by Ad(s) after the dual-side twist g -> x J tg^-1 J^-1?"""
    dual = (THETA_J * e.g.inverse().transpose() * THETA_J.inverse()).scale(e.x)
    return s * dual * s.inverse() == e.g


@st.composite
def twisted_samples(draw):
    """A word of one to four generators of one twisted datum's group, with
    its datum's s; then possibly sheared, its GL1 coordinate doubled, or
    paired with another s."""
    data = [d for d in full_catalog() if d.twisted]
    d = draw(st.sampled_from(data))
    word = draw(st.lists(st.sampled_from(d.generators), min_size=1, max_size=4))
    e = DualElement(reduce(mul, (f.g for f in word)), reduce(mul, (f.x for f in word)))
    move = draw(st.sampled_from(["none", "shear", "double", "other s"]))
    s = d.s
    if move == "shear":
        e = DualElement(e.g * SHEAR, e.x)
    elif move == "double":
        e = DualElement(e.g, 2 * e.x)
    elif move == "other s":
        s = draw(st.sampled_from(S_ELEMENTS))
    return s, e, move


@settings(PROPERTY)
@given(twisted_samples())
def test_theta_s_fixed_agrees_with_the_twist(sample):
    s, e, move = sample
    fixed = theta_s_fixed(s, e)
    assert fixed == _fixed_by_the_twist(s, e)
    if move == "none":
        assert fixed
    if move in ("shear", "double"):
        assert not fixed


def test_theta_s_fixed_agrees_with_the_twist_on_every_datum_and_s():
    seen = set()
    for d in full_catalog():
        for e in d.generators:
            for s in S_ELEMENTS:
                for f in (e, DualElement(e.g * SHEAR, e.x), DualElement(e.g, 2 * e.x)):
                    fixed = theta_s_fixed(s, f)
                    assert fixed == _fixed_by_the_twist(s, f)
                    seen.add(fixed)
    assert seen == {True, False}
