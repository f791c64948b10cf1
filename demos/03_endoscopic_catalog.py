#!/usr/bin/env python3
"""The elliptic endoscopic catalog, verified by exact linear algebra.

Each datum is a semisimple sign element s with a printed Frobenius image for
the non-split members.  The dimension of the (twisted) centralizer Lie
algebra is recomputed from scratch and compared with the dimension of the
endoscopic dual group, and a fixed generating set of that group is checked to
centralize s (the "samples" verdict); the two restriction squares are checked
to commute on seeded exact samples.
"""

from gspin.endoscopy import full_catalog, restriction_diagrams_commute, verify_centralizer
from gspin.exactlin import ExactMatrix

for ambient, title in (
    ("twisted_gl4", "twisted GL4 x GL1 space"),
    ("gspin5", "GSpin5"),
    ("gspin4", "GSpin4"),
):
    print(f"== elliptic endoscopic data of the {title} ==")
    for d in (d for d in full_catalog() if d.base == ambient):
        report = verify_centralizer(d)
        iota = f", stabilisation constant {d.stabilisation_constant}" if d.stabilisation_constant else ""
        print(f"  {d.name}: H = {d.h_description}, s = diag{tuple(int(d.s[i, i]) for i in range(4))}")
        print(f"    {report.message()}{iota}")
        if d.frobenius_image is not None:
            sq = d.frobenius_image * d.frobenius_image == ExactMatrix.identity(4)
            print(f"    frobenius image is an involution: {sq}")
    print()

print("== restriction squares ==")
print(restriction_diagrams_commute(seed=0).message())
