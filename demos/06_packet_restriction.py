#!/usr/bin/env python3
"""Restriction of packets along the projection to the five-variable group.

A bounded parameter upstairs has a component group of rank at most one; its
packet members restrict downstairs to the characters with the matching sign
at the image of the nontrivial component.  Summing over the packet always
partitions the downstairs dual.  On the pair-group side the single member
restricts to the full packet, without duplicates.
"""

from gspin.restriction import (
    gso4_shape_catalog,
    project_parameter,
    restrict_gso4,
    restriction_count_identity,
    shape_catalog,
)

print("== shapes upstairs ==")
for name, phi in shape_catalog().items():
    proj = project_parameter(phi)
    rep = restriction_count_identity(proj)
    print(
        f"{name:>18}: component ranks {proj.s_group.group.rank} -> {proj.s_group_prime.group.rank};"
        f" {rep.message()}"
    )
    for label, chars in rep.constituents:
        label = "pi" if label == "packet" else label
        reps = sorted(sorted(ch) for ch in chars)
        print(f"    member {label:>2} restricts to {len(chars)} constituents {reps}")

print()
print("== pair-group side ==")
for name, phi in gso4_shape_catalog().items():
    group, chars = restrict_gso4(phi)
    print(f"{name:>18}: component rank {group.group.rank}, restriction has {len(chars)} constituents (a set)")
