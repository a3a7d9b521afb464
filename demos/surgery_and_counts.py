"""Truncation surgery on small polytopes, and what it does to face counts.

Cutting a face of codimension k replaces each vertex over the face by k new
vertices and adds a single facet; everything is verified against the Euler
relation and the simplicity degree count. The finale is the 5-dimensional
product trick: polytope x segment keeps the characteristic map non-singular
and adds exactly one color.
"""

from polychrome import (
    chromatic_number,
    dual_cyclic,
    f_vector,
    product,
    product_with_segment,
    reproduce,
    segment,
    truncate_face,
    validate,
)
from polychrome.polytope import euler_sum


def show(name, P):
    fv = f_vector(P)
    print(f"{name:<28} f = {fv}, euler sum = {euler_sum(fv)}, diagnostics = {validate(P)}")


simplex = dual_cyclic(4, 5)
show("4-simplex", simplex)

for face, what in (((0, 1, 2, 3), "vertex"), ((0, 1, 2), "edge"), ((0, 1), "triangle 2-face")):
    Q, _ = truncate_face(simplex, face)
    show(f"  cut {what} {face}", Q)
    print(f"{'':<30}new facet: {Q.facet_labels[-1]}")

prism = product(dual_cyclic(2, 5), segment())
show("pentagon x segment", prism)
print(f"{'':<30}chi = {chromatic_number(prism).chi}")

print("\nbuilding the resolved 15-color 4-polytope ...")
main = reproduce("main")
show("resolved 4-polytope", main.polytope)
P5, L5, cert = product_with_segment(main)
show("  x segment", P5)
print(f"{'':<30}facets: {P5.num_facets}, chi = {cert.chi} ({cert.status})")
