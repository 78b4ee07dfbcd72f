"""The six-rectangle proof of the law of cosines, step by step.

Erect a square on each side of a triangle, on the outside. Extend each
altitude through its square: every square splits into two rectangles, and
the six rectangles match up in pairs of equal (signed) area, named R, S
and T. Chasing one square through those pairs is the entire proof of
    a^2 = b^2 + c^2 - 2ab cos(gamma).
Obtuse triangles need no special treatment: the areas just go negative.
"""

from cuoco import (
    build_decomposition,
    derive_cosine_theorem,
    euclid_defect,
    shoelace,
    similarity_check,
    triangle_from_sides,
)

t = triangle_from_sides(2.0, 3.0, 4.0)  # obtuse at C
d = build_decomposition(t)

# --- The six panels -------------------------------------------------------
print("panels (label: host square, signed area):")
for panel in d.panels:
    print(f"  {panel.label}: square {panel.host}, {panel.signed_area:+.6f}")

# R is negative here because the angle at C is obtuse -- the two R panels
# flip over the side of their squares instead of fitting inside.
print("pair areas: R =", d.pair_areas.R, " S =", d.pair_areas.S, " T =", d.pair_areas.T)

# --- Checking the pairing -------------------------------------------------
# The check catalogue compares the two constructed quadrilaterals of each
# pair by the shoelace formula; it does not reuse the algebra that built
# them. The residual is measured against the largest squared side.
quads = [shoelace(panel.quad) for panel in d.panels]  # R1, R2, S1, S2, T1, T2
for pair, first, second in zip("RST", quads[::2], quads[1::2]):
    print(f"pair {pair}: {pair}1 vs {pair}2, delta = {abs(first - second):.3e}")
worst = max(abs(first - second) for first, second in zip(quads[::2], quads[1::2]))
print("pairs equivalent:", worst <= 1e-9 * d.metrics.area_scale)

# --- Walking the chain ----------------------------------------------------
# a^2 = R1 + T2 = R2 + T1 = (b^2 - S1) + (c^2 - S2) = b^2 + c^2 - 2S.
trace = derive_cosine_theorem(d)
for step in trace.steps:
    print(f"  {step.expression:26s} = {step.value:.12f}")
print("largest deviation along the chain:", f"{trace.max_deviation:.3e}")

# --- Why the pairs match --------------------------------------------------
# At each vertex the two altitude feet cut off similar right triangles,
# which is exactly the equality |VP| * ck = |VQ| * ch the panels inherit.
for vertex in ("A", "B", "C"):
    s = similarity_check(t, at_vertex=vertex)
    print(f"similar triangles at {vertex}: ch = {s.ch:+.6f}, ck = {s.ck:+.6f}, "
          f"residual = {s.residual:.3e}")

# --- The defect form ------------------------------------------------------
# The same quantity 2 * |VP| * |VQ| * cos(V), written with dot products.
# With integer coordinates it is an exact integer and the identity closes
# with residual exactly zero.
from cuoco import Point, Triangle

exact = Triangle(A=Point(1, 2), B=Point(0, 0), C=Point(3, 0))
defect, residual = euclid_defect(exact, at_vertex="B")
print("integer defect at B:", defect, "residual:", residual)
