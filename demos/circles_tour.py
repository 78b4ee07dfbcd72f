"""Incircle tangent lengths and circumcenter angle splits.

Both circles attached to a triangle produce the same three-sum structure:

* The incircle touches each side once; the two tangent segments from a
  vertex have equal length, and those lengths are s-a, s-b, s-c.
* Joining the circumcenter to the vertices splits each angle into two
  pieces of the form pi/2 - (opposite angle); a piece goes negative
  exactly when the circumcenter falls outside across that side.
"""

import math

from cuoco import circumcircle, incircle, triangle_from_sides

# --- Incircle on the 3-4-5 triangle ---------------------------------------
t = triangle_from_sides(3.0, 4.0, 5.0)
inc = incircle(t)
print("3-4-5 incircle: center =", inc.center, " radius =", inc.radius)
for side, point in sorted(inc.tangent_points.items()):
    print(f"  touches side {side} at ({point.x:.6f}, {point.y:.6f})")
for vertex in ("A", "B", "C"):
    print(f"  tangent length from {vertex}: {inc.tangent_lengths[vertex]:.6f}")

m = t.metrics
print("  closed form (s-a, s-b, s-c):", (m.s - m.a, m.s - m.b, m.s - m.c))

# --- Circumcircle ----------------------------------------------------------
circ = circumcircle(t)
print("\n3-4-5 circumcircle: center =", circ.center, " radius =", circ.radius)
# For a right triangle the center is the hypotenuse midpoint and the
# radius is half the hypotenuse.

# --- Angle splits ----------------------------------------------------------
# splits[v][w] is the piece of the angle at v on the side toward w. Each
# piece equals pi/2 minus the angle opposite that side, so the pieces at
# both ends of one side agree.
print("\nangle splits of the obtuse 2-3-4 triangle:")
obtuse = triangle_from_sides(2.0, 3.0, 4.0)
splits = circumcircle(obtuse).splits
om = obtuse.metrics
angle_at = {"A": om.alpha, "B": om.beta, "C": om.gamma}
for v in ("A", "B", "C"):
    parts = {w: round(value, 6) for w, value in sorted(splits[v].items())}
    total = sum(splits[v].values())
    print(f"  at {v}: {parts}  (sum {total:.6f}, angle {angle_at[v]:.6f})")

gamma = om.gamma
print("negative split toward the longest side:", round(math.pi / 2 - gamma, 6))
# That negative piece is the angle reading of the three-sum system going
# negative for an obtuse triangle.
