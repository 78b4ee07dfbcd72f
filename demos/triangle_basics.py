"""A tour of the core triangle toolkit.

Build triangles from side lengths or raw points, read off their measured
data, classify them, and drop altitudes. Everything here is plain floats
(or exact integers when you pass integers in).
"""

from cuoco import (
    Point,
    Triangle,
    distance,
    dot,
    foot_of_altitude,
    triangle_from_sides,
)

# --- Construction ---------------------------------------------------------
# From side lengths: side a sits on the x-axis from B=(0,0) to C=(a,0) and
# A lands in the upper half plane. The same three lengths always produce
# the same placement, which keeps downstream output reproducible.
t = triangle_from_sides(2.0, 3.0, 4.0)
print("2-3-4 triangle:")
print("  A =", t.A)
print("  B =", t.B)
print("  C =", t.C)

# From points: any counterclockwise or clockwise triple works; a clockwise
# triple is relabeled (B and C swap) so the orientation is always
# counterclockwise and signed quantities keep a consistent meaning.
cw = Triangle(A=Point(0, 0), B=Point(0, 2), C=Point(3, 0))
print("clockwise input is relabeled, twice_area =", cw.twice_area)

# --- Measured data --------------------------------------------------------
m = t.metrics
print("sides      a, b, c =", (m.a, m.b, m.c))
print("angles (radians)   =", (round(m.alpha, 6), round(m.beta, 6), round(m.gamma, 6)))
print("area               =", m.area)
print("semiperimeter      =", m.s)

# --- Classification -------------------------------------------------------
# The smallest side cosine may sit up to RIGHT_ANGLE_BAND (1e-9) from zero
# and still count as a right angle. Each triangle is classified once, with
# its metrics.
for sides in ((2.0, 3.0, 4.0), (3.0, 4.0, 5.0), (6.0, 7.0, 8.0)):
    result = triangle_from_sides(*sides).metrics.classification
    where = f" at {result.vertex}" if result.vertex else ""
    print(f"{sides}: {result.kind}{where}")

# --- Altitude feet and signed projections ---------------------------------
# The foot of the altitude from C lands on line AB at parameter `param`
# (0 at A, 1 at B). For an obtuse triangle the foot can leave the segment:
# the parameter then falls outside [0, 1].
foot, param = foot_of_altitude(t, from_vertex="A")
print("foot of altitude from A:", foot, "at parameter", round(param, 6))

# The signed projection of CA onto CB, dot(CA, CB) / |CB|, is
# |CA| * cos(angle at C): positive for an acute vertex, negative for an
# obtuse one. Here the angle at C is obtuse.
value = dot(t.A - t.C, t.B - t.C) / distance(t.B, t.C)
print("projection of CA onto CB:", value)
