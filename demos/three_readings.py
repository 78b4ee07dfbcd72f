"""One linear system, three triangle readings.

The system
    x + y = L,   x + z = M,   y + z = N
has the closed-form solution x = (L+M-N)/2 and friends. Feeding it three
different triangle quantities makes the same little system say three
different geometric things:

  squares: L,M,N = a^2,b^2,c^2  ->  x,y,z are the pair areas R, T, S
  sides:   L,M,N = a,b,c        ->  x,y,z are the incircle tangent lengths
  angles:  L,M,N = alpha,beta,gamma -> x,y,z are the circumcenter splits

In the first and third readings, all components are positive exactly when
the triangle is acute.
"""

from cuoco import (
    ThreeSum,
    all_positive,
    circumcircle,
    incircle,
    interpret_angles,
    interpret_sides,
    interpret_squares,
    solve,
    triangle_from_sides,
)

# --- The bare system ------------------------------------------------------
system = ThreeSum(4.0, 9.0, 16.0)
sol = solve(system)
print("L,M,N = 4, 9, 16  ->  x,y,z =", sol.as_tuple())
print("all positive?", all_positive(system))

# --- Readings on an obtuse triangle ----------------------------------------
t = triangle_from_sides(2.0, 3.0, 4.0)

# Each reading takes the construction it reads: the triangle itself, its
# incircle, its circumcircle.
for report in (interpret_squares(t), interpret_sides(incircle(t)),
               interpret_angles(circumcircle(t))):
    print(f"\n{report.kind} reading:")
    print("  sums L,M,N   =", tuple(round(v, 6) for v in (report.system.L, report.system.M, report.system.N)))
    print("  solution     =", tuple(round(v, 6) for v in report.solution.as_tuple()))
    for component in ("x", "y", "z"):
        print(f"  {component} means {report.mapping[component]}; measured {report.geometric[component]:+.6f}")
    print("  all positive =", report.all_positive)
    if report.acute_iff_positive is not None:
        print("  positivity matched acuteness:", report.acute_iff_positive)

# The squared-side reading recovers the pair areas with x = R negative
# (obtuse), the side reading recovers the tangent lengths (always
# positive), and the angle reading produces one negative split because
# the circumcenter has crossed side c.
