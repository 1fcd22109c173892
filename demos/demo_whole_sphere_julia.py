"""Walkthrough: R(z) = (z-2)^2 / z^2, whose Julia set is the whole sphere.

There are no stable regions at all, yet the algebra is far from simple:
the three points 0, 1, infinity form two finite restricted orbits, and the
orbit {0} carries asymptotic valency 2 through the critical point at 0.
"""

from ratmap.dynamics import Orbit
from ratmap.report import parse_map, run_analysis
from ratmap.sphere import SpherePoint

r = parse_map({"numerator": ["1", "-4", "4"], "denominator": ["1", "0", "0"]})

# the orbit of the critical point 0 lands on the repelling fixed point 1
walk = Orbit(r, SpherePoint.finite(0))
print("orbit of 0:", " -> ".join(str(walk.point(n)) for n in range(4)))
print("val(R, 0) =", r.valency_at(SpherePoint.finite(0)), "(double pole)")
print("val(R^2, 0) =", walk.valency(2))

report = run_analysis(r)
data = report.data
print()
print("Fatou regions found:", data["atlas"]["regions"])
print("Julia set is the whole sphere:", data["atlas"]["julia_is_sphere"])
print("exposed points:", data["exposed"]["union"])
for o in data["exposed"]["orbits"]:
    print(f"   {{{', '.join(o['points'])}}}: type {o['type']},"
          f" asymptotic valency {o['asymptotic_valency']}")
print()
print("Julia quotient:", data["algebra"]["julia"]["quotient_normal_text"])
print()
print("primitive ideals:")
for e in data["primitive_ideals"]["entries"]:
    print("  ", e["label"])
print("verdict:", data["primitive_ideals"]["t0_verdict"])
print("simple quotients:", data["primitive_ideals"]["simple_quotients"])
