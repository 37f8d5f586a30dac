"""Point-plane incidences in F_p^3 and the collinearity budget.

The energy arguments route through incidence counts: each quadratic
energy E = sum_t H(t)^2 equals the number of incidences between a point
set and a plane set built from the same data.  The incidence bound
I(R, S) <= |R||S|/p + c * sqrt(|R||S| max(|R|,|S|)) + rich-line terms
needs an a-priori cap on how many points sit on one line, so the walk
ends on a worked counterexample to the tempting cap max(|A|,|C|,|X|):
two points of A with equal g-value but different h-values stack two
shifted copies of C onto a single vertical line, up to mu_A * |C|
points.  The corrected cap max(|A|, mu_A * |C|, |X|) holds.

Run:  python3 demos/incidence_walk.py
"""

import numpy as np

from fpsp.field import make_field
from fpsp.functions import f_image, make_fn, mu, mu_product
from fpsp.incidence import (build_proof_config, incidences, make_config,
                            max_collinear, proof_kernel, rudnev_ratio)
from fpsp.sets import generate

field = make_field(101)
p = field.p

# Sanity: every plane through all of F_p^3... does not exist, but the
# full point set against any plane family gives exactly p^2 incidences
# per plane (each plane holds p^2 points).
pts = np.array([[x, y, z] for x in range(5) for y in range(5)
                for z in range(5)], dtype=np.int64)
f5 = make_field(5)
planes = np.array([[1, 0, 0, 0], [1, 2, 3, 4], [0, 0, 1, 3]],
                  dtype=np.int64)
cfg = make_config(f5, pts, planes)
print("all of F_5^3 against 3 planes: I = %d (expect 3 * 25 = 75)"
      % incidences(cfg))

# The proof configurations: the quadratic energies E over A x X x third
# are counted by incidences of a point set against a plane set built
# from the same data.  Coincident planes are merged with their weights
# dropped, so the dedup'd count I sits below E whenever two pairs
# (a, c) hit the same plane; the fiber multiplicity mu bounds the loss,
# E <= mu^2 * I, and E == I exactly when no pair collides.  One kernel
# record per variant answers both without building R or S.
a = generate(field, "random", size=8, seed=1, zero_free=True)
bset = generate(field, "random", size=12, seed=2, zero_free=True)
g = make_fn(field, "power", k=2)
h = make_fn(field, "random", seed=3)
img = f_image(g, h, a, bset)
x = generate(field, "interval", start=1, size=10)

for variant, third, m in (("sum_E1", bset, mu(g)), ("sum_E2", img, mu(g)),
                          ("prod_E1", bset, mu_product(g, h)),
                          ("prod_E2", img, mu_product(g, h))):
    kern = proof_kernel(variant, a, x, third, g, h)
    e, fast = kern.energy_and_incidences()
    cfg = build_proof_config(variant, a, x, third, g, h)
    slow = incidences(cfg)
    assert fast == slow
    assert e <= m * m * fast
    print("%-8s  %4d points  %4d planes  I = %6d  E = %6d  %s"
          % (variant, len(cfg.points), len(cfg.planes), fast, e,
             "(E == I)" if e == fast else "(E <= %d^2 I)" % m))

# Ratio against the incidence bound on a generic configuration; the
# kernel record gives the same row without building R or S.
rep = rudnev_ratio(build_proof_config("sum_E1", a, x, bset, g, h))
assert rep == rudnev_ratio(proof_kernel("sum_E1", a, x, bset, g, h))
print("bound report: I = %d vs bound %.1f, ratio %.3f, max collinear %d"
      % (rep["incidences"], rep["bound"], rep["ratio"],
         rep["max_collinear"]))

# The counterexample.  Pick two points a1 != a2 with g(a1) = g(a2) but
# h(a1) != h(a2); with X a single column the two copies of C land on the
# same vertical line, shifted against each other.
a2 = generate(field, "explicit", elements=[3, 98])   # 98 = -3, so 3^2 = 98^2
assert g.values[3] == g.values[98] and h.values[3] != h.values[98]
cset = generate(field, "interval", start=1, size=10)
xone = generate(field, "explicit", elements=[1])
cfg = build_proof_config("sum_E1", a2, xone, cset, g, h)
k = max_collinear(cfg.points, field)
# the kernel record reads the same count off PAIRS, without building R
assert k == proof_kernel("sum_E1", a2, xone, cset, g, h).max_collinear()
naive_cap = max(a2.size, cset.size, xone.size)
fixed_cap = max(a2.size, 2 * cset.size, xone.size)   # mu_A = 2 here
print("\ncollinearity counterexample at p=%d:" % p)
print("  max points on one line: %d" % k)
print("  naive cap max(|A|,|C|,|X|)  = %d  -> violated" % naive_cap)
print("  cap with the fiber multiplicity mu_A = 2: %d -> holds" % fixed_cap)
assert k > naive_cap and k <= fixed_cap

# With an injective g (or h constant) the naive cap is fine; the defect
# needs the fiber collision and a separating h.
hconst = make_fn(field, "const", c=1)
cfg2 = build_proof_config("sum_E1", a2, xone, cset, g, hconst)
k2 = max_collinear(cfg2.points, field)
print("  same A and g but constant h: max collinear drops to %d" % k2)
assert k2 <= naive_cap
