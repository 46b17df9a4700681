"""Simplicial versus alternating Cech cohomology on a meet-poset.

The comparison maps close tuples under meets (one direction) and forget
the inclusions (the other); an explicit homotopy with factorial
denominators exhibits them as mutually inverse on cohomology.  Everything
here is an exact matrix identity, checked on full bases.
"""

from gscohom import presets
from gscohom.linalg import RatMatrix, submatrix
from gscohom.simplicial import ModPresheaf, PairComplex
from gscohom.cech import (CechComplex, iota_matrix, pi_matrix,
                          homotopy_matrix, compare_simp_cech, tuple_bar)

poset = presets.diamond_poset()
presheaf = presets.diamond_mixed()
f = ModPresheaf.of_algebras(presheaf)

print("== the two complexes on the diamond poset AB <= A, B <= T")
simp = PairComplex(ModPresheaf.constant(poset.category), f)
cech = CechComplex(f, poset, alternating=True)
for p in range(4):
    print("  degree %d: simplicial dim %d, alternating Cech dim %d"
          % (p, simp.dim(p), cech.dim(p)))

print()
print("== closing a tuple under meets")
tau = ("T", "A", "B")
sigma = tuple_bar(poset, tau)
print("  bar%s = chain %s" % (tau, " <= ".join(sigma.objects())))

print()
print("== the round trips")
for p in range(3):
    iota = iota_matrix(cech, simp, p)
    pi = pi_matrix(cech, simp, p)
    keep = simp.reduced_coordinates(p)
    ok1 = submatrix(pi @ iota, keep, keep) == RatMatrix.identity(len(keep))
    lhs = RatMatrix.identity(cech.dim(p)) - iota @ pi
    rhs = homotopy_matrix(cech, p + 1) @ cech.differential(p)
    if p >= 1:
        rhs = rhs + cech.differential(p - 1) @ homotopy_matrix(cech, p)
    print("  degree %d: pi iota = 1 on reduced cochains: %s;"
          " 1 - iota pi = h d + d h: %s" % (p, ok1, lhs == rhs))

print()
print("== Betti numbers agree in every degree")
report = compare_simp_cech(f, poset, 3)
print("  simplicial:", report["simp_betti"])
print("  Cech:      ", report["cech_betti"])
