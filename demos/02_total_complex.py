"""The total complex of a presheaf of algebras on a finite poset.

Assembles the double complex of the standard fixture (dual numbers on the
wings of U01 <= U0, U1, rationals on the overlap), checks the structural
identities, and prints the cohomology table on several subcomplexes.
"""

from gscohom import presets
from gscohom.gs import GSComplex, KINDS

p = presets.v_poset_commutative()
gs = GSComplex(p)

print("== bidegree layout in total degree 2")
for deg_p in range(3):
    cells = [c for c in gs.cells(2) if c.p == deg_p]
    dims = sum(c.rows * c.cols for c in cells)
    print("  component (p, q) = (%d, %d): dimension %d over %d simplices"
          % (deg_p, 2 - deg_p, dims, len(cells)))

print()
print("== the differential squares to zero (exact matrix identity)")
for n in range(3):
    print("  d_%d . d_%d = 0:" % (n + 1, n),
          (gs.differential(n + 1) @ gs.differential(n)).is_zero())

print()
print("== row and column differentials commute")
print("  at (p, q) = (0, 1):",
      gs.hoch_block(1, 1) @ gs.simp_block(0, 1) ==
      gs.simp_block(0, 2) @ gs.hoch_block(0, 1))

print()
print("== cohomology on all subcomplex flavours")
for kind in KINDS:
    dims = [gs.cohomology(n, kind)[0] for n in range(4)]
    print("  %-28s %s" % (kind + ":", dims))

print()
print("== bottom-row splitting (commutative algebras)")
for n in range(3):
    total, truncated, bottom = gs.split_cohomology(n)
    print("  degree %d: total %d = truncated %d + simplicial %d"
          % (n, total, truncated, bottom))
