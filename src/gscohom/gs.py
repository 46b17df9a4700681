"""The Gerstenhaber-Schack double complex of a strict presheaf of algebras.

C^{p,q} assigns to every p-simplex sigma of the nerve a Hochschild q-cochain
of A(c sigma) with values in A(d sigma), the bimodule structure coming from
the composite restriction f^sigma.  The total differential in degree n is

    d = (-1)^{n+1} d_simp + d_Hoch,

with the simplicial differential acting along the rows (coefficients in the
tensor-power presheaf) and the Hochschild differential acting down the
columns.  Flat coordinates are ordered by p ascending, then simplex, then
column-major within each cochain matrix.

Besides total cohomology on the full / normalized / reduced / truncated
subcomplexes, this module provides the bottom-row splitting for commutative
presheaves, the opposite-cochain isomorphism, the Hodge splitting by
Eulerian idempotents, and the lift of top Hodge components through the
restriction maps.
"""

from fractions import Fraction
from functools import partial
from math import factorial

# re-exported: NotASubcomplex, which used to live here, KINDS, and
# linalg_cohomology, under which bench/tracer.py's tests look for
# linalg.cohomology in this module
from .linalg import (KINDS, RatMatrix, NotASubcomplex,  # noqa: F401
                     UsageError, is_closed, memo, submatrix,
                     subcomplex_cohomology, cohomology as linalg_cohomology,
                     VerificationFailed)
from .algebra import AlgebraHom, FinBimodule, InvalidStructure
from .simplicial import ModPresheaf, PairComplex
from .hochschild import (hoch_differential, op_matrix, flatten, unflatten,
                         normalized_coordinates)
from .shuffles import element_action_matrix, scaled_eulerian_idempotent


class NotCommutative(UsageError):
    """A Hodge splitting or a bottom-row splitting was asked of a presheaf
    whose algebras are not all commutative."""


class GSCochain:
    """A total-degree-n cochain: components[(p, q)][simplex key] is the
    cochain matrix Hom(A(c sigma)^{(x) q}, A(d sigma))."""

    def __init__(self, degree, components):
        self.degree = degree
        self.components = components

    def component(self, p, q):
        return self.components.get((p, q), {})

    def __add__(self, other):
        if self.degree != other.degree:
            raise InvalidStructure("cochains of degrees %d and %d cannot be "
                                   "added" % (self.degree, other.degree))
        out = {}
        for key in set(self.components) | set(other.components):
            a = self.components.get(key, {})
            b = other.components.get(key, {})
            blk = {}
            for sk in set(a) | set(b):
                if sk in a and sk in b:
                    blk[sk] = a[sk] + b[sk]
                else:
                    blk[sk] = a.get(sk, b.get(sk))
            out[key] = blk
        return GSCochain(self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        out = {}
        for key, blk in self.components.items():
            out[key] = {sk: m.scale(c) for sk, m in blk.items()}
        return GSCochain(self.degree, out)

    def is_zero(self):
        return all(m.is_zero() for blk in self.components.values()
                   for m in blk.values())

    def __eq__(self, other):
        return self.degree == other.degree and \
            (self - other).is_zero()


class GSComplex:
    def __init__(self, presheaf):
        if not presheaf.is_strict():
            raise InvalidStructure("the GS complex needs a strict presheaf")
        self.presheaf = presheaf
        self.category = presheaf.category
        self.module_presheaf = ModPresheaf.of_algebras(presheaf)

    # -- layout

    @memo()
    def pair(self, q):
        return PairComplex(self.module_presheaf.tensor_power(q),
                           self.module_presheaf)

    @memo()
    def layout(self, n):
        """[(p, q, offset, block-list)] with blocks from the pair complex."""
        comps = []
        offset = 0
        for p in range(n + 1):
            q = n - p
            blocks, size = self.pair(q).layout(p)
            comps.append((p, q, offset, blocks))
            offset += size
        return comps, offset

    def dim(self, n):
        return self.layout(n)[1]

    # -- differentials

    @memo(key=lambda self, sigma: sigma.key())
    def bimodule_along(self, sigma):
        """A(d sigma) as an A(c sigma)-bimodule through f^sigma (cached per
        simplex)."""
        return FinBimodule.along(AlgebraHom(
            self.presheaf.algebras[sigma.codomain],
            self.presheaf.algebras[sigma.domain],
            self.presheaf.restriction_along(sigma), check=False))

    def simp_block(self, p, q):
        """d_simp: C^{p,q} -> C^{p+1,q} (row differential)."""
        return self.pair(q).differential(p)

    @memo()
    def hoch_block(self, p, q):
        """d_Hoch: C^{p,q} -> C^{p,q+1} (column differential), block
        diagonal over the p-simplices."""
        return RatMatrix.block_diag([self._local_hoch(sigma, q)
                                     for sigma in self.category.nerve(p)])

    def _local_hoch_key(self, sigma, q):
        bimod = self.bimodule_along(sigma)
        return sigma.codomain, bimod.dim, bimod.left, bimod.right, q

    @memo(key=_local_hoch_key)
    def _local_hoch(self, sigma, q):
        """hoch_differential of A(c sigma) with values in A(d sigma),
        memoised per complex on the algebra's object, the bimodule's actions
        and q: a composite's bimodule often equals a 1-simplex's, so most
        sharing is across p."""
        return hoch_differential(self.presheaf.algebras[sigma.codomain],
                                 self.bimodule_along(sigma), q)

    @memo()
    def differential(self, n):
        """The total differential C^n -> C^{n+1}: d_Hoch from (p, q) to
        (p, q+1) on the block diagonal, (-1)^{n+1} d_simp from (p, q) to
        (p+1, q) below it."""
        sign = (-1) ** (n + 1)
        grid = [[None] * (n + 1) for _ in range(n + 2)]
        for p in range(n + 1):
            grid[p][p] = self.hoch_block(p, n - p)
            grid[p + 1][p] = self.simp_block(p, n - p).scale(sign)
        return RatMatrix.block(grid)

    # -- cochain packing

    def flatten_cochain(self, theta):
        """The flat coordinates of theta (missing blocks are zero)."""
        vec = []
        for p, q, _, simplices in self.layout(theta.degree)[0]:
            comp = theta.component(p, q)
            for sigma, rows, cols, _ in simplices:
                mat = comp.get(sigma.key())
                vec.extend(flatten(mat if mat is not None
                                   else RatMatrix.zeros(rows, cols)))
        return tuple(vec)

    def unflatten_cochain(self, n, vec):
        comps = {}
        for p, q, off, simplices in self.layout(n)[0]:
            blk = comps[(p, q)] = {}
            for sigma, rows, cols, boff in simplices:
                start = off + boff
                blk[sigma.key()] = unflatten(vec[start:start + rows * cols],
                                             rows, cols)
        return GSCochain(n, comps)

    def d(self, theta):
        vec = self.flatten_cochain(theta)
        return self.unflatten_cochain(theta.degree + 1,
                                      self.differential(theta.degree).apply(vec))

    # -- subcomplexes

    @memo()
    def kept_coordinates(self, kind, n):
        """The flat coordinates of C^n that the subcomplex `kind` keeps,
        built once per (kind, n); the list is shared and never mutated."""
        if kind not in KINDS:
            raise ValueError("unknown subcomplex kind %r; expected one of %s"
                             % (kind, ", ".join(KINDS)))
        normalized = "normalized" in kind
        reduced = "reduced" in kind
        truncated = "truncated" in kind
        keep = []
        for p, q, off, blocks in self.layout(n)[0]:
            if truncated and q == 0:
                continue
            for sigma, rows, cols, boff in blocks:
                if reduced and p >= 1 and sigma.is_degenerate():
                    continue
                if normalized and q >= 1:
                    local = normalized_coordinates(
                        self.presheaf.algebras[sigma.codomain], rows, q)
                else:
                    local = range(rows * cols)
                keep.extend(off + boff + c for c in local)
        return keep

    def check_subcomplex(self, kind, n):
        """The differential must not leak out of the selected coordinates."""
        if not is_closed(self.differential(n), self.kept_coordinates(kind, n),
                         self.kept_coordinates(kind, n + 1)):
            raise NotASubcomplex(
                "kind %s is not closed under d at degree %d" % (kind, n))
        return True

    def cohomology(self, n, kind="full"):
        """(betti, representative GSCochains) of H^n on the given subcomplex."""
        keep = check = None
        if kind != "full":
            keep = partial(self.kept_coordinates, kind)
            check = partial(self.check_subcomplex, kind)
        betti, reps = subcomplex_cohomology(self.differential, n, keep, check)
        return betti, [self.unflatten_cochain(n, v) for v in reps]

    def cohomology_kinds(self, n, kinds):
        """Betti numbers per subcomplex kind; the quasi-isomorphic flavours
        (everything except the truncations) must agree, and that agreement
        is the numeric witness (VerificationFailed otherwise)."""
        out = {kind: self.cohomology(n, kind)[0] for kind in kinds}
        witness = {out[k] for k in kinds if "truncated" not in k}
        if len(witness) > 1:
            raise VerificationFailed(
                "quasi-isomorphism witness failed at degree %d: %s" % (n, out))
        return out

    # -- the opposite-cochain isomorphism

    def op_matrix(self, n):
        """The blockwise opposite map C^n(A) -> C^n(A^op): on each cell
        Hom(A(c sigma)^{(x) q}, A(d sigma)), `hochschild.op_matrix`."""
        return RatMatrix.block_diag([
            op_matrix(q, rows, self.presheaf.algebras[sigma.codomain].dim)
            for _, q, _, simplices in self.layout(n)[0]
            for sigma, rows, _, _ in simplices])

    def op_cochain(self, theta):
        """Transport a cochain to the opposite presheaf (an involution).

        Returns the new GSCochain; to interpret it, build the GS complex of
        presheaf.opposite(), whose layout coincides with this one.
        """
        n = theta.degree
        vec = self.flatten_cochain(theta)
        return self.unflatten_cochain(n, self.op_matrix(n).apply(vec))

    # -- bottom-row splitting (commutative presheaves)

    def require_commutative(self):
        for obj in self.category.objects:
            if not self.presheaf.algebras[obj].is_commutative():
                raise NotCommutative("algebra at %s is not commutative" % obj)

    def bottom_row_coordinates(self, n):
        for p, q, off, blocks in self.layout(n)[0]:
            if q == 0:
                size = sum(rows * cols for _, rows, cols, _ in blocks)
                return list(range(off, off + size))
        return []

    def check_bottom_row_split(self, n):
        """For commutative presheaves the bottom row is a subcomplex, i.e.
        the projection onto it is a chain map (the degree-zero Hochschild
        differential vanishes)."""
        self.require_commutative()
        if not is_closed(self.differential(n), self.bottom_row_coordinates(n),
                         self.bottom_row_coordinates(n + 1)):
            raise NotASubcomplex("bottom row is not a subcomplex")
        return True

    def split_cohomology(self, n):
        """(total, truncated, bottom) Betti numbers at degree n; for a
        commutative presheaf total = truncated + bottom."""
        self.require_commutative()
        self.check_bottom_row_split(n)
        total = self.cohomology(n, "full")[0]
        truncated = self.cohomology(n, "truncated")[0]
        bottom = self.pair(0).cohomology(n)[0]
        return total, truncated, bottom

    # -- Hodge splitting
    #
    # Everything here is integral: the projector of degree n is n! P_r(n)
    # and the idempotent actions are q! e_q(r), so no product runs in
    # Fraction arithmetic.  Each identity is the rational one times a
    # nonzero integer.

    @memo()
    def hodge_projector(self, n, r):
        """n! P_r(n), where the Hodge projector P_r(n) acts on C^n by the
        degree-matching Eulerian idempotent: e_q(r) on each (p, q)
        component (identity for q = 0, r = 0).  Its blocks are the integral
        actions q! e_q(r) scaled by n!/q!, so every entry is an int; built
        once per (n, r)."""
        return self._build_hodge_projector(n, r)

    def _build_hodge_projector(self, n, r):
        order = factorial(n)
        blocks = []
        for p, q, _, simplices in self.layout(n)[0]:
            for sigma, rows, cols, _ in simplices:
                size = rows * cols
                if 1 <= r <= q:
                    d_c = self.presheaf.algebras[sigma.codomain].dim
                    blocks.append(self.idempotent_action(q, r, rows, d_c)
                                  .scale(order // factorial(q)))
                elif q == r == 0:
                    blocks.append(RatMatrix.identity(size).scale(order))
                else:
                    blocks.append(RatMatrix.zeros(size, size))
        return RatMatrix.block_diag(blocks)

    @memo()
    def idempotent_action(self, q, r, m_dim, a_dim):
        """The action of q! e_q(r) on Hom(A^{(x) q}, M) for dim M = m_dim
        and dim A = a_dim (an int matrix), built once per complex: it
        depends on nothing else, and the projectors of neighbouring degrees
        and the lifts of `factor_through_restrictions` ask for the same
        ones."""
        return element_action_matrix(scaled_eulerian_idempotent(q, r),
                                     m_dim, a_dim)

    def hodge_split(self, theta):
        """theta = sum_r theta_r with theta_r in the image of the r-th
        idempotent in every bidegree; the r = 0 part is the bottom row.
        theta_r = (n! P_r) theta / n!, and sum_r (n! P_r) theta = n! theta
        is checked (VerificationFailed otherwise), which is sum_r theta_r =
        theta times n!."""
        self.require_commutative()
        n = theta.degree
        order = factorial(n)
        vec = self.flatten_cochain(theta)
        parts = {}
        total = [0] * self.dim(n)
        for r in range(n + 1):
            pvec = self.hodge_projector(n, r).apply(vec)
            parts[r] = self.unflatten_cochain(
                n, [Fraction(x, order) if x else 0 for x in pvec])
            total = [a + b for a, b in zip(total, pvec)]
        if total != [order * x for x in vec]:
            raise VerificationFailed("Hodge components do not sum back")
        return parts

    def check_hodge_stability(self, n, r):
        """Both differentials preserve the r-component:
        P_r(n+1) d P_r(n) = d P_r(n).  Checked on the integral projectors
        Pi_m = m! P_r(m) as Pi_{n+1} d Pi_n = (n+1)! d Pi_n, which is the
        same identity times the nonzero integer (n+1)! n!."""
        p_n = self.hodge_projector(n, r)
        p_n1 = self.hodge_projector(n + 1, r)
        d_p = self.differential(n) @ p_n
        return p_n1 @ d_p == d_p.scale(factorial(n + 1))

    def hodge_cohomology(self, n, r):
        """Betti number of the r-Hodge summand at degree n (commutative
        presheaves).  The summand in degree m is spanned by the pivot
        columns of m! P_r(m), which span the image of P_r(m)."""
        self.require_commutative()

        def basis(m):
            proj = self.hodge_projector(m, r)
            return submatrix(proj, range(proj.rows), proj.pivot_columns())
        return subcomplex_cohomology(self.differential, n, basis)[0]


def factor_through_restrictions(gs, p, r, component):
    """Lift a top Hodge component through the tensor powers of the
    restriction maps.

    `component` maps p-simplex keys to cochain matrices at bidegree (p, r)
    satisfying theta e_r(r) = theta, checked as theta (r! e_r(r)) =
    r! theta (VerificationFailed otherwise).  For each simplex the exact
    linear system  Theta o (f^sigma)^{(x) r} = theta  is solved; the result
    maps simplex keys to dicts with the lifted matrix (a multilinear cochain
    on A(d sigma)) and a uniqueness flag, or records the simplices where no
    factorization exists.
    """
    order = factorial(r)
    out = {"lifts": {}, "failures": []}
    for sigma in gs.category.nerve(p):
        theta = component.get(sigma.key())
        if theta is None or theta.is_zero():
            continue
        a_d = gs.presheaf.algebras[sigma.domain]
        a_c = gs.presheaf.algebras[sigma.codomain]
        action = gs.idempotent_action(r, r, a_d.dim, a_c.dim)
        flat = flatten(theta)
        if action.apply(flat) != tuple(order * x for x in flat):
            raise VerificationFailed("component at %s is not fixed by the top "
                                     "idempotent" % sigma.label())
        f_sigma = gs.presheaf.restriction_along(sigma)
        big = f_sigma.kron_power(r)          # A(c)^{(x) r} -> A(d)^{(x) r}
        big_t = big.transpose()
        lift_t = big_t.solve_many(theta.transpose())
        if lift_t is None:
            out["failures"].append(sigma.label())
            continue
        unique = big_t.kernel().dim == 0
        out["lifts"][sigma.key()] = {"matrix": lift_t.transpose(),
                                     "unique": unique}
    return out


def cochain_from_parts(gs, n, parts):
    """Assemble a GSCochain from {(p, q): {simplex key: matrix}} filling
    missing blocks with zero."""
    comps = {}
    for p, q, off, blocks in gs.layout(n)[0]:
        blk = {}
        for sigma, rows, cols, boff in blocks:
            given = parts.get((p, q), {}).get(sigma.key())
            blk[sigma.key()] = given if given is not None \
                else RatMatrix.zeros(rows, cols)
        comps[(p, q)] = blk
    return GSCochain(n, comps)
