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

# re-exported: NotASubcomplex, which used to live here, and
# linalg_cohomology, under which bench/tracer.py's tests look for
# linalg.cohomology in this module
from .linalg import (RatMatrix, NotASubcomplex, is_closed,  # noqa: F401
                     subcomplex_cohomology, cohomology as linalg_cohomology)
from .algebra import AlgebraHom, FinBimodule
from .simplicial import ModPresheaf, PairComplex
from .hochschild import (hoch_differential, words, word_index, op_sign,
                         flatten, normalized_coordinates)
from .shuffles import (eulerian_idempotent, element_action_matrix,
                       VerificationFailed)


class NotCommutative(Exception):
    pass


KINDS = ("full", "normalized", "normalized_reduced", "truncated",
         "truncated_normalized_reduced")


class GSCochain:
    """A total-degree-n cochain: components[(p, q)][simplex key] is the
    cochain matrix Hom(A(c sigma)^{(x) q}, A(d sigma))."""

    def __init__(self, degree, components):
        self.degree = degree
        self.components = components

    def component(self, p, q):
        return self.components.get((p, q), {})

    def __add__(self, other):
        assert self.degree == other.degree
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
        assert presheaf.is_strict(), "the GS complex needs a strict presheaf"
        self.presheaf = presheaf
        self.category = presheaf.category
        self.module_presheaf = ModPresheaf.of_algebras(presheaf)
        self._pairs = {}
        self._hoch = {}
        self._bimods = {}
        self._d = {}
        self._layouts = {}

    # -- layout

    def pair(self, q):
        if q not in self._pairs:
            self._pairs[q] = PairComplex(self.module_presheaf.tensor_power(q),
                                         self.module_presheaf)
        return self._pairs[q]

    def layout(self, n):
        """[(p, q, offset, block-list)] with blocks from the pair complex."""
        if n in self._layouts:
            return self._layouts[n]
        comps = []
        offset = 0
        for p in range(n + 1):
            q = n - p
            blocks, size = self.pair(q).layout(p)
            comps.append((p, q, offset, blocks))
            offset += size
        self._layouts[n] = (comps, offset)
        return self._layouts[n]

    def dim(self, n):
        return self.layout(n)[1]

    # -- differentials

    def bimodule_along(self, sigma):
        """A(d sigma) as an A(c sigma)-bimodule through f^sigma (cached per
        simplex)."""
        key = sigma.key()
        if key not in self._bimods:
            hom = AlgebraHom(self.presheaf.algebras[sigma.codomain],
                             self.presheaf.algebras[sigma.domain],
                             self.presheaf.restriction_along(sigma),
                             check=False)
            self._bimods[key] = FinBimodule.along(hom)
        return self._bimods[key]

    def simp_block(self, p, q):
        """d_simp: C^{p,q} -> C^{p+1,q} (row differential)."""
        return self.pair(q).differential(p)

    def hoch_block(self, p, q):
        """d_Hoch: C^{p,q} -> C^{p,q+1} (column differential), block
        diagonal over the p-simplices."""
        if (p, q) in self._hoch:
            return self._hoch[(p, q)]
        blocks_in, dim_in = self.pair(q).layout(p)
        blocks_out, dim_out = self.pair(q + 1).layout(p)
        entries = {}
        for (sigma, rows, cols, off_in), (sigma2, rows2, cols2, off_out) in \
                zip(blocks_in, blocks_out):
            assert sigma.key() == sigma2.key()
            alg = self.presheaf.algebras[sigma.codomain]
            local = hoch_differential(alg, self.bimodule_along(sigma), q)
            for (i, j), v in local.items():
                entries[(off_out + i, off_in + j)] = v
        mat = RatMatrix(dim_out, dim_in, entries)
        self._hoch[(p, q)] = mat
        return mat

    def differential(self, n):
        """The total differential C^n -> C^{n+1}."""
        if n in self._d:
            return self._d[n]
        comps_in, dim_in = self.layout(n)
        comps_out, dim_out = self.layout(n + 1)
        out_off = {p: off for p, q, off, _ in comps_out}
        sign = Fraction(1) if (n + 1) % 2 == 0 else Fraction(-1)
        entries = {}
        for p, q, off_in, _ in comps_in:
            simp = self.simp_block(p, q)
            for (i, j), v in simp.items():
                key = (out_off[p + 1] + i, off_in + j)
                entries[key] = entries.get(key, Fraction(0)) + sign * v
            hoch = self.hoch_block(p, q)
            for (i, j), v in hoch.items():
                key = (out_off[p] + i, off_in + j)
                entries[key] = entries.get(key, Fraction(0)) + v
        mat = RatMatrix(dim_out, dim_in, entries)
        self._d[n] = mat
        return mat

    # -- cochain packing

    def flatten_cochain(self, theta):
        n = theta.degree
        vec = [Fraction(0)] * self.dim(n)
        for p, q, off, blocks in self.layout(n)[0]:
            comp = theta.component(p, q)
            for sigma, rows, cols, boff in blocks:
                mat = comp.get(sigma.key())
                if mat is None:
                    continue
                for (i, j), v in mat.items():
                    vec[off + boff + j * rows + i] = v
        return tuple(vec)

    def unflatten_cochain(self, n, vec):
        comps = {}
        for p, q, off, blocks in self.layout(n)[0]:
            blk = {}
            for sigma, rows, cols, boff in blocks:
                entries = {}
                for j in range(cols):
                    for i in range(rows):
                        v = vec[off + boff + j * rows + i]
                        if v:
                            entries[(i, j)] = v
                blk[sigma.key()] = RatMatrix(rows, cols, entries)
            comps[(p, q)] = blk
        return GSCochain(n, comps)

    def d(self, theta):
        vec = self.flatten_cochain(theta)
        return self.unflatten_cochain(theta.degree + 1,
                                      self.differential(theta.degree).apply(vec))

    # -- subcomplexes

    def kept_coordinates(self, kind, n):
        assert kind in KINDS, kind
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
        """The blockwise opposite map C^n(A) -> C^n(A^op): reverse the
        tensor arguments and multiply by the degree sign."""
        entries = {}
        for p, q, off, blocks in self.layout(n)[0]:
            sign = op_sign(q)
            for sigma, rows, cols, boff in blocks:
                d_c = self.presheaf.algebras[sigma.codomain].dim
                for w in words(d_c, q):
                    src = word_index(w, d_c)
                    dst = word_index(tuple(reversed(w)), d_c)
                    for k in range(rows):
                        entries[(off + boff + dst * rows + k,
                                 off + boff + src * rows + k)] = sign
        size = self.dim(n)
        return RatMatrix(size, size, entries)

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
        simp = PairComplex(ModPresheaf.constant(self.category),
                           self.module_presheaf)
        bottom = simp.cohomology(n)[0]
        return total, truncated, bottom

    # -- Hodge splitting

    def hodge_projector(self, n, r):
        """The action of the degree-matching Eulerian idempotents on C^n:
        e_q(r) on each (p, q) component (identity for q = 0, r = 0)."""
        entries = {}
        for p, q, off, blocks in self.layout(n)[0]:
            if q == 0:
                if r == 0:
                    for sigma, rows, cols, boff in blocks:
                        for t in range(rows * cols):
                            entries[(off + boff + t, off + boff + t)] = Fraction(1)
                continue
            if r < 1 or r > q:
                continue
            elt = eulerian_idempotent(q, r)
            for sigma, rows, cols, boff in blocks:
                d_c = self.presheaf.algebras[sigma.codomain].dim
                local = element_action_matrix(elt, rows, d_c)
                for (i, j), v in local.items():
                    entries[(off + boff + i, off + boff + j)] = v
        size = self.dim(n)
        return RatMatrix(size, size, entries)

    def hodge_split(self, theta):
        """theta = sum_r theta_r with theta_r in the image of the r-th
        idempotent in every bidegree; the r = 0 part is the bottom row."""
        self.require_commutative()
        n = theta.degree
        vec = self.flatten_cochain(theta)
        parts = {}
        total = [Fraction(0)] * self.dim(n)
        for r in range(n + 1):
            pvec = self.hodge_projector(n, r).apply(vec)
            parts[r] = self.unflatten_cochain(n, pvec)
            total = [a + b for a, b in zip(total, pvec)]
        assert tuple(total) == tuple(vec), "Hodge components do not sum back"
        return parts

    def check_hodge_stability(self, n, r):
        """Both differentials preserve the r-component:
        P_r(n+1) d P_r(n) = d P_r(n)."""
        p_n = self.hodge_projector(n, r)
        p_n1 = self.hodge_projector(n + 1, r)
        d = self.differential(n)
        return (p_n1 @ (d @ p_n)) == (d @ p_n)

    def hodge_cohomology(self, n, r):
        """Betti number of the r-Hodge summand at degree n (commutative
        presheaves)."""
        self.require_commutative()

        def basis(m):
            proj = self.hodge_projector(m, r)
            cols = [proj.column(c) for c in proj.pivot_columns()]
            return RatMatrix.from_cols(cols, ambient=self.dim(m))
        return subcomplex_cohomology(self.differential, n, basis)[0]


def factor_through_restrictions(gs, p, r, component):
    """Lift a top Hodge component through the tensor powers of the
    restriction maps.

    `component` maps p-simplex keys to cochain matrices at bidegree (p, r)
    satisfying theta e_r(r) = theta.  For each simplex the exact linear
    system  Theta o (f^sigma)^{(x) r} = theta  is solved; the result maps
    simplex keys to dicts with the lifted matrix (a multilinear cochain on
    A(d sigma)) and a uniqueness flag, or records the simplices where no
    factorization exists.
    """
    out = {"lifts": {}, "failures": []}
    for sigma in gs.category.nerve(p):
        theta = component.get(sigma.key())
        if theta is None or theta.is_zero():
            continue
        a_d = gs.presheaf.algebras[sigma.domain]
        a_c = gs.presheaf.algebras[sigma.codomain]
        action = element_action_matrix(eulerian_idempotent(r, r),
                                       a_d.dim, a_c.dim)
        flat = flatten(theta)
        assert action.apply(flat) == flat, \
            "component at %s is not fixed by the top idempotent" % sigma.label()
        f_sigma = gs.presheaf.restriction_along(sigma)
        big = f_sigma.kron_power(r)          # A(c)^{(x) r} -> A(d)^{(x) r}
        big_t = big.transpose()
        theta_t = theta.transpose()
        cols = []
        ok = True
        for k in range(a_d.dim):
            x = big_t.solve(theta_t.column(k))
            if x is None:
                ok = False
                break
            cols.append(x)
        if not ok:
            out["failures"].append(sigma.label())
            continue
        lift = RatMatrix.from_cols(cols, ambient=a_d.dim ** r).transpose()
        unique = big_t.kernel().dim == 0
        out["lifts"][sigma.key()] = {"matrix": lift, "unique": unique}
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
