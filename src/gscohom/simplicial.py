"""Simplicial cohomology of presheaf pairs on the nerve of a finite category.

For presheaves of modules G, F the pair complex has

    C^p(G, F) = prod_{sigma in N_p} Hom(G(c sigma), F(d sigma)),

with the differential d = sum (-1)^i d_i, where d_0 post-composes with the
first restriction map of F, d_{p+1} pre-composes with the last restriction
map of G, and the interior d_i reindex along the faces.  The same machinery
also yields, for a presheaf of algebras A, the complex of presheaves A^0 ->
A^1 -> ... built from slice-category nerves, together with the embedding
A -> A^0.

Cochain blocks are flattened column-major (input index outer, output index
inner); simplices are ordered as produced by the nerve, which is
deterministic.
"""

from fractions import Fraction

# submatrix is re-exported for callers that import it from here
from .linalg import RatMatrix, subcomplex_cohomology, submatrix  # noqa: F401
from .fincat import slice_category


class ModPresheaf:
    """A presheaf of finite-dimensional vector spaces: dims per object and a
    matrix f^u: F(U) -> F(V) per morphism u: V -> U."""

    def __init__(self, category, dims, maps, check=True):
        self.category = category
        self.dims = dict(dims)
        self.maps = dict(maps)
        if check:
            self._validate()

    def _validate(self):
        cat = self.category
        for name, m in cat.morphisms.items():
            mat = self.maps[name]
            assert mat.rows == self.dims[m.source], name
            assert mat.cols == self.dims[m.target], name
        for obj in cat.objects:
            ident = self.maps[cat.identity(obj)]
            assert ident == RatMatrix.identity(self.dims[obj]), \
                "identity restriction is not the identity at %s" % obj
        for g in cat.morphisms:
            for f in cat.morphisms:
                if cat.target(f) == cat.source(g):
                    composite = cat.compose(g, f)
                    assert self.maps[f] @ self.maps[g] == self.maps[composite], \
                        "functoriality fails on (%s, %s)" % (g, f)

    @staticmethod
    def constant(category, dim=1):
        dims = {o: dim for o in category.objects}
        maps = {name: RatMatrix.identity(dim) for name in category.morphisms}
        return ModPresheaf(category, dims, maps, check=False)

    @staticmethod
    def of_algebras(presheaf):
        """The underlying vector-space presheaf of a presheaf of algebras."""
        dims = {o: presheaf.algebras[o].dim for o in presheaf.category.objects}
        return ModPresheaf(presheaf.category, dims, presheaf.restrictions,
                           check=False)

    def tensor_power(self, q):
        """The presheaf U -> F(U)^{(x) q} with restriction maps f^{(x) q}."""
        dims = {o: self.dims[o] ** q for o in self.category.objects}
        maps = {name: mat.kron_power(q) for name, mat in self.maps.items()}
        return ModPresheaf(self.category, dims, maps, check=False)


class PairComplex:
    """The simplicial complex C(G, F) of a pair of module presheaves."""

    def __init__(self, g_presheaf, f_presheaf):
        assert g_presheaf.category.same_shape(f_presheaf.category)
        self.g = g_presheaf
        self.f = f_presheaf
        self.category = f_presheaf.category
        self._layout_cache = {}
        self._diff_cache = {}

    def layout(self, p):
        """Per-simplex blocks: list of (simplex, rows, cols, offset)."""
        if p in self._layout_cache:
            return self._layout_cache[p]
        blocks = []
        offset = 0
        for sigma in self.category.nerve(p):
            rows = self.f.dims[sigma.domain]
            cols = self.g.dims[sigma.codomain]
            blocks.append((sigma, rows, cols, offset))
            offset += rows * cols
        self._layout_cache[p] = (blocks, offset)
        return self._layout_cache[p]

    def dim(self, p):
        return self.layout(p)[1]

    def block_index(self, p):
        blocks, _ = self.layout(p)
        return {sigma.key(): (rows, cols, off) for sigma, rows, cols, off in blocks}

    def differential(self, p):
        """Matrix of d_simp: C^p -> C^{p+1}."""
        if p in self._diff_cache:
            return self._diff_cache[p]
        out_blocks, out_dim = self.layout(p + 1)
        index_in = self.block_index(p)
        entries = {}

        def add_post(off_out, off_in, post, rows_in, cols):
            # phi -> post @ phi: out(i, j) += post[i, r] in(r, j)
            for (i, r), v in post.items():
                for j in range(cols):
                    entries[(off_out + j * post.rows + i,
                             off_in + j * rows_in + r)] = \
                        entries.get((off_out + j * post.rows + i,
                                     off_in + j * rows_in + r), Fraction(0)) + v

        def add_pre(off_out, off_in, pre, rows, sign):
            # phi -> phi @ pre: out(i, j) += pre[r, j] in(i, r)
            for (r, j), v in pre.items():
                for i in range(rows):
                    key = (off_out + j * rows + i, off_in + r * rows + i)
                    entries[key] = entries.get(key, Fraction(0)) + sign * v

        def add_identity(off_out, off_in, size, sign):
            for t in range(size):
                key = (off_out + t, off_in + t)
                entries[key] = entries.get(key, Fraction(0)) + sign

        for sigma, rows, cols, off_out in out_blocks:
            for i in range(0, p + 2):
                face = sigma.face(i)
                rows_in, cols_in, off_in = index_in[face.key()]
                sign = Fraction(-1) if i % 2 else Fraction(1)
                if i == 0:
                    post = self.f.maps[sigma.arrows[0]]
                    if sign < 0:
                        post = -post
                    add_post(off_out, off_in, post, rows_in, cols)
                elif i == p + 1:
                    pre = self.g.maps[sigma.arrows[-1]]
                    add_pre(off_out, off_in, pre, rows, sign)
                else:
                    add_identity(off_out, off_in, rows * cols, sign)
        mat = RatMatrix(out_dim, self.dim(p), entries)
        self._diff_cache[p] = mat
        return mat

    def reduced_coordinates(self, p):
        """Flat coordinates supported on non-degenerate simplices (every
        0-cochain is reduced)."""
        keep = []
        for sigma, rows, cols, off in self.layout(p)[0]:
            if p == 0 or not sigma.is_degenerate():
                keep.extend(range(off, off + rows * cols))
        return keep

    def cohomology(self, p, reduced=False):
        """(betti, representatives) of H^p; with reduced=True on the
        subcomplex of cochains vanishing on degenerate simplices, with the
        representatives still in the coordinates of C^p."""
        keep = self.reduced_coordinates if reduced else None
        return subcomplex_cohomology(self.differential, p, keep)


def presheaf_cohomology(f_presheaf, p, reduced=False):
    """Simplicial presheaf cohomology H^p(U, F) (pair complex against the
    constant presheaf)."""
    cx = PairComplex(ModPresheaf.constant(f_presheaf.category), f_presheaf)
    return cx.cohomology(p, reduced=reduced)


class PresheafComplex:
    """The complex of presheaves A^0 -> A^1 -> ... attached to a presheaf of
    algebras, where A^n(U) is the product of A(V) over the n-simplices of
    the slice category over U (identified with their composite arrow
    V -> U), with the alternating-face differential and the embedding
    A -> A^0 induced by the restriction maps."""

    def __init__(self, presheaf, n_max):
        assert presheaf.is_strict(), "the slice complex needs a strict presheaf"
        self.presheaf = presheaf
        self.n_max = n_max
        cat = presheaf.category
        self.slices = {u: slice_category(cat, u) for u in cat.objects}
        self.levels = []          # ModPresheaf per n
        self._layouts = {}        # (n, U) -> (blocks, total)
        for n in range(n_max + 1):
            self.levels.append(self._build_level(n))
        self.phi = {n: {u: self._build_phi(n, u) for u in cat.objects}
                    for n in range(n_max)}
        self.eps = {u: self._build_eps(u) for u in cat.objects}

    def _slice_source(self, u, obj_name):
        """The object V of the base category under a slice object V -> U."""
        return self.presheaf.category.source(obj_name)

    def _layout(self, n, u):
        if (n, u) in self._layouts:
            return self._layouts[(n, u)]
        blocks = []
        offset = 0
        for sigma in self.slices[u].nerve(n):
            v = self._slice_source(u, sigma.domain)
            d = self.presheaf.algebras[v].dim
            blocks.append((sigma, d, offset))
            offset += d
        self._layouts[(n, u)] = (blocks, offset)
        return self._layouts[(n, u)]

    def _build_level(self, n):
        cat = self.presheaf.category
        dims = {u: self._layout(n, u)[1] for u in cat.objects}
        maps = {}
        for name, m in cat.morphisms.items():
            # rho^{n,u}: A^n(U) -> A^n(V) copies the block of u.sigma
            u_obj, v_obj = m.target, m.source
            blocks_v, dim_v = self._layout(n, v_obj)
            index_u = {}
            for sigma, d, off in self._layout(n, u_obj)[0]:
                index_u[sigma.key()] = (d, off)
            entries = {}
            for sigma, d, off_v in blocks_v:
                pushed = self._push_simplex(name, v_obj, u_obj, sigma)
                d_u, off_u = index_u[pushed.key()]
                assert d_u == d
                for t in range(d):
                    entries[(off_v + t, off_u + t)] = Fraction(1)
            maps[name] = RatMatrix(dim_v, self._layout(n, u_obj)[1], entries)
        return ModPresheaf(cat, dims, maps)

    def _push_simplex(self, u_name, v_obj, u_obj, sigma):
        """N_n(slice over V) -> N_n(slice over U) by postcomposing with u."""
        cat = self.presheaf.category
        slice_v, slice_u = self.slices[v_obj], self.slices[u_obj]
        new_domain = cat.compose(u_name, sigma.domain)
        arrows = []
        for arr in sigma.arrows:
            under = slice_v.underlying_arrow[arr]
            target_obj = slice_v.target(arr)
            new_target = cat.compose(u_name, target_obj)
            arrows.append("%s|%s" % (under, new_target))
        from .fincat import Simplex
        return Simplex(slice_u, tuple(arrows), new_domain)

    def _build_phi(self, n, u):
        """phi^{n,U}: A^n(U) -> A^{n+1}(U)."""
        sl = self.slices[u]
        blocks_out, dim_out = self._layout(n + 1, u)
        index_in = {sigma.key(): (d, off)
                    for sigma, d, off in self._layout(n, u)[0]}
        entries = {}
        for sigma, d_out, off_out in blocks_out:
            # restriction of the 0th face along the first slice arrow
            first = sigma.arrows[0]
            under = sl.underlying_arrow[first]
            face0 = sigma.face(0)
            d_in, off_in = index_in[face0.key()]
            rest = self.presheaf.restrictions[under]
            assert rest.rows == d_out and rest.cols == d_in
            for (i, j), v in rest.items():
                key = (off_out + i, off_in + j)
                entries[key] = entries.get(key, Fraction(0)) + v
            sign = Fraction(-1)
            for i in range(1, n + 2):
                face = sigma.face(i)
                d_in, off_in = index_in[face.key()]
                assert d_in == d_out
                for t in range(d_out):
                    key = (off_out + t, off_in + t)
                    entries[key] = entries.get(key, Fraction(0)) + sign
                sign = -sign
        return RatMatrix(dim_out, self._layout(n, u)[1], entries)

    def _build_eps(self, u):
        """The embedding A(U) -> A^0(U), blockwise the restriction along the
        slice object's arrow."""
        mats = []
        for sigma, d, off in self._layout(0, u)[0]:
            mats.append(self.presheaf.restrictions[sigma.domain])
        return RatMatrix.vstack(mats)

    # -- verification helpers

    def check_complex(self):
        """phi o phi = 0 at every object and level; phi natural in U."""
        cat = self.presheaf.category
        for n in range(self.n_max - 1):
            for u in cat.objects:
                assert (self.phi[n + 1][u] @ self.phi[n][u]).is_zero(), \
                    "phi^2 != 0 at level %d, object %s" % (n, u)
        for n in range(self.n_max):
            for name, m in cat.morphisms.items():
                lhs = self.levels[n + 1].maps[name] @ self.phi[n][m.target]
                rhs = self.phi[n][m.source] @ self.levels[n].maps[name]
                assert lhs == rhs, "phi is not natural along %s" % name
        return True

    def check_kernel_is_algebra(self):
        """ker(phi^0) coincides with the image of the (injective) embedding
        A -> A^0, objectwise."""
        out = {}
        for u in self.presheaf.category.objects:
            eps = self.eps[u]
            a_dim = self.presheaf.algebras[u].dim
            assert eps.rank() == a_dim, "embedding is not injective at %s" % u
            ker = self.phi[0][u].kernel()
            assert ker.dim == a_dim, \
                "kernel of phi^0 has dim %d != dim A(%s) = %d" % (ker.dim, u, a_dim)
            for j in range(a_dim):
                assert ker.contains(eps.column(j))
            out[u] = ker.dim
        return out
