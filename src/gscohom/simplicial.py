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

from functools import cache

from .linalg import (RatMatrix, VerificationFailed, memo,
                     subcomplex_cohomology)
from .algebra import InvalidStructure
from .fincat import Simplex, slice_category


def require_functorial(category, maps, dims, error, identity_fails,
                       composite_fails):
    """Check that maps[u]: F(U) -> F(V), one per u: V -> U with F(U) of
    dimension dims[U], form a presheaf: F(1_U) = 1 and F(f) F(g) = F(g f).
    The first law that fails raises `error` with the message
    `identity_fails % U` or `composite_fails % (g, f)`."""
    for obj in category.objects:
        if maps[category.identity(obj)] != RatMatrix.identity(dims[obj]):
            raise error(identity_fails % obj)
    for g in category.morphisms:
        for f in category.morphisms:
            if category.target(f) == category.source(g) and \
                    maps[f] @ maps[g] != maps[category.compose(g, f)]:
                raise error(composite_fails % (g, f))


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
        """Shapes, identities and functoriality; InvalidStructure names the
        first that fails."""
        cat = self.category
        for name, m in cat.morphisms.items():
            mat = self.maps[name]
            if (mat.rows, mat.cols) != (self.dims[m.source],
                                        self.dims[m.target]):
                raise InvalidStructure("restriction %s has the wrong shape"
                                       % name)
        require_functorial(cat, self.maps, self.dims, InvalidStructure,
                           "identity restriction is not the identity at %s",
                           "functoriality fails on (%s, %s)")

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

    @memo()
    def layout(self, p):
        """Per-simplex blocks: list of (simplex, rows, cols, offset)."""
        blocks = []
        offset = 0
        for sigma in self.category.nerve(p):
            rows = self.f.dims[sigma.domain]
            cols = self.g.dims[sigma.codomain]
            blocks.append((sigma, rows, cols, offset))
            offset += rows * cols
        return blocks, offset

    def dim(self, p):
        return self.layout(p)[1]

    def block_index(self, p):
        blocks, _ = self.layout(p)
        return {sigma.key(): (rows, cols, off) for sigma, rows, cols, off in blocks}

    @memo()
    def differential(self, p):
        """Matrix of d_simp: C^p -> C^{p+1}, placed face by face.

        With vec(L X R) = (R^T (x) L) vec X on column-major cochains, the
        face d_0 of sigma = (u_1, ..., u_{p+1}) post-composes with F(u_1),
        the block 1_cols (x) F(u_1); the face d_{p+1} pre-composes with
        G(u_{p+1}), the block (-1)^{p+1} G(u_{p+1})^T (x) 1_rows; and an
        interior face d_i is (-1)^i times the identity.  Each distinct
        block is built once per call.
        """
        one = RatMatrix.identity
        last_sign = (-1) ** (p + 1)
        post = cache(lambda u, cols: one(cols).kron(self.f.maps[u]))
        pre = cache(lambda u, rows: self.g.maps[u].transpose().kron(
            one(rows)).scale(last_sign))
        interior = cache(lambda size, sign: one(size).scale(sign))
        index_in = self.block_index(p)
        placed = []
        for sigma, rows, cols, off_out in self.layout(p + 1)[0]:
            faces = [post(sigma.arrows[0], cols)] + \
                [interior(rows * cols, (-1) ** i) for i in range(1, p + 1)] + \
                [pre(sigma.arrows[-1], rows)]
            placed.extend((off_out, index_in[sigma.face(i).key()][2], block)
                          for i, block in enumerate(faces))
        return RatMatrix.from_blocks(self.dim(p + 1), self.dim(p), placed)

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
        for n in range(n_max + 1):
            self.levels.append(self._build_level(n))
        self.phi = {n: {u: self._build_phi(n, u) for u in cat.objects}
                    for n in range(n_max)}
        self.eps = {u: self._build_eps(u) for u in cat.objects}

    @memo()
    def _layout(self, n, u):
        """(blocks, total) of level n at the object U."""
        cat = self.presheaf.category
        blocks = []
        offset = 0
        for sigma in self.slices[u].nerve(n):
            # a slice object V -> U carries A(V)
            d = self.presheaf.algebras[cat.source(sigma.domain)].dim
            blocks.append((sigma, d, offset))
            offset += d
        return blocks, offset

    def _build_level(self, n):
        cat = self.presheaf.category
        dims = {u: self._layout(n, u)[1] for u in cat.objects}
        maps = {}
        for name, m in cat.morphisms.items():
            # rho^{n,u}: A^n(U) -> A^n(V) copies the block of u.sigma
            u_obj, v_obj = m.target, m.source
            index_u = {sigma.key(): (d, off)
                       for sigma, d, off in self._layout(n, u_obj)[0]}
            placed = []
            for sigma, d, off_v in self._layout(n, v_obj)[0]:
                pushed = self._push_simplex(name, v_obj, u_obj, sigma)
                d_u, off_u = index_u[pushed.key()]
                assert d_u == d
                placed.append((off_v, off_u, RatMatrix.identity(d)))
            maps[name] = RatMatrix.from_blocks(dims[v_obj], dims[u_obj], placed)
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
        return Simplex(slice_u, tuple(arrows), new_domain)

    def _build_phi(self, n, u):
        """phi^{n,U}: A^n(U) -> A^{n+1}(U): on the block of sigma, the 0th
        face restricted along the first slice arrow, minus the first face,
        plus the second, and so on."""
        sl = self.slices[u]
        index_in = {sigma.key(): (d, off)
                    for sigma, d, off in self._layout(n, u)[0]}
        blocks_out, dim_out = self._layout(n + 1, u)
        placed = []
        for sigma, d_out, off_out in blocks_out:
            d_in, off_in = index_in[sigma.face(0).key()]
            under = sl.underlying_arrow[sigma.arrows[0]]
            rest = self.presheaf.restrictions[under]
            assert rest.rows == d_out and rest.cols == d_in
            placed.append((off_out, off_in, rest))
            for i in range(1, n + 2):
                d_in, off_in = index_in[sigma.face(i).key()]
                assert d_in == d_out
                placed.append((off_out, off_in,
                               RatMatrix.identity(d_out).scale((-1) ** i)))
        return RatMatrix.from_blocks(dim_out, self._layout(n, u)[1], placed)

    def _build_eps(self, u):
        """The embedding A(U) -> A^0(U), blockwise the restriction along the
        slice object's arrow."""
        mats = []
        for sigma, d, off in self._layout(0, u)[0]:
            mats.append(self.presheaf.restrictions[sigma.domain])
        return RatMatrix.vstack(mats)

    # -- verification helpers

    def check_complex(self):
        """phi o phi = 0 at every object and level; phi natural in U
        (VerificationFailed otherwise)."""
        cat = self.presheaf.category
        for n in range(self.n_max - 1):
            for u in cat.objects:
                if not (self.phi[n + 1][u] @ self.phi[n][u]).is_zero():
                    raise VerificationFailed(
                        "phi^2 != 0 at level %d, object %s" % (n, u))
        for n in range(self.n_max):
            for name, m in cat.morphisms.items():
                lhs = self.levels[n + 1].maps[name] @ self.phi[n][m.target]
                rhs = self.phi[n][m.source] @ self.levels[n].maps[name]
                if lhs != rhs:
                    raise VerificationFailed(
                        "phi is not natural along %s" % name)
        return True

    def check_kernel_is_algebra(self):
        """ker(phi^0) coincides with the image of the (injective) embedding
        A -> A^0, objectwise (VerificationFailed otherwise)."""
        out = {}
        for u in self.presheaf.category.objects:
            eps = self.eps[u]
            a_dim = self.presheaf.algebras[u].dim
            if eps.rank() != a_dim:
                raise VerificationFailed(
                    "embedding is not injective at %s" % u)
            ker = self.phi[0][u].kernel()
            if ker.dim != a_dim:
                raise VerificationFailed(
                    "kernel of phi^0 has dim %d != dim A(%s) = %d"
                    % (ker.dim, u, a_dim))
            if not all(ker.contains(eps.column(j)) for j in range(a_dim)):
                raise VerificationFailed(
                    "the image of A(%s) is not in the kernel of phi^0" % u)
            out[u] = ker.dim
        return out
