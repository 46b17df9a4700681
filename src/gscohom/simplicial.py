"""Simplicial cohomology of presheaf pairs on the nerve of a finite category.

For presheaves of modules G, F the pair complex has

    C^p(G, F) = prod_{sigma in N_p} Hom(G(c sigma), F(d sigma)),

with the differential d = sum (-1)^i d_i, where d_0 post-composes with the
first restriction map of F, d_{p+1} pre-composes with the last restriction
map of G, and the interior d_i reindex along the faces.  For a presheaf of
algebras A, the complex of presheaves A^0 -> A^1 -> ... is the same
construction on each slice: A^n(U) is the pair complex of the slice C/U
against A pulled back to it, so its layout and differential are those of
`PairComplex`.  The embedding A -> A^0 comes with it.

Cochain blocks are flattened column-major (input index outer, output index
inner), simplices in nerve order; d is written entry by entry at the faces'
positions in the category's face table (`FiniteCategory.faces`).
"""

from .linalg import (RatMatrix, VerificationFailed, _tidy, memo,
                     subcomplex_cohomology)
from .algebra import InvalidStructure
from .fincat import Simplex, slice_category


def functoriality_failure(category, maps, dims, identity_fails,
                          composite_fails):
    """The first presheaf law that maps[u]: F(U) -> F(V), one per
    u: V -> U with F(U) of dimension dims[U], breaks, or None: F(1_U) = 1
    and F(f) F(g) = F(g f).  The failure is the message
    `identity_fails % U` or `composite_fails % (g, f)`; each caller raises
    its own error class with it."""
    for obj in category.objects:
        if maps[category.identity(obj)] != RatMatrix.identity(dims[obj]):
            return identity_fails % obj
    for g in category.morphisms:
        for f in category.morphisms:
            if category.target(f) == category.source(g) and \
                    maps[f] @ maps[g] != maps[category.compose(g, f)]:
                return composite_fails % (g, f)
    return None


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
        failure = functoriality_failure(
            cat, self.maps, self.dims,
            "identity restriction is not the identity at %s",
            "functoriality fails on (%s, %s)")
        if failure:
            raise InvalidStructure(failure)

    @staticmethod
    def constant(category):
        """The constant presheaf Q, every restriction the identity."""
        dims = {o: 1 for o in category.objects}
        maps = {name: RatMatrix.identity(1) for name in category.morphisms}
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
        if not g_presheaf.category.same_shape(f_presheaf.category):
            raise InvalidStructure("the presheaves live on different "
                                   "categories")
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
        """Matrix of d_simp: C^p -> C^{p+1}, written entry by entry.

        With vec(L X R) = (R^T (x) L) vec X on column-major cochains, the
        face d_0 of sigma = (u_1, ..., u_{p+1}) post-composes with F(u_1),
        the block 1_cols (x) F(u_1); the face d_{p+1} pre-composes with
        G(u_{p+1}), the block (-1)^{p+1} G(u_{p+1})^T (x) 1_rows; an
        interior face d_i is a run of (-1)^i.  Faces that coincide in the
        face table (`FiniteCategory.faces`) add up."""
        offsets = [off for *_, off in self.layout(p)[0]]
        d = {}
        for (sigma, rows, cols, out), faces in zip(self.layout(p + 1)[0],
                                                   self.category.faces(p)):
            for pos, entries, sign in (
                    (faces[0], self._outer(sigma.arrows[0], cols, False), 1),
                    (faces[-1], self._outer(sigma.arrows[-1], rows, True),
                     (-1) ** (p + 1))):
                col = offsets[pos]
                for (i, j), v in entries:
                    key = (out + i, col + j)
                    d[key] = d.get(key, 0) + sign * v
            for i in range(1, p + 1):
                col, sign = offsets[faces[i]] - out, (-1) ** i
                for k in range(out, out + rows * cols):
                    d[(k, col + k)] = d.get((k, col + k), 0) + sign
        return RatMatrix._trusted(self.dim(p + 1), self.dim(p), _tidy(d))

    @memo()
    def _outer(self, u, size, last):
        """The entries of 1_size (x) F(u) for d_0, or of G(u)^T (x) 1_size
        unsigned for the last face; built once per pair complex."""
        one = RatMatrix.identity(size)
        return (self.g.maps[u].transpose().kron(one) if last
                else one.kron(self.f.maps[u]))._d.items()

    def reduced_coordinates(self, p):
        """Flat coordinates supported on non-degenerate simplices (a
        0-simplex is never degenerate)."""
        keep = []
        for sigma, rows, cols, off in self.layout(p)[0]:
            if not sigma.is_degenerate():
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
    """The complex of presheaves A^0 -> A^1 -> ... attached to a strict
    presheaf of algebras, with the embedding A -> A^0 induced by the
    restriction maps.

    A^n(U) is the degree-n cochain space of the pair complex of the slice
    C/U, PairComplex(constant(C/U), F_U), where F_U puts A(V) on the slice
    object V -> U and restricts along the underlying arrow of each slice
    arrow; phi^{n,U} is that complex's differential, and rho^{n,u} copies
    the block of u.sigma to the block of sigma."""

    def __init__(self, presheaf, n_max):
        if not presheaf.is_strict():
            raise InvalidStructure("the slice complex needs a strict presheaf")
        self.presheaf = presheaf
        self.n_max = n_max
        cat = presheaf.category
        self.slices = {u: self._slice_complex(u) for u in cat.objects}
        self.levels = [self._build_level(n) for n in range(n_max + 1)]
        self.phi = {n: {u: self.slices[u].differential(n)
                        for u in cat.objects}
                    for n in range(n_max)}
        self.eps = {u: self._build_eps(u) for u in cat.objects}

    def _slice_complex(self, u):
        """The pair complex of constant(C/U) and F_U."""
        cat = self.presheaf.category
        sl = slice_category(cat, u)
        dims = {w: self.presheaf.algebras[cat.source(w)].dim
                for w in sl.objects}
        maps = {name: self.presheaf.restrictions[v]
                for name, v in sl.underlying_arrow.items()}
        return PairComplex(ModPresheaf.constant(sl),
                           ModPresheaf(sl, dims, maps, check=False))

    def _build_level(self, n):
        cat = self.presheaf.category
        dims = {u: self.slices[u].dim(n) for u in cat.objects}
        maps = {}
        for name, m in cat.morphisms.items():
            # rho^{n,u}: A^n(U) -> A^n(V) copies the block of u.sigma
            index_u = self.slices[m.target].block_index(n)
            placed = []
            for sigma, rows, _, off_v in self.slices[m.source].layout(n)[0]:
                pushed = self._push_simplex(name, sigma)
                placed.append((off_v, index_u[pushed.key()][2],
                               RatMatrix.identity(rows)))
            maps[name] = RatMatrix.from_blocks(dims[m.source], dims[m.target],
                                               placed)
        return ModPresheaf(cat, dims, maps)

    def _push_simplex(self, u_name, sigma):
        """N_n(C/V) -> N_n(C/U) for u: V -> U, by postcomposing with u."""
        cat = self.presheaf.category
        slice_v = self.slices[cat.source(u_name)].category
        arrows = tuple("%s|%s" % (slice_v.underlying_arrow[arr],
                                  cat.compose(u_name, slice_v.target(arr)))
                       for arr in sigma.arrows)
        return Simplex(self.slices[cat.target(u_name)].category, arrows,
                       cat.compose(u_name, sigma.domain))

    def _build_eps(self, u):
        """The embedding A(U) -> A^0(U), blockwise the restriction along the
        slice object's arrow."""
        return RatMatrix.vstack([self.presheaf.restrictions[sigma.domain]
                                 for sigma, *_ in self.slices[u].layout(0)[0]])

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
