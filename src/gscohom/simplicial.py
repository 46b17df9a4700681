"""Simplicial cohomology of presheaf pairs on the nerve of a finite category.

For presheaves of modules G, F the pair complex has

    C^p(G, F) = prod_{sigma in N_p} Hom(G(c sigma), F(d sigma)),

with the differential d = sum (-1)^i d_i, where d_0 post-composes with the
first restriction map of F, d_{p+1} pre-composes with the last restriction
map of G, and the interior d_i reindex along the faces.  The GS complex
(`gs`) takes its d_simp blocks from here, and the Cech comparison (`cech`)
its simplicial side.

Cochain blocks are flattened column-major (input index outer, output index
inner), simplices in nerve order; d is written entry by entry at the faces'
positions in the category's face table (`FiniteCategory.faces`).
"""

from .linalg import RatMatrix, _tidy, memo, subcomplex_cohomology
from .algebra import InvalidStructure


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
