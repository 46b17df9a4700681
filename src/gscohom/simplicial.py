"""Simplicial cohomology of presheaf pairs on the nerve of a finite category.

For presheaves of modules G, F the pair complex has

    C^p(G, F) = prod_{sigma in N_p} Hom(G(c sigma), F(d sigma)),

with the differential d = sum (-1)^i d_i, where d_0 post-composes with the
first restriction map of F, d_{p+1} pre-composes with the last restriction
map of G, and the interior d_i reindex along the faces.  The GS complex
(`gs`) takes its d_simp blocks from here, and the Cech comparison (`cech`)
its simplicial side.

Cochain blocks are flattened column-major (input index outer, output index
inner), simplices in nerve order; d is written column by column at the
faces' positions in the category's face table (`FiniteCategory.faces`),
the outer faces straight from the entries of the restriction maps.
"""

from collections import defaultdict

from .linalg import RatMatrix, exact, memo, subcomplex_cohomology
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
    matrix f^u: F(U) -> F(V) per morphism u: V -> U.  `identities` is the
    set of the u whose f^u is an identity matrix, as it is along an
    identity arrow, decided once here; the presheaf is never changed."""

    def __init__(self, category, dims, maps, check=True):
        self.category = category
        self.dims = dict(dims)
        self.maps = dict(maps)
        if check:
            self._validate()
        self.identities = {u for u, mat in self.maps.items()
                           if mat == RatMatrix.identity(mat.rows)}

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

    @memo()
    def tensor_power(self, q):
        """The presheaf U -> F(U)^{(x) q} with restriction maps f^{(x) q},
        each f^{(x) q} = f^{(x) q-1} (x) f from the power below, built once
        per presheaf and q."""
        dims = {o: self.dims[o] ** q for o in self.category.objects}
        if q == 0:
            return ModPresheaf(self.category, dims, {
                name: RatMatrix.identity(1) for name in self.maps},
                check=False)
        below = self.tensor_power(q - 1).maps
        return ModPresheaf(self.category, dims, {
            name: below[name].kron(mat) for name, mat in self.maps.items()},
            check=False)


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
        """Matrix of d_simp: C^p -> C^{p+1}, written column by column
        (`write_differential`)."""
        columns = [{} for _ in range(self.dim(p))]
        self.write_differential(p, columns, 0, 0, 1)
        return RatMatrix._from_column_list(self.dim(p + 1), columns)

    def write_differential(self, p, columns, row0, col0, sign):
        """Add sign * d_simp: C^p -> C^{p+1} into the list of column dicts
        {row: value}, with its (0, 0) entry at row row0 of columns[col0].
        No column may hold an entry in those rows yet; the entries written
        are exact and nonzero, as `RatMatrix._from_column_list` needs, and
        a column may be left empty.

        With vec(L X R) = (R^T (x) L) vec X on column-major cochains, the
        face d_0 of sigma = (u_1, ..., u_{p+1}) post-composes with
        F = F(u_1), the block 1_cols (x) F: entry F[k, l] goes from
        coordinate j * F.cols + l of the face to j * rows + k, for each
        j < cols.  The face d_{p+1} pre-composes with G = G(u_{p+1}), the
        block (-1)^{p+1} G^T (x) 1_rows, read off the columns of G: entry
        G[j1, j] goes from j1 * rows + i to j * rows + i, for each
        i < rows.  An interior face d_i is a run of (-1)^i, the identity
        block times that sign, and so is an outer face whose restriction
        is an identity matrix (`ModPresheaf.identities`).  Faces that
        coincide in the face table (`FiniteCategory.faces`) add up: the
        runs at one face are summed before any entry is written, so runs
        that cancel, as the faces of a degenerate simplex often do, write
        nothing; an outer block at a face written already is written
        apart and then added."""
        offsets = [col0 + off for *_, off in self.layout(p)[0]]
        for (sigma, rows, cols, start), faces in zip(
                self.layout(p + 1)[0], self.category.faces(p)):
            out = row0 + start
            stop = out + rows * cols
            runs, blocks = {}, []
            for pos, presheaf, u, last, coeff in (
                    (faces[0], self.f, sigma.arrows[0], False, 1),
                    (faces[-1], self.g, sigma.arrows[-1], True,
                     (-1) ** (p + 1))):
                if u in presheaf.identities:
                    runs[pos] = runs.get(pos, 0) + coeff
                else:
                    blocks.append((pos, presheaf.maps[u], last, sign * coeff))
            for i in range(1, p + 1):
                runs[faces[i]] = runs.get(faces[i], 0) + (-1) ** i
            written = set()
            for pos, coeff in runs.items():
                if coeff:
                    first, value = offsets[pos], sign * coeff
                    for row, col in zip(range(out, stop),
                                        columns[first:first + stop - out]):
                        col[row] = value
                    written.add(pos)
            for pos, mat, last, face_sign in blocks:
                add = pos in written
                target, first = (defaultdict(dict), 0) if add else \
                    (columns, offsets[pos])
                if last:
                    for j, g_col in mat._c.items():
                        to = out + j * rows
                        for j1, v in g_col.items():
                            v *= face_sign
                            at = first + j1 * rows
                            for i in range(rows):
                                target[at + i][to + i] = v
                else:
                    f_cols = mat._c.items()
                    for j in range(cols):
                        at, to = first + j * mat.cols, out + j * rows
                        for l, f_col in f_cols:
                            col = target[at + l]
                            for k, v in f_col.items():
                                col[to + k] = face_sign * v
                if add:
                    first = offsets[pos]
                    for c, block in target.items():
                        col = columns[first + c]
                        for i, v in block.items():
                            v += col.get(i, 0)
                            if not v:
                                del col[i]
                            else:
                                col[i] = v if type(v) is int else exact(v)
                written.add(pos)

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
