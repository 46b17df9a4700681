"""Test oracles: constructions that only the test suite checks the library
against, and the writer of project files that the format tests read back.

- `PresheafComplex`: the complex of presheaves A^0 -> A^1 -> ... of a
  strict presheaf of algebras, with its complex, naturality and
  kernel-is-the-presheaf identities.
- `op_cochain`: the Hochschild-level opposite map, checked as an
  involution and a chain map.
- `algebra_deformation_equivalence`: the one-algebra case of the
  equivalence check, both verdicts.
- `cohomology_kinds`: the quasi-isomorphism witness across the subcomplex
  kinds of a GS complex.
- `eulerian_idempotent`: one rational idempotent with its boundary
  conventions, the oracle for the integral projectors.
- `element_difference` and `element_is_zero`: a - b and the zero test in
  the group algebra QS_n.
- `project_json`: a whole project file.
- `contains`: membership of a vector in a `linalg.Subspace`.
- `rref`: the reduced row echelon form by Gauss-Jordan over Fraction,
  sharing no code with `linalg`, and what the earlier library read off it:
  `rref_kernel`, `rref_solve_many`, `rref_inverse` and `rref_quotient`,
  the oracles of the back-substituted read-offs of `linalg` and
  `algebra.quotient_by_columns`.
- `rref_cohomology` with `complete_span`: cohomology read off the RREF of
  d_out, its kernel matrix and the pivots of [image | kernel], the
  oracle of `linalg.cohomology`'s one-echelon path.
- `TupleMatrix`, with `tuple_submatrix` and `tuple_cohomology`: the
  matrix held as a dict {(i, j): entry}, as `linalg.RatMatrix` was before
  it was held by columns, the oracle of every matrix operation.
- `kron_hoch_differential`: the Hochschild differential as a sum of
  Kronecker products, the oracle of the word-by-word writer.
- `cochain_value`: the value phi(w) of a Hochschild cochain on a word.
- `compose_homs` and `opposite_hom`: the composite of two algebra maps,
  and an algebra map between the opposite algebras.

The checks raise the library's `VerificationFailed`, so they still run
under `python -O`.
"""

from fractions import Fraction
from math import gcd, lcm

from gscohom.algebra import (AlgebraHom, FinBimodule, InvalidStructure,
                             eps_block)
from gscohom.fincat import Simplex, slice_category
from gscohom.hochschild import (HCochain, d_hoch, is_normalized, op_matrix,
                                word_index)
from gscohom.linalg import (ComplexViolation, RatMatrix, ShapeMismatch,
                            VerificationFailed, _row_echelon, exact, flatten,
                            submatrix, unflatten)
from gscohom.project import SCHEMA, algebra_json, presheaf_json
from gscohom.shuffles import GroupAlgebraElement, eulerian_idempotents
from gscohom.simplicial import ModPresheaf, PairComplex


def contains(subspace, v):
    """True iff the vector v lies in the Subspace."""
    return subspace.matrix().solve(tuple(v)) is not None


def rref(mat):
    """The reduced row echelon form of the matrix: {pivot column: row as
    {column: Fraction}}, pivots ascending, each row 1 at its pivot and 0 at
    every other pivot.  Plain Gauss-Jordan over Fraction: each row of mat
    in turn has the rows so far subtracted at their pivots; what is left,
    if anything, is divided by its first entry, whose column becomes a
    pivot, and is subtracted from the rows so far at that column."""
    reduced = {}
    rows = {}
    for (i, j), v in mat.items():
        rows.setdefault(i, {})[j] = Fraction(v)
    for row in rows.values():
        for c in [c for c in row if c in reduced]:
            _subtract(row, row[c], reduced[c])
        if not row:
            continue
        pivot = min(row)
        lead = row[pivot]
        row = {j: x / lead for j, x in row.items()}
        for other in reduced.values():
            if pivot in other:
                _subtract(other, other[pivot], row)
        reduced[pivot] = row
    return dict(sorted(reduced.items()))


def _subtract(row, factor, other):
    """row -= factor * other, in place, dropping the entries that vanish."""
    for j, x in other.items():
        y = row.get(j, 0) - factor * x
        if y:
            row[j] = y
        else:
            del row[j]


def _exact(x):
    """x as an int when it is integral, else as it is."""
    return x.numerator if x.denominator == 1 else x


def rref_kernel(mat):
    """The kernel basis read off the RREF: column k, for the k-th free
    column j, has 1 at row j and minus column j of the RREF at the pivot
    rows."""
    red = rref(mat)
    free = {j: k for k, j in enumerate(
        j for j in range(mat.cols) if j not in red)}
    entries = {(j, k): 1 for j, k in free.items()}
    for c, row in red.items():
        for j, x in row.items():
            if j != c:
                entries[(c, free[j])] = _exact(-x)
    return RatMatrix(mat.cols, len(free), entries)


def rref_solve_many(mat, rhs):
    """X with mat X = rhs, or None: the RREF of [mat | rhs] has a pivot in
    rhs iff the system is inconsistent, and otherwise holds X in its pivot
    rows."""
    n = mat.cols
    red = rref(RatMatrix.hstack([mat, rhs]))
    if any(c >= n for c in red):
        return None
    return RatMatrix(n, rhs.cols, {(c, j - n): _exact(x)
                                   for c, row in red.items()
                                   for j, x in row.items() if j >= n})


def rref_inverse(mat):
    """mat^-1, or None."""
    return rref_solve_many(mat, RatMatrix.identity(mat.rows))


def rref_quotient(raw_dim, rel):
    """(project, section) of `algebra.quotient_by_columns`, read off the
    RREF of [rel | 1]: section is the identity columns among its pivots,
    and project the rows of its identity block at those pivots."""
    cols = rel.cols
    red = rref(RatMatrix.hstack([rel, RatMatrix.identity(raw_dim)]))
    extra = [c for c in red if c >= cols]
    section = RatMatrix(raw_dim, len(extra), {
        (c - cols, k): 1 for k, c in enumerate(extra)})
    project = RatMatrix(len(extra), raw_dim, {
        (k, j - cols): _exact(x) for k, c in enumerate(extra)
        for j, x in red[c].items() if j >= cols})
    return project, section


def complete_span(span, candidates):
    """(basis, extra): basis is the matrix of the pivot columns of span, a
    basis of its column space; extra lists, ascending, the indices of the
    columns of candidates that are pivot columns of [basis | candidates],
    which complete basis to a basis of the span of both.  Which candidates
    complete it depends only on the column space of span.  The pivots come
    from `rref`."""
    basis = submatrix(span, range(span.rows), list(rref(span)))
    r = basis.cols
    combined = RatMatrix.hstack([basis, candidates])
    return basis, [c - r for c in rref(combined) if c >= r]


def rref_cohomology(d_in, d_out):
    """(betti, representatives) of  . --d_in--> . --d_out--> .  from three
    Gauss-Jordan eliminations (`rref`): the kernel basis read off the RREF
    of d_out, the pivot columns of d_in, and the kernel columns that are
    pivots of [image | kernel]; the count is checked against the
    representatives."""
    if d_in.rows != d_out.cols:
        raise ShapeMismatch("d_in has %d rows but d_out %d columns"
                            % (d_in.rows, d_out.cols))
    if not (d_out @ d_in).is_zero():
        raise ComplexViolation("composite of differentials is not zero")
    kernel = rref_kernel(d_out)
    image, extra = complete_span(d_in, kernel)
    betti = kernel.cols - image.cols
    if betti != len(extra):
        raise VerificationFailed("dim ker - rank im = %d, but %d "
                                 "representatives" % (betti, len(extra)))
    return betti, [kernel.column(k) for k in extra]


# -- the tuple-keyed matrix, the oracle of the column-keyed RatMatrix

def _tidy_entries(d):
    """Normalise the entry dict d in place: an integral Fraction becomes an
    int and a zero is dropped.  Returns d."""
    for k in [k for k, v in d.items() if not v]:
        del d[k]
    for k, v in d.items():
        if type(v) is not int and v.denominator == 1:
            d[k] = v.numerator
    return d


class TupleMatrix:
    """The matrix representation that `linalg.RatMatrix` had before it was
    held by columns: a dict {(i, j): nonzero exact entry}, with the same
    operations written on that dict.  Eliminations use `linalg`'s own
    `_row_echelon` on rows, and the trailing rows come from the columns
    read with the row order reversed, each leading on its first entry."""

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ShapeMismatch("a matrix cannot be %d x %d" % (rows, cols))
        self.rows, self.cols = rows, cols
        if not isinstance(entries, dict):
            entries = {(i, j): v for i, row in enumerate(entries)
                       for j, v in enumerate(row)}
        self._d = {}
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch("an entry at (%d, %d) of a %d x %d "
                                    "matrix" % (i, j, rows, cols))
            v = exact(v)
            if v:
                self._d[(i, j)] = v

    @staticmethod
    def zeros(rows, cols):
        return TupleMatrix(rows, cols, {})

    @staticmethod
    def identity(n):
        return TupleMatrix(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def from_rows(rows_list):
        r = len(rows_list)
        c = len(rows_list[0]) if r else 0
        if any(len(row) != c for row in rows_list):
            raise ShapeMismatch("ragged rows")
        return TupleMatrix(r, c, rows_list)

    @staticmethod
    def from_cols(cols_list, ambient=None):
        c = len(cols_list)
        r = len(cols_list[0]) if c else (ambient or 0)
        if any(len(col) != r for col in cols_list):
            raise ShapeMismatch("columns of different lengths")
        return TupleMatrix(r, c, {(i, j): v for j, col in enumerate(cols_list)
                                  for i, v in enumerate(col)})

    def __getitem__(self, ij):
        return self._d.get(ij, 0)

    def items(self):
        return iter(sorted(self._d.items()))

    def column(self, j):
        return tuple(self._d.get((i, j), 0) for i in range(self.rows))

    def is_zero(self):
        return not self._d

    def __eq__(self, other):
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self._d == other._d

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.items())))

    def __add__(self, other):
        return TupleMatrix.from_blocks(self.rows, self.cols,
                                       [(0, 0, self), (0, 0, other)])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a):
        return self._with(_tidy_entries(
            {k: exact(a) * v for k, v in self._d.items()}))

    def _with(self, d, rows=None, cols=None):
        out = TupleMatrix(self.rows if rows is None else rows,
                          self.cols if cols is None else cols, {})
        out._d = d
        return out

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeMismatch("%d columns times %d rows"
                                % (self.cols, other.rows))
        rows_of_b = {}
        for (k, j), v in other._d.items():
            rows_of_b.setdefault(k, []).append((j, v))
        d = {}
        for (i, k), a in self._d.items():
            for j, b in rows_of_b.get(k, ()):
                d[(i, j)] = d.get((i, j), 0) + a * b
        return self._with(_tidy_entries(d), cols=other.cols)

    def apply(self, vec):
        out = [0] * self.rows
        for (i, j), v in self._d.items():
            if vec[j]:
                out[i] += v * vec[j]
        return tuple(out)

    def transpose(self):
        return self._with({(j, i): v for (i, j), v in self._d.items()},
                          self.cols, self.rows)

    @staticmethod
    def from_blocks(rows, cols, placed):
        d = {}
        for r, c, m in placed:
            if r < 0 or c < 0 or r + m.rows > rows or c + m.cols > cols:
                raise ValueError("a block does not fit")
            for (i, j), v in m._d.items():
                d[(r + i, c + j)] = d.get((r + i, c + j), 0) + v
        return TupleMatrix(rows, cols, {})._with(_tidy_entries(d))

    def kron(self, other):
        d = {(i * other.rows + k, j * other.cols + l): a * b
             for (i, j), a in self._d.items()
             for (k, l), b in other._d.items()}
        return self._with(_tidy_entries(d), self.rows * other.rows,
                          self.cols * other.cols)

    def _lines(self, by_rows, cleared=()):
        """The rows {col: int} (or the columns {rows - 1 - i: int} not in
        cleared, zero ones too) as primitive integer lines."""
        lines = {} if by_rows else \
            {j: {} for j in range(self.cols) if j not in cleared}
        for (i, j), v in self._d.items():
            if by_rows:
                lines.setdefault(i, {})[j] = v
            elif j in lines:
                lines[j][self.rows - 1 - i] = v
        out = []
        for line in lines.values():
            if line:
                den = lcm(*(Fraction(v).denominator for v in line.values()))
                line = {k: int(v * den) for k, v in line.items()}
                g = gcd(*line.values())
                line = {k: x // g for k, x in line.items()}
            out.append(line)
        return out

    def _echelon(self):
        return _row_echelon(self._lines(True))

    def _trailing_rows(self, cleared=frozenset()):
        return frozenset(self.rows - 1 - c
                         for c in _row_echelon(self._lines(False, cleared)))

    def rank(self):
        return len(self._echelon())

    def _kernel_columns(self, free):
        """Back-substitution over the echelon rows, as `linalg` did it on
        the tuple-keyed layout."""
        echelon = self._echelon()
        x = {j: {k: 1} for k, j in enumerate(free)}
        for c in sorted(echelon, reverse=True):
            row, acc = echelon[c], {}
            for col, v in row.items():
                for k, y in x.get(col, {}).items():
                    acc[k] = acc.get(k, 0) + v * y
            solved = {k: exact(Fraction(-s, row[c]))
                      for k, s in acc.items() if s}
            if solved:
                x[c] = solved
        return TupleMatrix(self.cols, len(free), {
            (i, k): v for i, column in x.items() for k, v in column.items()})

    def kernel(self):
        """The kernel columns at every free column, as a TupleMatrix."""
        pivots = self._echelon()
        return self._kernel_columns([j for j in range(self.cols)
                                     if j not in pivots])

    def solve_many(self, rhs):
        n = self.cols
        combined = TupleMatrix.from_blocks(self.rows, n + rhs.cols,
                                           [(0, 0, self), (0, n, rhs)])
        if any(c >= n for c in combined._echelon()):
            return None
        x = combined._kernel_columns(range(n, n + rhs.cols))
        return TupleMatrix(n, rhs.cols, {(i, j): -v for (i, j), v
                                         in x._d.items() if i < n})


def tuple_submatrix(mat, row_idx, col_idx):
    """`linalg.submatrix` of a TupleMatrix."""
    rpos = {r: i for i, r in enumerate(row_idx)}
    cpos = {c: j for j, c in enumerate(col_idx)}
    return TupleMatrix(len(row_idx), len(col_idx), {
        (rpos[i], cpos[j]): v for (i, j), v in mat._d.items()
        if i in rpos and j in cpos})


def tuple_cohomology(d_in, d_out):
    """`linalg.cohomology` on TupleMatrix differentials, step for step as it
    ran on the tuple-keyed layout: the full product check, T_in and T_out
    with clearing, and the representatives from the rows at T_out."""
    if not (d_out @ d_in).is_zero():
        raise ComplexViolation("composite of differentials is not zero")
    t_in = d_in._trailing_rows()
    t_out = d_out._trailing_rows(t_in)
    betti = d_out.cols - len(t_in) - len(t_out)
    if not betti:
        return 0, []
    rows_at = TupleMatrix(d_out.rows, d_out.cols, {
        k: v for k, v in d_out._d.items() if k[0] in t_out})
    pivots = rows_at._echelon()
    if len(pivots) != len(t_out) or not t_in.isdisjoint(pivots):
        raise VerificationFailed("the rows at T_out do not fit")
    chosen = [j for j in range(d_out.cols)
              if j not in pivots and j not in t_in]
    reps = rows_at._kernel_columns(chosen)
    return betti, [reps.column(k) for k in range(betti)]


def kron_hoch_differential(algebra, bimodule, n):
    """The Hochschild differential C^n(A, M) -> C^{n+1}(A, M) as the sum of
    Kronecker products of vec(L X R) = (R^T (x) L) vec X (d = dim A, m =
    dim M, mu the multiplication matrix):

        vstack_a(1_{d^n} (x) L_a)
        + sum_i 1_{d^{i-1}} (x) (-1)^i mu^T (x) 1_{d^{n-i} m}
        + 1_{d^n} (x) (-1)^{n+1} vstack_a(R_a)."""
    d, m = algebra.dim, bimodule.dim
    one = RatMatrix.identity
    out = RatMatrix.vstack([one(d ** n).kron(left) for left in bimodule.left])
    mu_t = algebra.mult_matrix().transpose()
    for i in range(1, n + 1):
        interior = one(d ** (i - 1)).kron(mu_t.scale((-1) ** i))
        out = out + interior.kron(one(d ** (n - i) * m))
    right = RatMatrix.vstack(bimodule.right).scale((-1) ** (n + 1))
    return out + one(d ** n).kron(right)


def cochain_value(phi, word):
    """phi(word): the column of the cochain matrix at the word's index."""
    return phi.matrix.column(word_index(word, phi.algebra.dim))


def compose_homs(outer, inner):
    """outer after inner, for algebra maps inner: A -> B and outer: B -> C
    (InvalidStructure unless inner lands where outer starts)."""
    if inner.target.dim != outer.source.dim:
        raise InvalidStructure("cannot compose: the inner map lands in "
                               "dim %d, the outer one starts in dim %d"
                               % (inner.target.dim, outer.source.dim))
    return AlgebraHom(inner.source, outer.target,
                      outer.matrix @ inner.matrix, check=False)


def opposite_hom(f):
    """The same linear map as f: A -> B, viewed A^op -> B^op."""
    return AlgebraHom(f.source.opposite(), f.target.opposite(), f.matrix)


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
            if not all(contains(ker, eps.column(j)) for j in range(a_dim)):
                raise VerificationFailed(
                    "the image of A(%s) is not in the kernel of phi^0" % u)
            out[u] = ker.dim
        return out


def op_cochain(phi):
    """The opposite cochain over (A^op, M^op): reverse the arguments and
    multiply by the degree sign (identity in degree 1, swap in degree 2,
    negated reversal in degree 3, ...).  M^op is M with its left and right
    actions swapped."""
    d, bim = phi.algebra.dim, phi.bimodule
    flat = op_matrix(phi.n, bim.dim, d).apply(flatten(phi.matrix))
    bim_op = FinBimodule(bim.right_algebra.opposite(),
                         bim.left_algebra.opposite(), bim.dim, bim.right,
                         bim.left, check=False)
    return HCochain(phi.algebra.opposite(), bim_op, phi.n,
                    unflatten(flat, bim.dim, d ** phi.n))


def algebra_deformation_equivalence(algebra, m1, m1_prime, g1_matrix):
    """Check that 1 + g1*eps is an isomorphism (A[eps], m + m1 eps) ->
    (A[eps], m + m1' eps), and the cochain identity d(g1) = m1 - m1' with
    g1 normalized; both verdicts are returned for cross-checking."""
    g_block = eps_block(RatMatrix.identity(algebra.dim), g1_matrix)
    g_hom = AlgebraHom(algebra.dual_extension(m1),
                       algebra.dual_extension(m1_prime), g_block, check=False)
    axiom_verdict = g_hom.is_multiplicative() and g_hom.is_unital()

    bim = FinBimodule.regular(algebra)
    g1 = HCochain(algebra, bim, 1, g1_matrix)
    cochain_verdict = is_normalized(g1) and \
        d_hoch(g1).matrix == m1 - m1_prime
    return axiom_verdict, cochain_verdict


def cohomology_kinds(gs, n, kinds):
    """Betti numbers of the GS complex gs per subcomplex kind; the
    quasi-isomorphic flavours (everything except the truncations) must
    agree, and that agreement is the numeric witness (VerificationFailed
    otherwise)."""
    out = {kind: gs.cohomology(n, kind)[0] for kind in kinds}
    witness = {out[k] for k in kinds if "truncated" not in k}
    if len(witness) > 1:
        raise VerificationFailed(
            "quasi-isomorphism witness failed at degree %d: %s" % (n, out))
    return out


def element_difference(a, b):
    """a - b in the group algebra QS_n."""
    return a + b.scale(-1)


def element_is_zero(x):
    """True iff the group algebra element x is 0: it keeps no term with a
    zero coefficient."""
    return not x.terms


def eulerian_idempotent(n, r):
    """e_n(r) with the boundary conventions e_n(0) = 0 for n >= 1,
    e_n(r) = 0 for r > n, and e_0(0) = 1."""
    if n == 0:
        return GroupAlgebraElement.one(0) if r == 0 \
            else GroupAlgebraElement.zero(0)
    if r < 1 or r > n:
        return GroupAlgebraElement.zero(n)
    return eulerian_idempotents(n)[r - 1]


def project_json(category_block, algebras, presheaf, algebra_names,
                 cochains=None, modules=None, data=None):
    """The project file of a presheaf, with its optional named blocks."""
    out = {
        "schema": SCHEMA,
        "category": category_block,
        "algebras": {name: algebra_json(alg)
                     for name, alg in algebras.items()},
        "presheaf": presheaf_json(presheaf, algebra_names),
    }
    if cochains:
        out["cochains"] = cochains
    if modules:
        out["modules"] = modules
    if data:
        out["data"] = data
    return out
