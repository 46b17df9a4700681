"""Exact linear algebra over Q.

Every entry is an exact rational held in one exact type per value: an int
when the value is integral, else a Fraction (`exact`).  Structure
constants, restriction maps, signs and identity or permutation blocks are
almost all integers, and int arithmetic skips the dispatch, gcd and
allocation of a Fraction.  Every result is exact, so no rounding ever
happens.  Matrices are immutable after construction and are held
sparsely, as a dict of their nonzero entries.

Ranks, pivot columns, kernels, solutions and inverses all come from one
sparse integer elimination.  Each row is scaled to a primitive integer row
{col: int}; rows are reduced one at a time against an echelon basis keyed
by leading column, and a combination touches only the nonzeros of the two
rows it combines and is divided by its content again.  Back-substitution
gives the reduced row echelon form (RREF), divided by the leading entries
only at the end.  Columns are eliminated in order, so the pivot columns are
the canonical ones and the RREF, the kernel bases read off it and the
cohomology representatives do not depend on row order.  A matrix keeps its
echelon form and its RREF once computed, so every query on the same matrix
eliminates it at most once.

A set of vectors is held as the columns of one sparse RatMatrix: a kernel
basis is read off the RREF straight into such a matrix, a Subspace holds
one, and `cohomology` picks its representatives among the columns of the
kernel matrix.  Vectors become dense tuples only where they are returned:
the chosen representatives, and `Subspace.basis` when it is read.

`RatMatrix.from_blocks` is the one routine that places blocks: it sums
(row offset, column offset, block) triples into one matrix, adding entries
where blocks overlap.  `hstack`, `vstack`, `block`, `block_diag` and `+`
call it, and so do the cochain maps of the simplicial, slice and Cech
complexes, which are built per simplex or per tuple from restriction and
identity blocks.

`cohomology` is the one place where cohomology is computed.  The
Hochschild, simplicial, Cech and total complexes reach it through
`subcomplex_cohomology`, for the whole complex or for a subcomplex spanned
by coordinates; the Hodge summands of the total complex hand it their
restricted differentials (`gs.GSComplex.hodge_cohomology`).
"""

from fractions import Fraction
from functools import wraps
from itertools import accumulate
from math import gcd, lcm


class ComplexViolation(Exception):
    """Raised when two maps that should compose to zero do not."""


class NotASubcomplex(Exception):
    """Raised when a differential leaks out of a proposed subcomplex."""


class DependentBasis(ValueError):
    """Raised when the vectors given as a basis are linearly dependent."""


class ShapeMismatch(ValueError):
    """Raised when a system, a basis, a pair of differentials or a reshape
    is given operands whose dimensions do not fit."""


class VerificationFailed(Exception):
    """Raised when an exact identity the library checks does not hold."""


class UsageError(Exception):
    """Raised when a valid input asks for something the library does not
    do: a Hodge splitting of a noncommutative presheaf (`gs.NotCommutative`)
    or a full Cech complex with too many tuples (`cech.TooManyTuples`).
    The CLI reports it as bad input without loading either module."""


def memo(key=None):
    """Memoise a method in a dict `_memo_<method>` of each instance, which
    dies with it (`functools.cache` would keep every instance alive).  The
    key is the positional arguments, or key(self, *args, **kwargs); every
    caller shares a result, which is never mutated."""
    def decorate(method):
        name = "_memo_" + method.__name__
        key_of = key or (lambda self, *args: args)

        @wraps(method)
        def memoised(self, *args, **kwargs):
            table = self.__dict__.setdefault(name, {})
            k = key_of(self, *args, **kwargs)
            if k not in table:
                table[k] = method(self, *args, **kwargs)
            return table[k]
        return memoised
    return decorate


# the subcomplexes of the total complex that `gs.GSComplex` computes; kept
# here so that the CLI can list them without loading `gs`
KINDS = ("full", "normalized", "normalized_reduced", "truncated",
         "truncated_normalized_reduced")
# the --kind values of each complex of `gscohom cohomology`
COMPLEX_KINDS = {"hoch": ("full", "normalized"), "simp": ("full", "reduced"),
                 "cech": ("full", "alternating"), "gs": KINDS}


def exact(x):
    """x as an int when it is integral, else as a Fraction in lowest terms.

    Every entry a RatMatrix stores has passed through here or was computed
    from such entries and normalised the same way (`_tidy`).  An int and
    the Fraction of the same value are equal and hash equally, so equality
    and hashing of matrices and of the memo keys built from them do not
    depend on the type an entry was given in."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _tidy(d):
    """Normalise, in place, a dict of entries computed as sums or products
    of exact values: a Fraction that became integral becomes an int and a
    sum that cancelled is dropped.  Returns d."""
    zeros = []
    for k, v in d.items():
        if type(v) is not int:
            if v.denominator != 1:
                continue
            v = d[k] = v.numerator
        if not v:
            zeros.append(k)
    for k in zeros:
        del d[k]
    return d


def _integral(m):
    """True iff every entry of the matrix m is an int."""
    return all(type(v) is int for v in m._d.values())


class RatMatrix:
    """Immutable rows x cols matrix over Q, held sparsely as a dict
    {(i, j): nonzero entry}.  Each entry is stored in its one exact type
    (`exact`): an int when integral, else a Fraction."""

    __slots__ = ("rows", "cols", "_d", "_ech", "_red", "_hash")

    def __init__(self, rows, cols, entries):
        """`entries` is a dict {(i, j): value} or a list of rows; values may
        be ints, Fractions or anything Fraction accepts."""
        assert rows >= 0 and cols >= 0
        self.rows = rows
        self.cols = cols
        self._ech = self._red = None     # elimination caches, see _echelon
        self._hash = None                # see __hash__
        if not isinstance(entries, dict):
            entries = {(i, j): v for i, row in enumerate(entries)
                       for j, v in enumerate(row)}
        d = {}
        for k, v in entries.items():
            v = exact(v)
            if v:
                d[k] = v
        self._d = d

    @classmethod
    def _trusted(cls, rows, cols, d):
        """The matrix whose entry dict is d itself, with no pass over it:
        every value of d must be nonzero and already exact (`exact(v) is
        v`), and nothing may change d afterwards."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._d = d
        m._ech = m._red = m._hash = None
        return m

    # -- constructors

    @staticmethod
    def zeros(rows, cols):
        return RatMatrix._trusted(rows, cols, {})

    @staticmethod
    def identity(n):
        return RatMatrix._trusted(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def from_rows(rows_list):
        r = len(rows_list)
        c = len(rows_list[0]) if r else 0
        for row in rows_list:
            assert len(row) == c, "ragged rows"
        return RatMatrix(r, c, rows_list)

    @staticmethod
    def from_cols(cols_list, ambient=None):
        c = len(cols_list)
        r = len(cols_list[0]) if c else (ambient or 0)
        d = {}
        for j, col in enumerate(cols_list):
            assert len(col) == r
            for i, v in enumerate(col):
                v = exact(v)
                if v:
                    d[(i, j)] = v
        return RatMatrix._trusted(r, c, d)

    # -- access

    def __getitem__(self, ij):
        i, j = ij
        assert 0 <= i < self.rows and 0 <= j < self.cols
        return self._d.get((i, j), 0)

    def items(self):
        """Iterate nonzero entries as ((i, j), value), in row-major order."""
        return iter(sorted(self._d.items()))

    def to_rows(self):
        mat = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self._d.items():
            mat[i][j] = v
        return mat

    def column(self, j):
        assert 0 <= j < self.cols
        return tuple(self._d.get((i, j), 0) for i in range(self.rows))

    def nnz(self):
        return len(self._d)

    def is_zero(self):
        return not self._d

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self._d == other._d

    def __hash__(self):
        """Computed once: a matrix is never changed after construction.
        Equal matrices have equal shapes and entry dicts, so equal hashes."""
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, tuple(self.items())))
        return self._hash

    def __repr__(self):
        return "RatMatrix(%d x %d, %d nonzero)" % (self.rows, self.cols, self.nnz())

    # -- arithmetic

    def __add__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return RatMatrix.from_blocks(self.rows, self.cols,
                                     [(0, 0, self), (0, 0, other)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RatMatrix._trusted(self.rows, self.cols,
                                  {k: -v for k, v in self._d.items()})

    def scale(self, a):
        a = exact(a)
        if a == 1:
            return self
        if a == -1:
            return -self
        return RatMatrix._trusted(self.rows, self.cols, _tidy(
            {k: a * v for k, v in self._d.items()}))

    def __matmul__(self, other):
        assert self.cols == other.rows, (self.cols, other.rows)
        rows_of_b = {}
        for (k, j), v in other._d.items():
            rows_of_b.setdefault(k, []).append((j, v))
        d = {}
        for (i, k), a in self._d.items():
            for j, b in rows_of_b.get(k, ()):
                key = (i, j)
                d[key] = d.get(key, 0) + a * b
        return RatMatrix._trusted(self.rows, other.cols, _tidy(d))

    def apply(self, vec):
        """Matrix times column vector (a tuple of exact numbers)."""
        assert len(vec) == self.cols
        out = [0] * self.rows
        for (i, j), v in self._d.items():
            if vec[j]:
                out[i] += v * vec[j]
        return tuple(out)

    def transpose(self):
        return RatMatrix._trusted(self.cols, self.rows,
                                  {(j, i): v for (i, j), v in self._d.items()})

    @staticmethod
    def from_blocks(rows, cols, placed):
        """The rows x cols sum of the placed blocks: a triple (r, c, block)
        puts block[i, j] at (r + i, c + j).  Where blocks overlap their
        entries add, and entries that cancel are dropped.  Every block must
        lie inside the matrix.

        A block that overlaps no earlier one is copied as it is, its entries
        being exact already; only the entries that were summed are
        normalised."""
        d = {}
        for r, c, m in placed:
            if r < 0 or c < 0 or r + m.rows > rows or c + m.cols > cols:
                raise ValueError("a %d x %d block at (%d, %d) does not fit "
                                 "a %d x %d matrix"
                                 % (m.rows, m.cols, r, c, rows, cols))
            blk = {(r + i, c + j): v for (i, j), v in m._d.items()} \
                if r or c else m._d
            if d.keys().isdisjoint(blk.keys()):
                d.update(blk)
                continue
            for key, v in blk.items():
                if key not in d:
                    d[key] = v
                    continue
                v = d[key] + v
                if type(v) is not int:
                    v = exact(v)
                if v:
                    d[key] = v
                else:
                    del d[key]
        return RatMatrix._trusted(rows, cols, d)

    @staticmethod
    def hstack(mats):
        assert all(m.rows == mats[0].rows for m in mats)
        offs = list(accumulate([m.cols for m in mats], initial=0))
        return RatMatrix.from_blocks(mats[0].rows, offs[-1],
                                     [(0, c, m) for c, m in zip(offs, mats)])

    @staticmethod
    def vstack(mats):
        assert all(m.cols == mats[0].cols for m in mats)
        offs = list(accumulate([m.rows for m in mats], initial=0))
        return RatMatrix.from_blocks(offs[-1], mats[0].cols,
                                     [(r, 0, m) for r, m in zip(offs, mats)])

    @staticmethod
    def block(grid):
        """Assemble from a 2d grid of blocks (None = zero block of fitting
        size)."""
        heights = [next(m.rows for m in row if m is not None) for row in grid]
        widths = [next(row[j].cols for row in grid if row[j] is not None)
                  for j in range(len(grid[0]))]
        row_offs = list(accumulate(heights, initial=0))
        col_offs = list(accumulate(widths, initial=0))
        placed = []
        for i, row in enumerate(grid):
            for j, m in enumerate(row):
                if m is not None:
                    assert (m.rows, m.cols) == (heights[i], widths[j])
                    placed.append((row_offs[i], col_offs[j], m))
        return RatMatrix.from_blocks(row_offs[-1], col_offs[-1], placed)

    @staticmethod
    def block_diag(mats):
        """The blocks, rectangular ones too, placed in order down the
        diagonal: block k occupies the rows after the rows of blocks < k
        and the columns after their columns."""
        rows = list(accumulate([m.rows for m in mats], initial=0))
        cols = list(accumulate([m.cols for m in mats], initial=0))
        return RatMatrix.from_blocks(rows[-1], cols[-1],
                                     list(zip(rows, cols, mats)))

    def kron(self, other):
        """The Kronecker product: self[i, j] * other[k, l] at
        (i * other.rows + k, j * other.cols + l).  Products of nonzero
        entries are nonzero, and of ints are ints, so only a product with a
        Fraction factor needs normalising."""
        rows, cols = other.rows, other.cols
        entries = list(other._d.items())
        d = {}
        for (i, j), a in self._d.items():
            ri, cj = i * rows, j * cols
            for (k, l), b in entries:
                d[(ri + k, cj + l)] = a * b
        if not (_integral(self) and _integral(other)):
            _tidy(d)
        return RatMatrix._trusted(self.rows * rows, self.cols * cols, d)

    def kron_power(self, q):
        out = RatMatrix.identity(1)
        for _ in range(q):
            out = out.kron(self)
        return out

    # -- elimination

    def _integer_rows(self):
        """The nonzero rows as primitive integer rows {col: int}: each row
        times the lcm of its denominators, divided by the gcd of its
        entries, so that it spans the same line as the row it comes from."""
        by_row = {}
        for (i, j), v in self._d.items():
            row = by_row.get(i)
            if row is None:
                by_row[i] = {j: v}
            else:
                row[j] = v
        integral = _integral(self)
        out = []
        for row in by_row.values():
            if not integral:
                den = lcm(*(v.denominator for v in row.values()))
                row = {j: v.numerator * (den // v.denominator)
                       for j, v in row.items()}
            out.append(_primitive(row))
        return out

    def _echelon(self):
        """{leading column: primitive integer row}, an echelon basis of the
        row space; computed on the first call and kept (the matrix is
        immutable).  Its keys are the pivot columns."""
        if self._ech is None:
            self._ech = _row_echelon(self._integer_rows())
        return self._ech

    def _rref(self):
        """The reduced row echelon form over Q as {pivot column: row as
        {col: exact entry}}, pivots ascending; computed on the first call and
        kept."""
        if self._red is None:
            self._red = _reduced_rows(self._echelon())
        return self._red

    def rank(self):
        return len(self._echelon())

    def pivot_columns(self):
        return sorted(self._echelon())

    def kernel(self):
        """Basis of {v : M v = 0} as a Subspace of dimension cols - rank,
        read straight off the RREF into one cols x (cols - rank) matrix:
        column k, for the k-th free column j, has 1 at row j and minus
        column j of the RREF at the pivot rows."""
        pivots = set(self.pivot_columns())
        free = {j: k for k, j in enumerate(
            j for j in range(self.cols) if j not in pivots)}
        entries = {(j, k): 1 for j, k in free.items()}
        for c, row in self._rref().items():
            for j, x in row.items():
                if j != c:
                    entries[(c, free[j])] = -x
        return Subspace._from_rref(
            RatMatrix._trusted(self.cols, len(free), entries))

    def solve(self, b):
        """Some x with M x = b, or None if the system is inconsistent."""
        if len(b) != self.rows:
            raise ShapeMismatch("a right-hand side of length %d for %d rows"
                                % (len(b), self.rows))
        x = self.solve_many(RatMatrix.from_cols([b], ambient=self.rows))
        return None if x is None else x.column(0)

    def solve_many(self, rhs):
        """X with M X = rhs (columnwise), or None; one elimination of
        [M | rhs], whose RREF holds X in its pivot rows."""
        if rhs.rows != self.rows:
            raise ShapeMismatch("a right-hand side of %d rows for %d rows"
                                % (rhs.rows, self.rows))
        n = self.cols
        rref = RatMatrix.hstack([self, rhs])._rref()
        if any(c >= n for c in rref):
            return None
        return RatMatrix._trusted(n, rhs.cols, {
            (c, j - n): v for c, row in rref.items()
            for j, v in row.items() if j >= n})

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self):
        """M^-1, or None: M X = 1 is consistent iff M is invertible."""
        if self.rows != self.cols:
            raise ShapeMismatch("a %d x %d matrix has no inverse"
                                % (self.rows, self.cols))
        return self.solve_many(RatMatrix.identity(self.rows))


def _primitive(row):
    """An integer row {col: int} divided by the gcd of its entries."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {k: x // g for k, x in row.items()}


def _combine(v, b, c):
    """The primitive part of p*v - f*b, where f/p = v[c]/b[c] in lowest
    terms, so that the result is zero at column c.  Only the columns of v
    and b are touched."""
    p, f = b[c], v[c]
    g = gcd(p, f)
    p, f = p // g, f // g
    out = {k: p * x for k, x in v.items()} if p != 1 else dict(v)
    for k, y in b.items():
        x = out.get(k, 0) - f * y
        if x:
            out[k] = x
        else:
            del out[k]
    return _primitive(out)


def _row_echelon(rows):
    """An echelon basis {leading column: primitive integer row} of the span
    of the integer rows.

    Each row is reduced against the basis built so far: while its leading
    column c is the leading column of a basis row b, it is replaced by the
    primitive combination of itself and b that vanishes at c.  It either
    becomes zero or joins the basis under a new leading column.  The set of
    leading columns of any echelon basis of a row space is the set of its
    RREF pivot columns, so the keys do not depend on the order of the rows;
    the rows are taken shortest first, which keeps the basis sparse.
    """
    basis = {}
    for v in sorted(rows, key=len):
        while v:
            c = min(v)
            b = basis.get(c)
            if b is None:
                basis[c] = v
                break
            v = _combine(v, b, c)
    return basis


def _reduced_rows(basis):
    """RREF from an echelon basis: {pivot column: {col: exact entry}},
    pivots ascending, with 1 at the row's pivot and 0 at every other pivot.

    Rows are reduced from the last pivot back: a row with leading column c
    has nonzeros at pivot columns k > c only, and subtracting the already
    reduced row of k clears k without touching another pivot column.  The
    rows stay integral until the final division by the leading entry, which
    gives an int wherever the leading entry divides.
    """
    reduced = {}
    for c in sorted(basis, reverse=True):
        v = basis[c]
        for k in [k for k in v if k in reduced]:
            v = _combine(v, reduced[k], k)
        reduced[c] = v
    out = {}
    for c, v in sorted(reduced.items()):
        lead = v[c]
        out[c] = v if lead == 1 else {
            k: x // lead if x % lead == 0 else Fraction(x, lead)
            for k, x in v.items()}
    return out


class Subspace:
    """A linear subspace of Q^ambient_dim, held as the sparse matrix whose
    independent columns are its basis."""

    __slots__ = ("_m",)

    def __init__(self, ambient_dim, basis):
        """Raises DependentBasis unless the vectors are independent, and
        ShapeMismatch unless each has ambient_dim coordinates."""
        basis = list(basis)
        for v in basis:
            if len(v) != ambient_dim:
                raise ShapeMismatch("a vector of length %d in Q^%d"
                                    % (len(v), ambient_dim))
        self._m = RatMatrix.from_cols(basis, ambient=ambient_dim)
        if self._m.rank() != self._m.cols:
            raise DependentBasis("basis vectors are dependent")

    @classmethod
    def _from_rref(cls, matrix):
        """The Subspace spanned by the columns of a kernel basis read off an
        RREF, without the rank check of __init__.

        Such a basis is independent by construction: there is one column
        per free column of the RREF, and column k has 1 at the k-th free
        column and 0 at every other free column (its other nonzeros sit at
        pivot columns).  Restricted to the free coordinates the columns are
        those of an identity matrix, so no nontrivial combination of them
        vanishes.
        """
        space = object.__new__(cls)
        space._m = matrix
        return space

    @property
    def ambient_dim(self):
        return self._m.rows

    @property
    def dim(self):
        return self._m.cols

    @property
    def basis(self):
        """The basis vectors as dense tuples of exact numbers."""
        return tuple(self._m.column(k) for k in range(self.dim))

    def matrix(self):
        return self._m

    def contains(self, v):
        return self._m.solve(tuple(v)) is not None

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.ambient_dim)


def cohomology(d_in, d_out):
    """Cohomology at the middle of  . --d_in--> . --d_out--> .

    Checks d_out . d_in = 0, then returns (betti, representatives): the
    dimension ker(d_out)/im(d_in) together with kernel vectors spanning a
    complement of the image inside the kernel.
    """
    if d_in.rows != d_out.cols:
        raise ShapeMismatch("d_in has %d rows but d_out %d columns"
                            % (d_in.rows, d_out.cols))
    if not (d_out @ d_in).is_zero():
        raise ComplexViolation("composite of differentials is not zero")
    kernel = d_out.kernel().matrix()
    # columns: the pivot columns of d_in (a basis of its image), then the
    # kernel basis; the pivot columns among the latter complete the image
    image = submatrix(d_in, range(d_in.rows), d_in.pivot_columns())
    r = image.cols
    combined = RatMatrix.hstack([image, kernel])
    reps = [kernel.column(c - r) for c in combined.pivot_columns() if c >= r]
    betti = kernel.cols - r
    if betti != len(reps):
        raise VerificationFailed(
            "dim ker - rank im = %d, but %d representatives complete the "
            "image" % (betti, len(reps)))
    return betti, reps


def submatrix(mat, row_idx, col_idx):
    """The rows row_idx and columns col_idx of mat, in the given orders."""
    rpos = {r: i for i, r in enumerate(row_idx)}
    cpos = {c: j for j, c in enumerate(col_idx)}
    entries = {}
    for (i, j), v in mat._d.items():
        if i in rpos and j in cpos:
            entries[(rpos[i], cpos[j])] = v
    return RatMatrix._trusted(len(row_idx), len(col_idx), entries)


def is_closed(d, src, tgt):
    """True iff d maps the span of the coordinates src into the span of
    the coordinates tgt: no nonzero d[i, j] has j in src and i outside
    tgt."""
    src, tgt = set(src), set(tgt)
    return all(i in tgt for i, j in d._d if j in src)


def subcomplex_cohomology(differential, n, keep=None, check=None):
    """H^n of a cochain complex, or of a subcomplex: (betti, representatives).

    differential(m) is the matrix of d: C^m -> C^{m+1}.  With keep=None the
    whole complex is taken.  Otherwise keep(m) is the list of coordinates
    that span the subcomplex in degree m, and the subcomplex must be closed
    under d^{n-1} and d^n.  Each of the two is checked once, by is_closed,
    or by check(m) when the caller names its own check (which must raise
    NotASubcomplex itself); d^m is then the submatrix on the kept
    coordinates, and a leak raises NotASubcomplex.  The representatives
    are returned in the coordinates of C^n.
    """
    keeps = {} if keep is None else \
        {m: keep(m) for m in (n - 1, n, n + 1) if m >= 0}

    def restricted(m, d):
        src, tgt = keeps.get(m), keeps.get(m + 1)
        if src is None:
            return d
        if check is not None:
            check(m)
        elif not is_closed(d, src, tgt):
            raise NotASubcomplex("d^%d leaves the subcomplex" % m)
        return submatrix(d, tgt, src)

    d_n = differential(n)
    d_out = restricted(n, d_n)
    d_in = restricted(n - 1, differential(n - 1)) if n >= 1 else \
        RatMatrix.zeros(d_out.cols, 0)
    betti, reps = cohomology(d_in, d_out)
    keep_n = keeps.get(n)
    if keep_n is not None:
        placed = [dict(zip(keep_n, v)) for v in reps]
        reps = [tuple(p.get(pos, 0) for pos in range(d_n.cols))
                for p in placed]
    return betti, reps


def vec_operator(left, right):
    """The matrix of X -> left X right acting on vec X, left (x) right^T.

    vec flattens a matrix row-major: entry (i, j) of an n x m matrix sits at
    coordinate i*m + j, the index convention of `RatMatrix.kron`.  So
    vec(left X right) = (left (x) right^T) vec X, and in particular
    vec(X a) = (1 (x) a^T) vec X and vec(b X) = (b (x) 1) vec X.
    """
    return left.kron(right.transpose())


def reshape(mat, rows, cols):
    """The rows x cols matrix with the same row-major entry sequence as mat:
    reshape(X, n*m, 1) is vec X, and reshape(v, n, m) undoes it."""
    if rows * cols != mat.rows * mat.cols:
        raise ShapeMismatch("a %d x %d matrix cannot be reshaped to %d x %d"
                            % (mat.rows, mat.cols, rows, cols))
    return RatMatrix._trusted(rows, cols, {divmod(i * mat.cols + j, cols): v
                                           for (i, j), v in mat._d.items()})

def unit_vector(n, i):
    return tuple(1 if j == i else 0 for j in range(n))

def zero_vector(n):
    return (0,) * n
