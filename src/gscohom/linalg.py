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
rows it combines and is divided by its content again.  Every answer is
read off the echelon basis the same way (`RatMatrix._kernel_columns`):
back-substitution from the last leading column back gives the kernel
vectors with 1 at one chosen free column and 0 at the other free columns.
A kernel basis is those vectors at every free column; a solution of
M X = B is minus the top of those at the columns of B in [M | B]; a
cohomology representative is one of them; and the projection onto a
tensor quotient is read off them (`algebra.quotient_by_columns`).  Columns
are eliminated in order, so the pivot columns are the canonical ones, and
the kernel bases, solutions and representatives do not depend on row
order.  A matrix keeps its echelon form once computed, so every query on
the same matrix eliminates it at most once.

A set of vectors is held as the columns of one sparse RatMatrix: kernel
vectors are back-substituted straight into such a matrix, and a Subspace
holds one.  Vectors become dense tuples only where they are returned: the
chosen representatives, and `Subspace.basis` when it is read.

`RatMatrix.from_blocks` is the one routine that places blocks: it sums
(row offset, column offset, block) triples into one matrix, adding entries
where blocks overlap.  `hstack`, `vstack`, `block`, `block_diag` and `+`
call it, and so do the slice and Cech cochain maps.  The differentials of
the complexes write their entries straight into one dict instead: the
Hochschild differential by the word rule (`hochschild.hoch_differential`),
the simplicial one at the faces' positions in the nerve's face table
(`simplicial.PairComplex`), and the total differential both, at the
offsets of its cells (`gs.GSComplex.differential`).

`cohomology` is the one place where cohomology is computed.  The
Hochschild, simplicial, Cech and total complexes reach it through
`subcomplex_cohomology`, for the whole complex or for a subcomplex spanned
by coordinates; the Hodge summands of the total complex hand it their
restricted differentials (`gs.GSComplex.hodge_cohomology`).  It eliminates
d_out once and the image on the free columns of d_out once, and picks as
representatives the kernel vectors that complete the image, leftmost
first; `algebra.quotient_by_columns` picks the complement of the relations
of a tensor quotient by the same rule, in one elimination that also gives
its projection.

The one vec convention is column-major (`flatten`, `unflatten`), so that
vec(L X R) = (R^T (x) L) vec X (`vec_operator`): cochains are flattened so,
and linear conditions on an unknown matrix are solved on its flattening.
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
    """Raised when a matrix operation, a system, a basis, a pair of
    differentials or an unflattening is given operands whose dimensions do
    not fit."""


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
    caller shares a result, which is never mutated.

    Only methods of objects that never change are memoised, so a result
    never goes stale.  A hit costs two dict reads (the table, then the
    entry), and a call of `key` when one is given; a miss calls the method
    outside the lookup's `except`, so an error it raises carries no
    KeyError context, and then stores the result, making the table on the
    first miss.  Keys built from exact entries (`exact`) make an int and
    the equal Fraction one key."""
    def decorate(method):
        name = "_memo_" + method.__name__

        if key is None:
            # the positional arguments are the key, with no call to build it
            @wraps(method)
            def memoised(self, *args):
                try:
                    return self.__dict__[name][args]
                except KeyError:
                    pass
                value = method(self, *args)
                self.__dict__.setdefault(name, {})[args] = value
                return value
            return memoised

        @wraps(method)
        def memoised(self, *args, **kwargs):
            k = key(self, *args, **kwargs)
            try:
                return self.__dict__[name][k]
            except KeyError:
                pass
            value = method(self, *args, **kwargs)
            self.__dict__.setdefault(name, {})[k] = value
            return value
        return memoised
    return decorate


# the subcomplexes of the total complex that `gs.GSComplex` computes; kept
# here so that the CLI can list them without loading `gs`
KINDS = ("full", "normalized", "normalized_reduced", "truncated",
         "truncated_normalized_reduced")
# the --kind values of each complex of `gscohom cohomology`
COMPLEX_KINDS = {"hoch": ("full", "normalized"), "simp": ("full", "reduced"),
                 "cech": ("full", "alternating"), "gs": KINDS}
# how `shuffles` lets permutations act on cochains, as the CLI reports it
ACTION_CONVENTION = "inverse-place-permutation/signs-in-operator"


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
    """True iff every entry of the matrix m is an int; computed once per
    matrix, which never changes."""
    if m._int is None:
        m._int = all(type(v) is int for v in m._d.values())
    return m._int


# the identity matrices handed out so far, one shared instance per size
_IDENTITIES = {}


class RatMatrix:
    """Immutable rows x cols matrix over Q, held sparsely as a dict
    {(i, j): nonzero entry}.  Each entry is stored in its one exact type
    (`exact`): an int when integral, else a Fraction."""

    __slots__ = ("rows", "cols", "_d", "_ech", "_hash", "_int")

    def __init__(self, rows, cols, entries):
        """`entries` is a dict {(i, j): value} or a list of rows; values may
        be ints, Fractions or anything Fraction accepts.  An entry, zero or
        not, outside the shape raises ShapeMismatch."""
        if rows < 0 or cols < 0:
            raise ShapeMismatch("a matrix cannot be %d x %d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self._ech = None                 # elimination cache, see _echelon
        self._hash = self._int = None    # see __hash__ and _integral
        if not isinstance(entries, dict):
            entries = {(i, j): v for i, row in enumerate(entries)
                       for j, v in enumerate(row)}
        d = {}
        for k, v in entries.items():
            i, j = k
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch("an entry at (%d, %d) of a %d x %d matrix"
                                    % (i, j, rows, cols))
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
        m._ech = m._hash = m._int = None
        return m

    # -- constructors

    @staticmethod
    def zeros(rows, cols):
        return RatMatrix._trusted(rows, cols, {})

    @staticmethod
    def identity(n):
        """The n x n identity: one shared instance per n, as a matrix is
        never changed."""
        one = _IDENTITIES.get(n)
        if one is None:
            one = _IDENTITIES[n] = RatMatrix._trusted(
                n, n, {(i, i): 1 for i in range(n)})
        return one

    @staticmethod
    def from_rows(rows_list):
        r = len(rows_list)
        c = len(rows_list[0]) if r else 0
        if any(len(row) != c for row in rows_list):
            raise ShapeMismatch("ragged rows")
        return RatMatrix(r, c, rows_list)

    @staticmethod
    def from_cols(cols_list, ambient=None):
        c = len(cols_list)
        r = len(cols_list[0]) if c else (ambient or 0)
        d = {}
        for j, col in enumerate(cols_list):
            if len(col) != r:
                raise ShapeMismatch("columns of lengths %d and %d"
                                    % (r, len(col)))
            for i, v in enumerate(col):
                v = exact(v)
                if v:
                    d[(i, j)] = v
        return RatMatrix._trusted(r, c, d)

    # -- access

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%d, %d) of %r" % (i, j, self))
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
        if not 0 <= j < self.cols:
            raise IndexError("column %d of %r" % (j, self))
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
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("%r + %r" % (self, other))
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
        if self.cols != other.rows:
            raise ShapeMismatch("%r @ %r" % (self, other))
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
        if len(vec) != self.cols:
            raise ShapeMismatch("%r applied to %d coordinates"
                                % (self, len(vec)))
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
        if not mats or any(m.rows != mats[0].rows for m in mats):
            raise ShapeMismatch("hstack of %r" % (mats,))
        offs = list(accumulate([m.cols for m in mats], initial=0))
        return RatMatrix.from_blocks(mats[0].rows, offs[-1],
                                     [(0, c, m) for c, m in zip(offs, mats)])

    @staticmethod
    def vstack(mats):
        if not mats or any(m.cols != mats[0].cols for m in mats):
            raise ShapeMismatch("vstack of %r" % (mats,))
        offs = list(accumulate([m.rows for m in mats], initial=0))
        return RatMatrix.from_blocks(offs[-1], mats[0].cols,
                                     [(r, 0, m) for r, m in zip(offs, mats)])

    @staticmethod
    def block(grid):
        """Assemble from a 2d grid of blocks (None = zero block of fitting
        size); every row and every column needs a block that fixes its
        size."""
        heights = [next((m.rows for m in row if m is not None), None)
                   for row in grid]
        widths = [next((row[j].cols for row in grid if row[j] is not None),
                       None) for j in range(len(grid[0]) if grid else 0)]
        if not grid or None in heights + widths:
            raise ShapeMismatch("a block grid with an empty row or column: "
                                "%r" % (grid,))
        row_offs = list(accumulate(heights, initial=0))
        col_offs = list(accumulate(widths, initial=0))
        placed = []
        for i, row in enumerate(grid):
            for j, m in enumerate(row):
                if m is not None:
                    if (m.rows, m.cols) != (heights[i], widths[j]):
                        raise ShapeMismatch("%r in a %d x %d slot" % (
                            m, heights[i], widths[j]))
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

    def rank(self):
        return len(self._echelon())

    def pivot_columns(self):
        return sorted(self._echelon())

    def _kernel_columns(self, free):
        """The cols x len(free) matrix whose column k is the kernel vector
        with 1 at the column free[k] and 0 at every other free (non-pivot)
        column; `free` lists free columns.  Such a vector exists and is
        unique (`cohomology` has the proof), and back-substitution over the
        echelon rows gives it (`_back_substitute`): every answer read off
        an elimination is read off here."""
        return _back_substitute(self._echelon(), free, self.cols)

    def kernel(self):
        """Basis of {v : M v = 0} as a Subspace of dimension cols - rank:
        the kernel columns at the free columns, ascending."""
        pivots = set(self.pivot_columns())
        return Subspace._from_kernel_columns(self._kernel_columns(
            [j for j in range(self.cols) if j not in pivots]))

    def solve(self, b):
        """Some x with M x = b, or None if the system is inconsistent."""
        if len(b) != self.rows:
            raise ShapeMismatch("a right-hand side of length %d for %d rows"
                                % (len(b), self.rows))
        x = self.solve_many(RatMatrix.from_cols([b], ambient=self.rows))
        return None if x is None else x.column(0)

    def solve_many(self, rhs):
        """X with M X = rhs (columnwise), or None; one elimination of
        [M | rhs].  The system is consistent iff no pivot of [M | rhs] lies
        in rhs.  Then each column n + j of rhs is free, and its kernel
        column x (1 at n + j, 0 at the other free columns) gives
        M x' + rhs_j = 0 for x' its first n rows, so X_j = -x'."""
        if rhs.rows != self.rows:
            raise ShapeMismatch("a right-hand side of %d rows for %d rows"
                                % (rhs.rows, self.rows))
        n = self.cols
        combined = RatMatrix.hstack([self, rhs])
        if any(c >= n for c in combined._echelon()):
            return None
        x = combined._kernel_columns(range(n, n + rhs.cols))
        return RatMatrix._trusted(n, rhs.cols, {
            (i, j): -v for (i, j), v in x._d.items() if i < n})

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
    def _from_kernel_columns(cls, matrix):
        """The Subspace spanned by the kernel columns of a matrix at all its
        free columns (`RatMatrix._kernel_columns`), without the rank check
        of __init__.

        Such a basis is independent by construction: there is one column
        per free column, and column k has 1 at the k-th free column and 0
        at every other free column (its other nonzeros sit at pivot
        columns).  Restricted to the free coordinates the columns are those
        of an identity matrix, so no nontrivial combination of them
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

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.ambient_dim)


def cohomology(d_in, d_out):
    """Cohomology at the middle of  . --d_in--> . --d_out--> .

    Checks d_out . d_in = 0 (ComplexViolation), then returns (betti,
    representatives): betti = dim ker(d_out) - rank(d_in), and kernel
    vectors spanning a complement of the image inside the kernel.  It takes
    one echelon of d_out and one of the columns of d_in on the free columns
    of d_out, and reads the representatives off the first.

    Let P be the pivot columns of d_out, F the others (its free columns),
    and pi the projection onto the coordinates F.  Let K be the kernel
    basis `kernel` returns, d_out._kernel_columns(F): column k is 1 at the
    k-th free column and 0 at the other free columns.  The representatives
    are the pivots of [im d_in | K] among the columns of K, i.e. each column
    of K that is not in the span of im d_in and the columns of K before it.
    - pi is injective on ker d_out.  A kernel vector x solves the echelon
      rows of d_out; the row with leading column c gives x_c from the
      coordinates after c, so from the last pivot back every x_c, c in P,
      is fixed by x on F (`_back_substitute`).  So the kernel vector with
      given free coordinates is unique, and the columns of K at any subset
      of F are the columns `_kernel_columns` gives for that subset.
    - d_out . d_in = 0 puts im d_in inside ker d_out, so pi is injective on
      it: rank d_in = rank pi(d_in), and kernel vectors are independent
      modulo im d_in iff their projections are independent modulo
      pi(im d_in).
    - pi maps K to the identity on F, so column k of K is picked iff e_k is
      not in pi(im d_in) + span(e_j : j before k in F), i.e. iff no vector
      of pi(im d_in) has its last nonzero coordinate at k.  The set T of
      those last coordinates is the set of leading columns of an echelon
      basis of pi(im d_in) read with F reversed: the pivot columns of the
      matrix whose rows are the columns of d_in on F, reversed.  So the
      representatives are the columns of K at F minus T, ascending, and
      betti = |F| - |T| = dim ker d_out - rank d_in.
    The count holds by construction; the representatives R are checked to
    be cocycles, d_out . R = 0 (VerificationFailed otherwise).
    """
    if d_in.rows != d_out.cols:
        raise ShapeMismatch("d_in has %d rows but d_out %d columns"
                            % (d_in.rows, d_out.cols))
    if not (d_out @ d_in).is_zero():
        raise ComplexViolation("composite of differentials is not zero")
    pivots = set(d_out.pivot_columns())
    free = [j for j in range(d_out.cols) if j not in pivots]
    last = len(free) - 1
    at = {j: last - k for k, j in enumerate(free)}
    reversed_rows = RatMatrix._trusted(d_in.cols, len(free), {
        (j, at[i]): v for (i, j), v in d_in._d.items() if i in at})
    trailing = {free[last - t] for t in reversed_rows.pivot_columns()}
    chosen = [j for j in free if j not in trailing]
    reps = d_out._kernel_columns(chosen)
    if chosen and not (d_out @ reps).is_zero():
        raise VerificationFailed("a representative is not a cocycle: "
                                 "d_out . R != 0")
    return len(chosen), [reps.column(k) for k in range(len(chosen))]


def _back_substitute(echelon, free, cols):
    """The cols x len(free) matrix whose column k is the vector x with
    x_j = 1 at j = free[k], 0 at every other column that is no leading
    column of the echelon basis, and echelon . x = 0: the rows are solved
    from the last leading column back, each for the x at its leading
    column.  All columns are solved in one pass over the rows."""
    if not free:
        return RatMatrix.zeros(cols, 0)
    x = {j: {k: 1} for k, j in enumerate(free)}
    for c in sorted(echelon, reverse=True):
        row = echelon[c]
        acc = {}
        for col, v in row.items():
            known = x.get(col)
            if known:
                for k, y in known.items():
                    acc[k] = acc.get(k, 0) + v * y
        lead, solved = row[c], {}
        for k, s in acc.items():
            if s:
                solved[k] = -s // lead if type(s) is int and s % lead == 0 \
                    else exact(-s / Fraction(lead))
        if solved:
            x[c] = solved
    return RatMatrix._trusted(cols, len(free), {
        (i, k): v for i, column in x.items() for k, v in column.items()})


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


def flatten(matrix):
    """vec X: the column-major flattening of a matrix, as a dense tuple.
    Entry (i, j) of an n x m matrix sits at coordinate j*n + i."""
    out = [0] * (matrix.rows * matrix.cols)
    rows = matrix.rows
    for (i, j), v in matrix._d.items():
        out[j * rows + i] = v
    return tuple(out)


def unflatten(vec, rows, cols):
    """The rows x cols matrix X with flatten(X) = vec (ShapeMismatch unless
    vec has rows * cols coordinates)."""
    if len(vec) != rows * cols:
        raise ShapeMismatch("a vector of length %d is not a %d x %d matrix"
                            % (len(vec), rows, cols))
    return RatMatrix(rows, cols, {(idx % rows, idx // rows): v
                                  for idx, v in enumerate(vec) if v})


def vec_operator(left, right):
    """The matrix of X -> left X right acting on flatten(X): for the
    column-major vec, vec(left X right) = (right^T (x) left) vec X, and in
    particular vec(X a) = (a^T (x) 1) vec X and vec(b X) = (1 (x) b) vec X."""
    return right.transpose().kron(left)


def unit_vector(n, i):
    return tuple(1 if j == i else 0 for j in range(n))

def zero_vector(n):
    return (0,) * n
