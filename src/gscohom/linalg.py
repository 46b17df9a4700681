"""Exact linear algebra over Q.

Every entry is an exact rational held in one exact type per value: an int
when the value is integral, else a Fraction (`exact`).  Structure
constants, restriction maps, signs and identity or permutation blocks are
almost all integers, and int arithmetic skips the dispatch, gcd and
allocation of a Fraction.  Every result is exact, so no rounding ever
happens.

A matrix is held by columns, and only so: a dict {col: {row: value}} of
its nonzero columns, each a dict of its nonzero entries, with no empty
column and no zero entry.  So two equal matrices hold equal dicts, a zero
matrix holds none, and a column is read without a pass over the others.
Matrices are immutable after construction, so one column dict may be held
by several matrices: a block placed at row 0 (`from_blocks`, `hstack`, the
first operand of `+`) is shared, not copied.  Every routine writes or reads
whole columns: the differentials are written column by column, the
product is formed one output column at a time, and the columns are
eliminated where they are stored.

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
the same matrix eliminates it at most once.  The same routine also
eliminates the stored columns of a matrix, each leading on its last row:
the leading rows of that echelon are the trailing rows of the column space
(`RatMatrix._trailing_rows`), which `cohomology` counts and clears with.
Only the row eliminations regroup a matrix by rows: `_integer_rows` reads
the columns of its `transpose`, the one regrouping between columns and
rows.

A set of vectors is held as the columns of one sparse RatMatrix: kernel
vectors are back-substituted coordinate by coordinate and regrouped into
such a matrix by `transpose`, and a Subspace holds one.  Vectors become
dense tuples only where they are returned: the chosen representatives,
and `Subspace.basis` when it is read.

`RatMatrix.from_blocks` is the one routine that places blocks: it sums
(row offset, column offset, block) triples into one matrix, adding entries
where blocks overlap.  `hstack`, `vstack`, `block` and `block_diag` call
it, and so do the slice and Cech cochain maps; `+` and `-` sum two
matrices of one shape column by column.  The differentials of
the complexes write their entries straight into a list of column dicts
instead, one per column (`RatMatrix._from_column_list`), and build no
block to place: the Hochschild differential by the word rule
(`hochschild.hoch_differential`), the simplicial one at the faces'
positions in the nerve's face table, its outer faces straight from the
entries of the restriction maps (`simplicial.PairComplex`), and the total
differential both, at the offsets of its cells
(`gs.GSComplex.differential`).  The columns a writer fills are the
matrix's own, shared with no other matrix.

`cohomology` is the one place where cohomology is computed.  The
Hochschild, simplicial, Cech and total complexes reach it through
`subcomplex_cohomology`, for the whole complex or for a subcomplex spanned
by coordinates; the Hodge summands of the total complex hand it their
restricted differentials (`gs.GSComplex.hodge_cohomology`).  It first
checks d_out . d_in = 0 by forming the whole product, one column at a
time (Gustavson, *Two fast algorithms for sparse matrices: multiplication
and permuted transposition*, ACM TOMS 4, 1978): column j of the product
sums the columns of d_out at the entries of column j of d_in, and only the
entries that survive the cancellation are kept, so a zero product never
holds more than one column of cancelling terms.  It eliminates each
differential once, on its short side, by columns: the columns of d_out at
the trailing rows of im d_in are cleared, since they depend on the columns
before them, and in a sweep over degrees d_in keeps its trailing rows from
the degree before.  Only where H^n is not 0 does it
eliminate rows: those of d_out at its trailing rows, which span its row
space, to pick as representatives the kernel vectors that complete the
image, leftmost first.  `algebra.quotient_by_columns` picks the complement
of the relations of a tensor quotient by the same rule, in one elimination
that also gives its projection.

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


def _tidy(col):
    """Normalise, in place, a dict of entries computed as sums or products
    of exact values: a Fraction that became integral becomes an int and a
    sum that cancelled is dropped.  Returns the dict."""
    zeros = []
    for k, v in col.items():
        if type(v) is not int:
            if v.denominator != 1:
                continue
            v = col[k] = v.numerator
        if not v:
            zeros.append(k)
    for k in zeros:
        del col[k]
    return col


def _integral(m):
    """True iff every entry of the matrix m is an int; computed once per
    matrix, which never changes."""
    if m._int is None:
        m._int = True
        for col in m._c.values():
            for v in col.values():
                if type(v) is not int:
                    m._int = False
                    return False
    return m._int


# the identity matrices handed out so far, one shared instance per size
_IDENTITIES = {}


class RatMatrix:
    """Immutable rows x cols matrix over Q, held sparsely by columns as a
    dict {col: {row: nonzero entry}} with no empty column.  Each entry is
    stored in its one exact type (`exact`): an int when integral, else a
    Fraction."""

    __slots__ = ("rows", "cols", "_c", "_ech", "_trail", "_hash", "_int")

    def __init__(self, rows, cols, entries):
        """`entries` is a dict {(i, j): value} or a list of rows; values may
        be ints, Fractions or anything Fraction accepts.  An entry, zero or
        not, outside the shape raises ShapeMismatch."""
        if rows < 0 or cols < 0:
            raise ShapeMismatch("a matrix cannot be %d x %d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self._ech = self._trail = None   # _echelon, _trailing_rows caches
        self._hash = self._int = None    # see __hash__ and _integral
        if not isinstance(entries, dict):
            entries = {(i, j): v for i, row in enumerate(entries)
                       for j, v in enumerate(row)}
        by_col = {}
        for k, v in entries.items():
            i, j = k
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch("an entry at (%d, %d) of a %d x %d matrix"
                                    % (i, j, rows, cols))
            v = exact(v)
            if v:
                col = by_col.get(j)
                if col is None:
                    by_col[j] = {i: v}
                else:
                    col[i] = v
        self._c = by_col

    @classmethod
    def _trusted(cls, rows, cols, by_col):
        """The matrix whose column dict is by_col itself, with no pass over
        it: every column must be nonempty, every value nonzero and already
        exact (`exact(v) is v`), and nothing may change by_col or its
        columns afterwards."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._c = by_col
        m._ech = m._trail = m._hash = m._int = None
        return m

    @classmethod
    def _from_column_list(cls, rows, columns):
        """The rows x len(columns) matrix whose column j is columns[j], a
        dict {row: value} of exact nonzero entries, empty ones dropped: the
        form in which the differentials are written, one dict per column."""
        return cls._trusted(rows, len(columns),
                            {j: col for j, col in enumerate(columns) if col})

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
                n, n, {i: {i: 1} for i in range(n)})
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
        by_col = {}
        for j, values in enumerate(cols_list):
            if len(values) != r:
                raise ShapeMismatch("columns of lengths %d and %d"
                                    % (r, len(values)))
            col = {}
            for i, v in enumerate(values):
                v = exact(v)
                if v:
                    col[i] = v
            if col:
                by_col[j] = col
        return RatMatrix._trusted(r, c, by_col)

    # -- access

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%d, %d) of %r" % (i, j, self))
        col = self._c.get(j)
        return col.get(i, 0) if col else 0

    def items(self):
        """Iterate nonzero entries as ((i, j), value), in row-major order."""
        return iter(sorted(((i, j), v) for j, col in self._c.items()
                           for i, v in col.items()))

    def to_rows(self):
        mat = [[0] * self.cols for _ in range(self.rows)]
        for j, col in self._c.items():
            for i, v in col.items():
                mat[i][j] = v
        return mat

    def column(self, j):
        if not 0 <= j < self.cols:
            raise IndexError("column %d of %r" % (j, self))
        out = [0] * self.rows
        for i, v in self._c.get(j, {}).items():
            out[i] = v
        return tuple(out)

    def nnz(self):
        return sum(map(len, self._c.values()))

    def is_zero(self):
        return not self._c

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self._c == other._c

    def __hash__(self):
        """Computed once: a matrix is never changed after construction.
        Equal matrices have equal shapes and entries, so equal hashes."""
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, tuple(self.items())))
        return self._hash

    def __repr__(self):
        return "RatMatrix(%d x %d, %d nonzero)" % (self.rows, self.cols, self.nnz())

    # -- arithmetic

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        """self + sign * other for sign 1 or -1, column by column: a column
        that only one side has is taken as it is (negated from other when
        sign is -1), and a column both have is summed into a copy, its
        summed entries normalised and the cancelled ones dropped."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("%r %s %r" % (self, "+" if sign == 1 else "-",
                                              other))
        by_col = dict(self._c)
        for j, col in other._c.items():
            mine = by_col.get(j)
            if mine is None:
                by_col[j] = col if sign == 1 else \
                    {i: -v for i, v in col.items()}
                continue
            mine = dict(mine)
            for i, v in col.items():
                v = mine.get(i, 0) + sign * v
                if type(v) is not int:
                    v = exact(v)
                if v:
                    mine[i] = v
                else:
                    del mine[i]
            if mine:
                by_col[j] = mine
            else:
                del by_col[j]
        return RatMatrix._trusted(self.rows, self.cols, by_col)

    def __neg__(self):
        return RatMatrix._trusted(self.rows, self.cols, {
            j: {i: -v for i, v in col.items()} for j, col in self._c.items()})

    def scale(self, a):
        a = exact(a)
        if a == 1:
            return self
        if a == -1:
            return -self
        if not a:
            return RatMatrix.zeros(self.rows, self.cols)
        by_col = {j: {i: a * v for i, v in col.items()}
                  for j, col in self._c.items()}
        if not (type(a) is int and _integral(self)):
            for col in by_col.values():
                _tidy(col)
        return RatMatrix._trusted(self.rows, self.cols, by_col)

    def __matmul__(self, other):
        """The product, one column at a time: column j is the sum of the
        columns k of self times other[k, j] over the entries of column j of
        other, normalised before the next column is begun, so a product
        that cancels holds at most one column of cancelling terms.  A
        column of other with one entry 1 shares the column of self."""
        if self.cols != other.rows:
            raise ShapeMismatch("%r @ %r" % (self, other))
        left = self._c
        out = {}
        for j, col in other._c.items():
            acc = None
            shared = False              # acc is a column of self itself
            for k, b in col.items():
                terms = left.get(k)
                if terms is None:
                    continue
                if acc is None:
                    if b == 1:
                        acc, shared = terms, True
                    else:
                        acc = {i: a * b for i, a in terms.items()}
                    continue
                if shared:
                    acc, shared = dict(acc), False
                for i, a in terms.items():
                    acc[i] = acc.get(i, 0) + a * b
            if acc is None or not any(acc.values()):
                continue
            if not shared:
                _tidy(acc)
            out[j] = acc
        return RatMatrix._trusted(self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix times column vector (a tuple of exact numbers)."""
        if len(vec) != self.cols:
            raise ShapeMismatch("%r applied to %d coordinates"
                                % (self, len(vec)))
        out = [0] * self.rows
        for j, col in self._c.items():
            x = vec[j]
            if x:
                for i, v in col.items():
                    out[i] += v * x
        return tuple(out)

    def transpose(self):
        by_row = {}
        for j, col in self._c.items():
            for i, v in col.items():
                row = by_row.get(i)
                if row is None:
                    by_row[i] = {j: v}
                else:
                    row[j] = v
        return RatMatrix._trusted(self.cols, self.rows, by_row)

    @staticmethod
    def from_blocks(rows, cols, placed):
        """The rows x cols sum of the placed blocks: a triple (r, c, block)
        puts block[i, j] at (r + i, c + j).  Where blocks overlap their
        entries add, and entries that cancel are dropped.  Every block must
        lie inside the matrix.

        A column of a block placed at row 0 that meets no column of an
        earlier block is shared, not copied; a column that meets one is
        summed into a copy, and only the entries summed are normalised."""
        by_col = {}
        owned = set()           # the columns built here, which may change
        for r, c, m in placed:
            if r < 0 or c < 0 or r + m.rows > rows or c + m.cols > cols:
                raise ValueError("a %d x %d block at (%d, %d) does not fit "
                                 "a %d x %d matrix"
                                 % (m.rows, m.cols, r, c, rows, cols))
            for j, col in m._c.items():
                j += c
                mine = by_col.get(j)
                if mine is None:
                    if r:
                        by_col[j] = {r + i: v for i, v in col.items()}
                        owned.add(j)
                    else:
                        by_col[j] = col
                    continue
                if j not in owned:
                    mine = by_col[j] = dict(mine)
                    owned.add(j)
                for i, v in col.items():
                    i += r
                    if i not in mine:
                        mine[i] = v
                        continue
                    v = mine[i] + v
                    if type(v) is not int:
                        v = exact(v)
                    if v:
                        mine[i] = v
                    else:
                        del mine[i]
                if not mine:
                    del by_col[j]
                    owned.discard(j)
        return RatMatrix._trusted(rows, cols, by_col)

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
        (i * other.rows + k, j * other.cols + l), so column
        j * other.cols + l is column l of other placed at the rows
        i * other.rows of each entry self[i, j] of column j, times it.  A
        1 x 1 factor scales the other one.  Products of nonzero entries are
        nonzero, and of ints are ints, so only a product with a Fraction
        factor needs normalising.  An identity factor takes the same loop:
        the simplicial differential writes its Kronecker blocks itself
        (`simplicial.PairComplex.write_differential`)."""
        rows, width = other.rows, other.cols
        if rows == width == 1:
            return self.scale(other[0, 0])
        if self.rows == self.cols == 1:
            return other.scale(self[0, 0])
        shape = (self.rows * rows, self.cols * width)
        by_col = {}
        right = other._c.items()
        for j, left in self._c.items():
            base = j * width
            for l, col in right:
                by_col[base + l] = out = {}
                for i, a in left.items():
                    shift = i * rows
                    for k, b in col.items():
                        out[shift + k] = a * b
        if not (_integral(self) and _integral(other)):
            for col in by_col.values():
                _tidy(col)
        return RatMatrix._trusted(*shape, by_col)

    def kron_power(self, q):
        out = RatMatrix.identity(1)
        for _ in range(q):
            out = out.kron(self)
        return out

    # -- elimination

    def _integer_rows(self):
        """The nonzero rows as primitive integer rows {col: int}: the
        columns of the transpose, made primitive (`_primitive_lines`)."""
        return _primitive_lines(self.transpose()._c.values())

    def _integer_columns(self, cleared):
        """The stored (nonzero) columns j not in `cleared`, as primitive
        integer columns {row: int} (`_primitive_lines`).  A column that is
        primitive already is the stored dict itself, which the elimination
        does not change."""
        return _primitive_lines([col for j, col in self._c.items()
                                 if j not in cleared])

    def _echelon(self):
        """{leading column: primitive integer row}, an echelon basis of the
        row space; computed on the first call and kept (the matrix is
        immutable).  Its keys are the pivot columns."""
        if self._ech is None:
            self._ech = _row_echelon(self._integer_rows())
        return self._ech

    def _trailing_rows(self, cleared=frozenset()):
        """T, the trailing rows of the column space: the rows i at which
        some vector of the column space has its last nonzero entry.  T is
        the set of leading rows of an echelon of the stored columns, each
        leading on its last nonzero row (`_row_echelon` with lead=max), so
        |T| = rank.  It is computed on the first call and kept.

        `cleared` lists columns that are each a combination of the columns
        before them; the column space is the span of the other columns
        (`cohomology` has the proof), so only those are eliminated.  That
        the cleared columns are such is the caller's claim; `cohomology`
        passes the trailing rows of im d_in, which d_out . d_in = 0 makes
        so."""
        if self._trail is None:
            self._trail = frozenset(_row_echelon(
                self._integer_columns(cleared), max))
        return self._trail

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
        out = {}
        for j, col in x._c.items():
            top = {i: -v for i, v in col.items() if i < n}
            if top:
                out[j] = top
        return RatMatrix._trusted(n, rhs.cols, out)

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self):
        """M^-1, or None: M X = 1 is consistent iff M is invertible."""
        if self.rows != self.cols:
            raise ShapeMismatch("a %d x %d matrix has no inverse"
                                % (self.rows, self.cols))
        return self.solve_many(RatMatrix.identity(self.rows))


def _primitive_lines(lines):
    """Each line {index: exact value} as a primitive integer line, divided
    by the gcd of its entries, so that it spans the same line as the one it
    comes from; a line with a Fraction entry, which `gcd` refuses, is first
    multiplied by the lcm of its denominators.  An empty line stays empty."""
    out = []
    for line in lines:
        if line:
            try:
                line = _primitive(line)
            except TypeError:
                den = lcm(*(v.denominator for v in line.values()))
                line = _primitive({k: v.numerator * (den // v.denominator)
                                   for k, v in line.items()})
        out.append(line)
    return out


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


def _row_echelon(rows, lead=min):
    """An echelon basis {leading column: primitive integer row} of the span
    of the integer rows, each row leading on its first nonzero column (on
    its last with lead=max).

    Each row is reduced against the basis built so far: while its leading
    column c is the leading column of a basis row b, it is replaced by the
    primitive combination of itself and b that vanishes at c.  It either
    becomes zero or joins the basis under a new leading column.  The set of
    leading columns of any echelon basis of a row space is the set of its
    RREF pivot columns (with lead=max, of the RREF of the columns taken in
    reverse), so the keys do not depend on the order of the rows; the rows
    are taken shortest first, which keeps the basis sparse.  No row passed
    in is changed.
    """
    basis = {}
    for v in sorted(rows, key=len):
        while v:
            c = lead(v)
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
    vectors spanning a complement of the image inside the kernel, the
    kernel vectors that complete the image leftmost first.

    Both matrices are eliminated by columns, the short side of the tall
    differentials of these complexes, and the columns of d_out that
    im d_in already accounts for are cleared, not eliminated (clearing:
    Chen and Kerber, *Persistent homology computation with a twist*,
    EuroCG 2011).  Let T_in and T_out be the
    trailing rows of im d_in and im d_out (`RatMatrix._trailing_rows`); in
    a sweep over degrees d_in keeps T_in from the degree before, where it
    was d_out.  Only the columns of d_out outside T_in are eliminated,
    which gives T_out, and betti = cols - |T_in| - |T_out|; when that is 0
    it is the answer.  Otherwise the rows of d_out at T_out are
    eliminated, F is the set of their free (non-pivot) columns, and the
    representatives are d_out's kernel columns (`_kernel_columns`) at the
    columns of F outside T_in, ascending.  The proof, in three steps:

    1. The trailing rows of im d_in are free columns of d_out.  Let x be a
       nonzero vector of ker d_out, with its last nonzero entry at t.  Then
       d_out[:, t] = -(1/x_t) sum_{j<t} x_j d_out[:, j]: column t depends on
       the columns before it, so t is no pivot column.  d_out . d_in = 0
       puts im d_in inside ker d_out, so this holds at every t in T_in.
    2. The cleared columns leave the column span unchanged.  By step 1
       each column at T_in is a combination of the columns before it, so,
       by induction on T_in ascending, the columns outside T_in span every
       column of d_out.  So they span im d_out, whose trailing rows T_out
       they give, with |T_out| = rank d_out; of the cols - |T_in| columns
       eliminated, exactly cols - |T_in| - |T_out| reduce to zero.
    3. The rows at T_out span the row space.  Take an echelon basis b_t
       (t in T_out) of im d_out, b_t with its last nonzero entry at t.  A
       nonzero combination sum c_t b_t is nonzero at the largest t with
       c_t != 0, where the b_s with s < t vanish, so no nonzero vector of
       im d_out vanishes on T_out.  So d_out[T_out, :] has rank |T_out| =
       rank d_out, and its rows, being rows of d_out, span d_out's row
       space: it has d_out's kernel and pivot columns, and F is the set of
       free columns of d_out.

    Then the representatives are right.  A kernel vector x solves the
    echelon rows, the row with leading column c fixing x_c from the
    coordinates after c; so x is fixed by its coordinates on F, and the
    projection pi onto F is injective on ker d_out.  The kernel columns K
    at F are a basis of ker d_out with pi(K) the identity, and a column of
    K at f in F completes im d_in and the columns of K before it iff no
    vector of pi(im d_in) has its last nonzero coordinate at f.  By step 1
    pi keeps the last nonzero coordinate of every nonzero vector of
    ker d_out, so those f are exactly T_in: the representatives are the
    columns of K at F minus T_in, and betti = |F| - |T_in| =
    cols - |T_out| - |T_in|.

    Checked on the way (VerificationFailed): that the rows at T_out have
    rank |T_out|, that T_in lies inside F, and that the representatives R
    are cocycles, d_out . R = 0.
    """
    if d_in.rows != d_out.cols:
        raise ShapeMismatch("d_in has %d rows but d_out %d columns"
                            % (d_in.rows, d_out.cols))
    if not (d_out @ d_in).is_zero():
        raise ComplexViolation("composite of differentials is not zero")
    t_in = d_in._trailing_rows()
    t_out = d_out._trailing_rows(t_in)
    betti = d_out.cols - len(t_in) - len(t_out)
    if not betti:
        return 0, []
    rows_at = {}
    for j, col in d_out._c.items():
        kept = None
        for i, v in col.items():
            if i in t_out:
                if kept is None:
                    kept = rows_at[j] = {}
                kept[i] = v
    rows_at = RatMatrix._trusted(d_out.rows, d_out.cols, rows_at)
    if rows_at.rank() != len(t_out):
        raise VerificationFailed("the rows of d_out at its %d trailing rows "
                                 "have rank %d" % (len(t_out), rows_at.rank()))
    pivots = rows_at._echelon()
    if not t_in.isdisjoint(pivots):
        raise VerificationFailed("a trailing row of im d_in is a pivot "
                                 "column of d_out")
    chosen = [j for j in range(d_out.cols)
              if j not in pivots and j not in t_in]
    reps = rows_at._kernel_columns(chosen)
    if not (d_out @ reps).is_zero():
        raise VerificationFailed("a representative is not a cocycle: "
                                 "d_out . R != 0")
    return betti, [reps.column(k) for k in range(betti)]


def _back_substitute(echelon, free, cols):
    """The cols x len(free) matrix whose column k is the vector x with
    x_j = 1 at j = free[k], 0 at every other column that is no leading
    column of the echelon basis, and echelon . x = 0: the rows are solved
    from the last leading column back, each for the x at its leading
    column.  All columns are solved in one pass over the rows, into
    {coordinate: {k: value}}, the rows of the result, which `transpose`
    regroups into its columns."""
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
    return RatMatrix._trusted(len(free), cols, x).transpose()


def submatrix(mat, row_idx, col_idx):
    """The rows row_idx and columns col_idx of mat, in the given orders."""
    rpos = {r: i for i, r in enumerate(row_idx)}
    by_col = {}
    for j, c in enumerate(col_idx):
        col = mat._c.get(c)
        if col:
            col = {rpos[i]: v for i, v in col.items() if i in rpos}
            if col:
                by_col[j] = col
    return RatMatrix._trusted(len(row_idx), len(col_idx), by_col)


def is_closed(d, src, tgt):
    """True iff d maps the span of the coordinates src into the span of
    the coordinates tgt: no nonzero d[i, j] has j in src and i outside
    tgt.  Only the columns at src are read."""
    tgt = set(tgt)
    empty = {}
    return all(i in tgt for j in src for i in d._c.get(j, empty))


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
        placed = []
        for v in reps:
            vec = [0] * d_n.cols
            for pos, x in zip(keep_n, v):
                vec[pos] = x
            placed.append(tuple(vec))
        reps = placed
    return betti, reps


def flatten(matrix):
    """vec X: the column-major flattening of a matrix, as a dense tuple.
    Entry (i, j) of an n x m matrix sits at coordinate j*n + i."""
    out = [0] * (matrix.rows * matrix.cols)
    rows = matrix.rows
    for j, col in matrix._c.items():
        base = j * rows
        for i, v in col.items():
            out[base + i] = v
    return tuple(out)


def unflatten(vec, rows, cols):
    """The rows x cols matrix X with flatten(X) = vec (ShapeMismatch unless
    vec has rows * cols coordinates)."""
    if len(vec) != rows * cols:
        raise ShapeMismatch("a vector of length %d is not a %d x %d matrix"
                            % (len(vec), rows, cols))
    by_col = {}
    for idx, v in enumerate(vec):
        v = exact(v) if v else 0
        if v:
            j, i = divmod(idx, rows)
            col = by_col.get(j)
            if col is None:
                by_col[j] = {i: v}
            else:
                col[i] = v
    return RatMatrix._trusted(rows, cols, by_col)


def vec_operator(left, right):
    """The matrix of X -> left X right acting on flatten(X): for the
    column-major vec, vec(left X right) = (right^T (x) left) vec X, and in
    particular vec(X a) = (a^T (x) 1) vec X and vec(b X) = (1 (x) b) vec X."""
    return right.transpose().kron(left)


def unit_vector(n, i):
    return tuple(1 if j == i else 0 for j in range(n))

def zero_vector(n):
    return (0,) * n
