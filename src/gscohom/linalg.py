"""Exact linear algebra over Q.

All matrices carry Fraction entries and every result is exact: kernels,
ranks, solutions and cohomology representatives are computed by
fraction-free (Bareiss) elimination on integer-scaled rows, so no
rounding ever happens.  Matrices are immutable after construction.

`subcomplex_cohomology` is the one place where the cohomology of a cochain
complex, or of a subcomplex of it, is computed; the Hochschild, simplicial,
Cech and total complexes all call it.
"""

from fractions import Fraction
from math import gcd


class ComplexViolation(Exception):
    """Raised when two maps that should compose to zero do not."""


class NotASubcomplex(Exception):
    """Raised when a differential leaks out of a proposed subcomplex."""


def _frac(x):
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class RatMatrix:
    """Immutable rows x cols matrix of Fractions, held sparsely as a dict
    {(i, j): nonzero entry}."""

    __slots__ = ("rows", "cols", "_d")

    def __init__(self, rows, cols, entries):
        """`entries` is a dict {(i, j): value} or a list of rows."""
        assert rows >= 0 and cols >= 0
        self.rows = rows
        self.cols = cols
        if isinstance(entries, dict):
            self._d = {k: _frac(v) for k, v in entries.items() if v != 0}
        else:
            self._d = {(i, j): _frac(v) for i, row in enumerate(entries)
                       for j, v in enumerate(row) if v != 0}

    # -- constructors

    @staticmethod
    def zeros(rows, cols):
        return RatMatrix(rows, cols, {})

    @staticmethod
    def identity(n):
        return RatMatrix(n, n, {(i, i): Fraction(1) for i in range(n)})

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
                if v != 0:
                    d[(i, j)] = _frac(v)
        return RatMatrix(r, c, d)

    # -- access

    def __getitem__(self, ij):
        i, j = ij
        assert 0 <= i < self.rows and 0 <= j < self.cols
        return self._d.get((i, j), Fraction(0))

    def items(self):
        """Iterate nonzero entries as ((i, j), value), in row-major order."""
        return iter(sorted(self._d.items()))

    def to_rows(self):
        mat = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.items():
            mat[i][j] = v
        return mat

    def column(self, j):
        return tuple(self[i, j] for i in range(self.rows))

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
        return hash((self.rows, self.cols, tuple(self.items())))

    def __repr__(self):
        return "RatMatrix(%d x %d, %d nonzero)" % (self.rows, self.cols, self.nnz())

    # -- arithmetic

    def __add__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        d = dict(self.items())
        for k, v in other.items():
            d[k] = d.get(k, Fraction(0)) + v
        return RatMatrix(self.rows, self.cols, d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RatMatrix(self.rows, self.cols, {k: -v for k, v in self.items()})

    def scale(self, a):
        a = _frac(a)
        return RatMatrix(self.rows, self.cols, {k: a * v for k, v in self.items()})

    def __matmul__(self, other):
        assert self.cols == other.rows, (self.cols, other.rows)
        rows_of_b = {}
        for (k, j), v in other.items():
            rows_of_b.setdefault(k, []).append((j, v))
        d = {}
        for (i, k), a in self.items():
            for j, b in rows_of_b.get(k, ()):
                key = (i, j)
                d[key] = d.get(key, Fraction(0)) + a * b
        return RatMatrix(self.rows, other.cols, d)

    def apply(self, vec):
        """Matrix times column vector (tuple of Fractions)."""
        assert len(vec) == self.cols
        out = [Fraction(0)] * self.rows
        for (i, j), v in self.items():
            if vec[j]:
                out[i] += v * vec[j]
        return tuple(out)

    def transpose(self):
        return RatMatrix(self.cols, self.rows, {(j, i): v for (i, j), v in self.items()})

    @staticmethod
    def hstack(mats):
        rows = mats[0].rows
        d = {}
        off = 0
        for m in mats:
            assert m.rows == rows
            for (i, j), v in m.items():
                d[(i, j + off)] = v
            off += m.cols
        return RatMatrix(rows, off, d)

    @staticmethod
    def vstack(mats):
        cols = mats[0].cols
        d = {}
        off = 0
        for m in mats:
            assert m.cols == cols
            for (i, j), v in m.items():
                d[(i + off, j)] = v
            off += m.rows
        return RatMatrix(off, cols, d)

    @staticmethod
    def block(grid):
        """Assemble from a 2d grid of blocks (None = zero block of fitting size)."""
        row_mats = []
        for row in grid:
            present = [m for m in row if m is not None]
            rows = present[0].rows
            fixed = []
            for j, m in enumerate(row):
                if m is None:
                    cols = next(g[j].cols for g in grid if g[j] is not None)
                    m = RatMatrix.zeros(rows, cols)
                fixed.append(m)
            row_mats.append(RatMatrix.hstack(fixed))
        return RatMatrix.vstack(row_mats)

    def kron(self, other):
        d = {}
        for (i, j), a in self.items():
            for (k, l), b in other.items():
                d[(i * other.rows + k, j * other.cols + l)] = a * b
        return RatMatrix(self.rows * other.rows, self.cols * other.cols, d)

    def kron_power(self, q):
        out = RatMatrix.identity(1)
        for _ in range(q):
            out = out.kron(self)
        return out

    # -- elimination

    def _echelon(self):
        """Fraction-free (Bareiss) forward elimination.

        Returns (pivot list [(row, col)], integer echelon rows).  Rows are
        scaled to integers first; Bareiss keeps all intermediate values
        integral, which controls coefficient blowup.
        """
        mat = []
        for row in self.to_rows():
            den = 1
            for v in row:
                den = den * v.denominator // gcd(den, v.denominator)
            mat.append([int(v * den) for v in row])
        pivots = []
        prev = 1
        r = 0
        for c in range(self.cols):
            best = -1
            for i in range(r, self.rows):
                if mat[i][c] != 0 and (best < 0 or abs(mat[i][c]) < abs(mat[best][c])):
                    best = i
            if best < 0:
                continue
            mat[r], mat[best] = mat[best], mat[r]
            piv = mat[r][c]
            for i in range(r + 1, self.rows):
                fi = mat[i][c]
                rowi, rowr = mat[i], mat[r]
                if fi == 0:
                    # rows outside the pivot column still rescale by piv/prev
                    for j in range(c, self.cols):
                        if rowi[j]:
                            rowi[j] = piv * rowi[j] // prev
                else:
                    for j in range(c, self.cols):
                        rowi[j] = (piv * rowi[j] - fi * rowr[j]) // prev
            pivots.append((r, c))
            prev = piv
            r += 1
            if r == self.rows:
                break
        return pivots, mat

    def _rref(self):
        """Reduced row echelon form over Q: (pivot cols, rows of Fractions)."""
        pivots, mat = self._echelon()
        rows = [[Fraction(x) for x in row] for row in mat]
        for r, c in reversed(pivots):
            piv = rows[r][c]
            rows[r] = [v / piv for v in rows[r]]
            for i in range(r):
                f = rows[i][c]
                if f:
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        return [c for _, c in pivots], rows

    def rank(self):
        return len(self._echelon()[0])

    def pivot_columns(self):
        return [c for _, c in self._echelon()[0]]

    def kernel(self):
        """Basis of {v : M v = 0} as a Subspace of dimension cols - rank."""
        piv_cols, rows = self._rref()
        piv_set = set(piv_cols)
        free = [j for j in range(self.cols) if j not in piv_set]
        basis = []
        for j in free:
            v = [Fraction(0)] * self.cols
            v[j] = Fraction(1)
            for r, c in enumerate(piv_cols):
                v[c] = -rows[r][j]
            basis.append(tuple(v))
        return Subspace(self.cols, basis)

    def solve(self, b):
        """Some x with M x = b, or None if the system is inconsistent."""
        assert len(b) == self.rows
        aug = RatMatrix.hstack([self, RatMatrix.from_cols([b], ambient=self.rows)])
        piv_cols, rows = aug._rref()
        if self.cols in piv_cols:
            return None
        x = [Fraction(0)] * self.cols
        for r, c in enumerate(piv_cols):
            x[c] = rows[r][self.cols]
        return tuple(x)

    def solve_many(self, rhs):
        """X with M X = rhs (columnwise), or None; one elimination pass."""
        assert rhs.rows == self.rows
        aug = RatMatrix.hstack([self, rhs])
        piv_cols, rows = aug._rref()
        if any(c >= self.cols for c in piv_cols):
            return None
        d = {}
        for r, c in enumerate(piv_cols):
            for j in range(rhs.cols):
                v = rows[r][self.cols + j]
                if v:
                    d[(c, j)] = v
        return RatMatrix(self.cols, rhs.cols, d)

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self):
        assert self.rows == self.cols
        n = self.rows
        aug = RatMatrix.hstack([self, RatMatrix.identity(n)])
        piv_cols, rows = aug._rref()
        if piv_cols[:n] != list(range(n)):
            return None
        d = {}
        for i in range(n):
            for j in range(n):
                v = rows[i][n + j]
                if v:
                    d[(i, j)] = v
        return RatMatrix(n, n, d)


class Subspace:
    """A linear subspace of Q^ambient_dim given by an independent basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis):
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(_frac(x) for x in v) for v in basis)
        for v in self.basis:
            assert len(v) == ambient_dim
        if self.basis:
            assert RatMatrix.from_cols(self.basis).rank() == len(self.basis), \
                "basis vectors are dependent"

    @property
    def dim(self):
        return len(self.basis)

    def matrix(self):
        return RatMatrix.from_cols(self.basis, ambient=self.ambient_dim)

    def contains(self, v):
        if not self.basis:
            return all(x == 0 for x in v)
        return self.matrix().solve(tuple(v)) is not None

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.ambient_dim)


def cohomology(d_in, d_out):
    """Cohomology at the middle of  . --d_in--> . --d_out--> .

    Checks d_out . d_in = 0, then returns (betti, representatives): the
    dimension ker(d_out)/im(d_in) together with kernel vectors spanning a
    complement of the image inside the kernel.
    """
    assert d_in.rows == d_out.cols
    if not (d_out @ d_in).is_zero():
        raise ComplexViolation("composite of differentials is not zero")
    kernel = d_out.kernel()
    image_cols = [d_in.column(c) for c in d_in.pivot_columns()]
    combined = RatMatrix.from_cols(image_cols + list(kernel.basis),
                                   ambient=d_in.rows)
    reps = [combined.column(c) for c in combined.pivot_columns()
            if c >= len(image_cols)]
    betti = kernel.dim - len(image_cols)
    assert betti == len(reps)
    return betti, reps


def submatrix(mat, row_idx, col_idx):
    """The rows row_idx and columns col_idx of mat, in the given orders."""
    rpos = {r: i for i, r in enumerate(row_idx)}
    cpos = {c: j for j, c in enumerate(col_idx)}
    entries = {}
    for (i, j), v in mat.items():
        if i in rpos and j in cpos:
            entries[(rpos[i], cpos[j])] = v
    return RatMatrix(len(row_idx), len(col_idx), entries)


def is_closed(d, src, tgt):
    """True iff d maps the span of the coordinates src into the span of
    the coordinates tgt: no nonzero d[i, j] has j in src and i outside
    tgt."""
    src, tgt = set(src), set(tgt)
    return all(i in tgt for i, j in d._d if j in src)


def subcomplex_cohomology(differential, n, keep=None, check=None):
    """H^n of a cochain complex, or of a subcomplex: (betti, representatives).

    differential(m) is the matrix of d: C^m -> C^{m+1}.  With keep=None the
    whole complex is taken.  Otherwise keep(m) spans the subcomplex in
    degree m, either as a list of kept coordinates or as a RatMatrix whose
    columns are a basis, and the subcomplex must be closed under d^{n-1}
    and d^n.  Each of the two is checked once, and a leak raises
    NotASubcomplex:
      * coordinates: by is_closed, or by check(m) when the caller names
        its own check (which must raise NotASubcomplex itself); d^m is then
        the submatrix on the kept coordinates;
      * a basis B: by solving B(m+1) X = d^m B(m); the solution X is the
        restricted d^m.
    The representatives are returned in the coordinates of C^n.
    """
    keeps = {} if keep is None else \
        {m: keep(m) for m in (n - 1, n, n + 1) if m >= 0}

    def restricted(m, d):
        src, tgt = keeps.get(m), keeps.get(m + 1)
        if src is None:
            return d
        if isinstance(src, RatMatrix):
            x = tgt.solve_many(d @ src)
            if x is None:
                raise NotASubcomplex("d^%d leaves the subcomplex" % m)
            return x
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
    if isinstance(keep_n, RatMatrix):
        reps = [keep_n.apply(v) for v in reps]
    elif keep_n is not None:
        embedded = []
        for v in reps:
            full = [Fraction(0)] * d_n.cols
            for pos, c in zip(keep_n, v):
                full[pos] = c
            embedded.append(tuple(full))
        reps = embedded
    return betti, reps


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))

def vec_scale(a, v):
    a = _frac(a)
    return tuple(a * x for x in v)

def unit_vector(n, i):
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))

def zero_vector(n):
    return (Fraction(0),) * n
