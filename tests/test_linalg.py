import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from gscohom import linalg
from gscohom.linalg import (RatMatrix, Subspace, cohomology,
                            ComplexViolation, NotASubcomplex, DependentBasis,
                            subcomplex_cohomology)
from conftest import ORACLE, random_matrix

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def test_kernel_examples():
    assert RatMatrix.identity(2).kernel().dim == 0
    assert RatMatrix.zeros(3, 4).kernel().dim == 4
    k = RatMatrix.from_rows([[1, 2], [2, 4]]).kernel()
    assert k.dim == 1
    # spanned by (-2, 1) up to scale
    v = k.basis[0]
    assert v[0] * 1 == -2 * v[1]


def test_rank_nullity_and_exact_kernel(rng):
    for _ in range(60):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        mat = random_matrix(rng, m, n)
        ker = mat.kernel()
        assert mat.rank() + ker.dim == n
        for v in ker.basis:
            assert all(x == 0 for x in mat.apply(v))


def test_solve_examples():
    b = (F(1), F(2))
    assert RatMatrix.identity(2).solve(b) == b
    assert RatMatrix.zeros(2, 2).solve(b) is None
    x = RatMatrix.from_rows([[1, 1]]).solve((F(3),))
    assert x is not None and x[0] + x[1] == 3


def test_solve_round_trip(rng):
    for _ in range(40):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        mat = random_matrix(rng, m, n)
        x0 = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        b = mat.apply(x0)
        x = mat.solve(b)
        assert x is not None and mat.apply(x) == b


def test_solve_many_matches_solve(rng):
    for _ in range(20):
        mat = random_matrix(rng, 5, 4)
        rhs_cols = [mat.apply(tuple(F(rng.randint(-2, 2)) for _ in range(4)))
                    for _ in range(3)]
        rhs = RatMatrix.from_cols(rhs_cols, ambient=5)
        x = mat.solve_many(rhs)
        assert x is not None and mat @ x == rhs


def test_cohomology_zero_maps():
    betti, reps = cohomology(RatMatrix.zeros(4, 0), RatMatrix.zeros(0, 4))
    assert betti == 4 and len(reps) == 4


def test_cohomology_acyclic():
    betti, _ = cohomology(RatMatrix.zeros(3, 0), RatMatrix.identity(3))
    assert betti == 0


def test_cohomology_koszul_pair():
    # 0 -> Q -> Q -> 0 with the identity in the middle: both spots vanish
    ident = RatMatrix.identity(1)
    betti_left, _ = cohomology(RatMatrix.zeros(1, 0), ident)
    betti_right, _ = cohomology(ident, RatMatrix.zeros(0, 1))
    assert betti_left == 0 and betti_right == 0


def test_cohomology_rejects_non_complex():
    with pytest.raises(ComplexViolation):
        cohomology(RatMatrix.identity(2), RatMatrix.identity(2))


def test_cohomology_basis_invariance(rng):
    # conjugating both differentials by invertible matrices preserves dims
    for _ in range(10):
        d_in = random_matrix(rng, 6, 3)
        ker = d_in.transpose().kernel()  # rows annihilating the image
        # build d_out with d_out @ d_in = 0: rows from the left kernel
        rows = list(ker.basis)[:3]
        if not rows:
            continue
        d_out = RatMatrix.from_rows([list(r) for r in rows])
        betti, _ = cohomology(d_in, d_out)
        while True:
            g_mid = random_matrix(rng, 6, 6, density=0.9)
            if g_mid.is_invertible():
                break
        d_in2 = g_mid @ d_in
        d_out2 = d_out @ g_mid.inverse()
        betti2, _ = cohomology(d_in2, d_out2)
        assert betti == betti2


def test_cohomology_representatives_span_complement():
    d_in = RatMatrix.from_cols([(F(1), F(0), F(0))])
    d_out = RatMatrix.zeros(0, 3)
    betti, reps = cohomology(d_in, d_out)
    assert betti == 2
    combined = RatMatrix.from_cols([d_in.column(0)] + list(reps))
    assert combined.rank() == 3


def test_subspace_contains():
    s = Subspace(3, [(F(1), F(0), F(1))])
    assert s.contains((F(2), F(0), F(2)))
    assert not s.contains((F(1), F(1), F(1)))


def test_sparse_dense_agree(rng):
    # a densely filled matrix and one built from its entry dict agree
    dense = random_matrix(rng, 6, 6, density=0.9)
    sparse = RatMatrix(6, 6, dict(dense.items()))
    assert dense == sparse
    assert dense.rank() == sparse.rank()
    assert (dense @ dense) == (sparse @ sparse)


def test_subcomplex_cohomology_paths():
    # C^0 = Q --d0--> C^1 = Q^2 --0--> C^2 = 0
    d0 = RatMatrix.from_cols([(F(1), F(0))])
    diffs = {0: d0, 1: RatMatrix.zeros(0, 2)}
    # whole complex: H^1 is spanned by the second coordinate
    assert subcomplex_cohomology(diffs.get, 1) == (1, [(F(0), F(1))])
    # coordinates: the subcomplex 0 -> span(e_2); representatives come
    # back in the coordinates of C^1
    coords = {0: [], 1: [1], 2: []}.get
    assert subcomplex_cohomology(diffs.get, 1, coords) == (1, [(F(0), F(1))])
    # d^0 maps e_1 of C^0 onto e_1 of C^1, which is not kept
    with pytest.raises(NotASubcomplex):
        subcomplex_cohomology(diffs.get, 0, {0: [0], 1: [1]}.get)


_SHAPES_SCRIPT = """
from gscohom.linalg import (RatMatrix, ShapeMismatch, Subspace, cohomology,
                            reshape)


def outcome(call):
    try:
        call()
    except ShapeMismatch:
        return "ShapeMismatch"
    return "passed"


m = RatMatrix.identity(2)
wide = RatMatrix.zeros(2, 3)
print(outcome(lambda: m.solve((1, 2, 3))))
print(outcome(lambda: m.solve_many(RatMatrix.identity(3))))
print(outcome(lambda: wide.inverse()))
print(outcome(lambda: Subspace(2, [(1, 0, 0)])))
print(outcome(lambda: cohomology(wide.transpose(), m)))
print(outcome(lambda: reshape(wide, 4, 2)))
print(outcome(lambda: reshape(wide, 3, 2)))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_shape_preconditions_raise_under_python_O(flags):
    # solve, solve_many, inverse, Subspace, cohomology and reshape given
    # operands whose dimensions do not fit; the last reshape fits
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, *flags, "-c", _SHAPES_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ShapeMismatch"] * 6 + ["passed"]
    assert issubclass(linalg.ShapeMismatch, ValueError)


def test_dependent_basis_raises_under_python_O():
    script = ("from gscohom.linalg import Subspace\n"
              "print(__debug__)\n"
              "Subspace(2, [(1, 2), (2, 4)])\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert done.stdout.strip() == "False"          # asserts are stripped
    assert done.returncode != 0
    assert "DependentBasis" in done.stderr
    with pytest.raises(DependentBasis):
        Subspace(2, [(1, 2), (2, 4)])


# -- property tests against sympy, an independent exact oracle

_entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def sparse_matrices(draw, rows=None, cols=None, max_dim=7):
    """Sparse rectangular matrices with non-integer entries, zero rows and
    columns, 0 x n and n x 0 shapes; some are products through a narrow
    middle, so that kernels and dependent rows are common."""
    if rows is None:
        rows = draw(st.integers(0, max_dim))
    if cols is None:
        cols = draw(st.integers(0, max_dim))

    def sparse(r, c):
        if not r or not c:
            return RatMatrix.zeros(r, c)
        cells = draw(st.dictionaries(
            st.tuples(st.integers(0, r - 1), st.integers(0, c - 1)),
            _entries, max_size=r * c))
        return RatMatrix(r, c, cells)
    if draw(st.booleans()):
        middle = draw(st.integers(0, 3))
        return sparse(rows, middle) @ sparse(middle, cols)
    return sparse(rows, cols)


def _sympy(mat):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(mat.rows, mat.cols, lambda i, j: sympy.Rational(
        mat[i, j].numerator, mat[i, j].denominator))


def _fractions(vec):
    return tuple(F(int(x.p), int(x.q)) for x in vec)


@ORACLE
@given(sparse_matrices())
def test_elimination_matches_sympy(mat):
    oracle = _sympy(mat)
    assert mat.rank() == oracle.rank()
    assert tuple(mat.pivot_columns()) == oracle.rref()[1]
    assert mat.kernel().basis == tuple(_fractions(v)
                                       for v in oracle.nullspace())


@ORACLE
@given(st.data())
def test_solve_many_round_trip(data):
    mat = data.draw(sparse_matrices())
    k = data.draw(st.integers(0, 3))
    x0 = data.draw(sparse_matrices(rows=mat.cols, cols=k))
    rhs = mat @ x0
    x = mat.solve_many(rhs)
    assert x is not None and mat @ x == rhs
    # a right-hand side drawn freely is solvable iff it adds no rank
    free = data.draw(sparse_matrices(rows=mat.rows, cols=k))
    consistent = _sympy(mat).rank() == \
        _sympy(RatMatrix.hstack([mat, free])).rank()
    x = mat.solve_many(free)
    assert (x is not None) == consistent
    if x is not None:
        assert mat @ x == free


@ORACLE
@given(st.integers(0, 6).flatmap(lambda n: sparse_matrices(rows=n, cols=n)))
def test_inverse_round_trip(mat):
    inv = mat.inverse()
    n = mat.rows
    assert (inv is not None) == (_sympy(mat).rank() == n) == \
        mat.is_invertible()
    if inv is not None:
        assert mat @ inv == RatMatrix.identity(n) == inv @ mat


@ORACLE
@given(sparse_matrices())
def test_a_matrix_is_eliminated_once(mat):
    calls = {"echelon": 0, "rref": 0}

    def counting(name, fn):
        def wrapped(arg):
            calls[name] += 1
            return fn(arg)
        return wrapped
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_row_echelon",
                   counting("echelon", linalg._row_echelon))
        mp.setattr(linalg, "_reduced_rows",
                   counting("rref", linalg._reduced_rows))
        first = (mat.rank(), mat.pivot_columns(), mat.kernel().basis)
        again = (mat.rank(), mat.pivot_columns(), mat.kernel().basis,
                 mat.is_invertible())
    assert first == again[:3]
    assert calls == {"echelon": 1, "rref": 1}


@ORACLE
@given(st.data())
def test_vec_helpers_match_direct_products(data):
    x = data.draw(sparse_matrices())
    left = data.draw(sparse_matrices(cols=x.rows))
    right = data.draw(sparse_matrices(rows=x.cols))
    vec_x = linalg.reshape(x, x.rows * x.cols, 1)
    # row-major: entry (i, j) at coordinate i*cols + j
    assert vec_x.column(0) == tuple(x[i, j] for i in range(x.rows)
                                    for j in range(x.cols))
    assert linalg.reshape(vec_x, x.rows, x.cols) == x

    def vec(mat):
        return linalg.reshape(mat, mat.rows * mat.cols, 1)
    assert linalg.vec_operator(left, right) @ vec_x == vec(left @ x @ right)
    one_r, one_c = RatMatrix.identity(x.rows), RatMatrix.identity(x.cols)
    assert linalg.vec_operator(one_r, right) @ vec_x == vec(x @ right)
    assert linalg.vec_operator(left, one_c) @ vec_x == vec(left @ x)


def test_block_diag_with_empty_blocks():
    a = RatMatrix.from_rows([[1, 2, 0], [0, 0, F(1, 3)]])
    no_rows = RatMatrix.zeros(0, 2)
    no_cols = RatMatrix.zeros(1, 0)
    b = RatMatrix.from_rows([[5, 0], [0, -1]])
    # a 0 x 2 block takes two columns and no row, a 1 x 0 block one row and
    # no column
    assert RatMatrix.block_diag([a, no_rows, no_cols, b]) == RatMatrix(
        5, 7, {(0, 0): 1, (0, 1): 2, (1, 2): F(1, 3), (3, 5): 5, (4, 6): -1})
    assert RatMatrix.block_diag([no_rows, no_cols]) == RatMatrix.zeros(1, 2)
    assert RatMatrix.block_diag([]) == RatMatrix.zeros(0, 0)


def test_from_blocks_sums_overlaps():
    a = RatMatrix.from_rows([[1, 2], [3, F(1, 2)]])
    assert RatMatrix.from_blocks(3, 4, [(0, 0, a), (1, 1, a), (1, 2, a)]) \
        == RatMatrix.from_rows([[1, 2, 0, 0], [3, F(3, 2), 3, 2],
                                [0, 3, F(7, 2), F(1, 2)]])


def test_from_blocks_drops_cancelled_entries():
    a = RatMatrix.from_rows([[1, 2], [0, -1]])
    b = RatMatrix.from_rows([[-1, 0], [0, 1]])
    out = RatMatrix.from_blocks(2, 3, [(0, 1, a), (0, 1, b)])
    assert out == RatMatrix(2, 3, {(0, 2): 2}) and out.nnz() == 1
    assert RatMatrix.from_blocks(2, 2, [(0, 0, a), (0, 0, -a)]).is_zero()


def test_from_blocks_empty_shapes_and_fit():
    one = RatMatrix.identity(1)
    assert RatMatrix.from_blocks(0, 0, []) == RatMatrix.zeros(0, 0)
    assert RatMatrix.from_blocks(2, 3, []) == RatMatrix.zeros(2, 3)
    # 0-row and 0-column blocks fit even on the far edge, and place nothing
    assert RatMatrix.from_blocks(2, 3, [(2, 1, RatMatrix.zeros(0, 2)),
                                        (1, 3, RatMatrix.zeros(1, 0)),
                                        (1, 2, one)]) == \
        RatMatrix(2, 3, {(1, 2): 1})
    assert RatMatrix.from_blocks(0, 3, [(0, 0, RatMatrix.zeros(0, 3))]) == \
        RatMatrix.zeros(0, 3)
    for r, c in ((2, 0), (0, 3), (-1, 0)):
        with pytest.raises(ValueError):
            RatMatrix.from_blocks(2, 3, [(r, c, one)])


@ORACLE
@given(st.lists(sparse_matrices(max_dim=4), min_size=1, max_size=4))
def test_block_diag_matches_block(mats):
    grid = [[m if i == j else RatMatrix.zeros(m.rows, n.cols)
             for j, n in enumerate(mats)] for i, m in enumerate(mats)]
    assert RatMatrix.block_diag(mats) == RatMatrix.block(grid)
    # hstack and vstack against dense rows, on the blocks cut to a common
    # height or width
    h, w = min(m.rows for m in mats), min(m.cols for m in mats)
    low = [linalg.submatrix(m, range(h), range(m.cols)) for m in mats]
    thin = [linalg.submatrix(m, range(m.rows), range(w)) for m in mats]
    wide = RatMatrix.hstack(low)
    assert (wide.rows, wide.cols) == (h, sum(m.cols for m in mats))
    assert wide.to_rows() == [[x for m in low for x in m.to_rows()[i]]
                              for i in range(h)]
    tall = RatMatrix.vstack(thin)
    assert (tall.rows, tall.cols) == (sum(m.rows for m in mats), w)
    assert tall.to_rows() == [row for m in thin for row in m.to_rows()]


@ORACLE
@given(sparse_matrices())
def test_kernel_matrix_columns_are_the_basis(mat):
    ker = mat.kernel()
    basis_matrix = ker.matrix()
    assert (basis_matrix.rows, basis_matrix.cols) == (mat.cols, ker.dim)
    assert tuple(basis_matrix.column(k) for k in range(ker.dim)) == ker.basis
    assert RatMatrix.from_cols(ker.basis, ambient=mat.cols) == basis_matrix
    assert (mat @ basis_matrix).is_zero()


def _dense_cohomology(d_in, d_out):
    """Reference: the earlier dense algorithm, which built one tuple of
    length cols per kernel vector and walked every coordinate of each."""
    pivots = set(d_out.pivot_columns())
    vecs = {j: [F(0)] * d_out.cols for j in range(d_out.cols)
            if j not in pivots}
    for j, v in vecs.items():
        v[j] = F(1)
    for c, row in d_out._rref().items():
        for j, x in row.items():
            if j != c:
                vecs[j][c] = -x
    kernel = [tuple(v) for v in vecs.values()]
    image = {c: k for k, c in enumerate(d_in.pivot_columns())}
    entries = {(i, image[j]): v for (i, j), v in d_in.items() if j in image}
    r = len(image)
    for k, vec in enumerate(kernel):
        for i, x in enumerate(vec):
            if x:
                entries[(i, r + k)] = x
    combined = RatMatrix(d_in.rows, r + len(kernel), entries)
    reps = [kernel[c - r] for c in combined.pivot_columns() if c >= r]
    return len(kernel) - r, reps


@st.composite
def composable_pairs(draw, max_dim=7):
    """(d_in, d_out) with d_out d_in = 0 by construction: d_in maps into the
    first s coordinates and d_out reads only coordinates >= t >= s, both
    conjugated by a random unitriangular change of basis u."""
    def filled(r, c):
        cells = draw(st.lists(_entries, min_size=r * c, max_size=r * c))
        return RatMatrix(r, c, {divmod(k, c): x for k, x in enumerate(cells)})
    n = draw(st.integers(0, max_dim))
    t = draw(st.integers(0, n))
    s = draw(st.integers(0, t))
    upper = filled(n, n)
    nil = RatMatrix(n, n, {(i, j): v for (i, j), v in upper.items() if i < j})
    u = RatMatrix.identity(n) + nil
    u_inv, term = RatMatrix.identity(n), RatMatrix.identity(n)
    for _ in range(n):                     # (1 + N)^-1 = sum (-N)^k, N^n = 0
        term = -(term @ nil)
        u_inv = u_inv + term
    assert u @ u_inv == RatMatrix.identity(n)
    into = RatMatrix(n, s, {(i, i): 1 for i in range(s)})
    out_of = RatMatrix(n - t, n, {(i, t + i): 1 for i in range(n - t)})
    d_in = u @ into @ filled(s, draw(st.integers(0, 4)))
    d_out = filled(draw(st.integers(0, 4)), n - t) @ out_of @ u_inv
    return d_in, d_out


@ORACLE
@given(composable_pairs())
def test_cohomology_matches_dense_reference(pair):
    d_in, d_out = pair
    assert (d_out @ d_in).is_zero()
    assert cohomology(d_in, d_out) == _dense_cohomology(d_in, d_out)


def test_hash_is_cached_and_agrees_with_eq(monkeypatch):
    # equal matrices built from rows, from a dict and from ints hash equal,
    # unequal shapes do not compare equal, and the hash is computed once
    rows = RatMatrix.from_rows([[1, F(1, 2)], [0, 3]])
    entries = RatMatrix(2, 2, {(1, 1): 3, (0, 0): F(2, 2), (0, 1): F(1, 2),
                               (1, 0): 0})
    assert rows == entries and hash(rows) == hash(entries)
    assert {rows: "a"}[entries] == "a"
    assert RatMatrix.zeros(2, 3) != RatMatrix.zeros(3, 2)
    sorted_reads = []
    real_items = RatMatrix.items
    monkeypatch.setattr(RatMatrix, "items",
                        lambda self: sorted_reads.append(1) or real_items(self))
    fresh = rows @ RatMatrix.identity(2)
    assert hash(fresh) == hash(fresh) == hash(rows)
    assert len(sorted_reads) == 1


# -- one exact number type per entry: an int where integral, else a Fraction

def _assert_exact(mat):
    """Every stored entry is nonzero, an int exactly when it is integral and
    otherwise a Fraction with a denominator above one."""
    for v in mat._d.values():
        assert v != 0
        assert type(v) is int or (type(v) is F and v.denominator > 1), v


@st.composite
def typed_twins(draw, rows=None, cols=None, max_dim=5):
    """One matrix entered twice: `mixed` gives each integral value as an int
    or as a Fraction, at random, and `fractions` gives every value as a
    Fraction.  The values include integral Fractions such as 4/2."""
    if rows is None:
        rows = draw(st.integers(0, max_dim))
    if cols is None:
        cols = draw(st.integers(0, max_dim))
    if not rows or not cols:
        return RatMatrix.zeros(rows, cols), RatMatrix.zeros(rows, cols)
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        _entries, max_size=rows * cols))
    as_int = draw(st.lists(st.booleans(), min_size=len(cells),
                           max_size=len(cells)))
    mixed = {k: int(v) if v.denominator == 1 and flag else v
             for (k, v), flag in zip(cells.items(), as_int)}
    return (RatMatrix(rows, cols, mixed),
            RatMatrix(rows, cols, {k: F(v) for k, v in cells.items()}))


def _dense(mat):
    return [[F(x) for x in row] for row in mat.to_rows()]


def _same(result, reference):
    """result (built from mixed inputs) equals reference (from Fractions),
    entry for entry, and both hold their entries in the exact types."""
    _assert_exact(result)
    _assert_exact(reference)
    assert result == reference and hash(result) == hash(reference)


@ORACLE
@given(st.data())
def test_mixed_entry_types_give_equal_exact_sums_products_and_blocks(data):
    a, a_f = data.draw(typed_twins())
    b, b_f = data.draw(typed_twins(rows=a.rows, cols=a.cols))
    c, c_f = data.draw(typed_twins(rows=a.cols))
    for m in (a, a_f):
        _assert_exact(m)
    _same(a, a_f)
    total = a + b
    _same(total, a_f + b_f)
    assert _dense(total) == [[x + y for x, y in zip(r, s)]
                             for r, s in zip(_dense(a_f), _dense(b_f))]
    _same(a - b, a_f - b_f)
    _same(a - a, RatMatrix.zeros(a.rows, a.cols))
    product = a @ c
    _same(product, a_f @ c_f)
    dense_c = _dense(c_f)
    assert _dense(product) == [
        [sum((r[k] * dense_c[k][j] for k in range(a.cols)), F(0))
         for j in range(c.cols)] for r in _dense(a_f)]
    kron = a.kron(c)
    _same(kron, a_f.kron(c_f))
    assert all(kron[i * c.rows + k, j * c.cols + l] == a_f[i, j] * c_f[k, l]
               for i in range(a.rows) for j in range(a.cols)
               for k in range(c.rows) for l in range(c.cols))
    placed = [(0, 0, a), (1, 1, b), (a.rows, 0, c)]
    placed_f = [(0, 0, a_f), (1, 1, b_f), (a.rows, 0, c_f)]
    shape = (a.rows + c.rows + 1, max(a.cols, c.cols) + 1)
    _same(RatMatrix.from_blocks(*shape, placed),
          RatMatrix.from_blocks(*shape, placed_f))
    for scalar in (2, F(1, 2), F(4, 2), -1, 0):
        _same(a.scale(scalar), a_f.scale(F(scalar)))
    _same(-a, -a_f)
    _same(a.transpose(), a_f.transpose())
    _same(linalg.reshape(a, a.rows * a.cols, 1),
          linalg.reshape(a_f, a.rows * a.cols, 1))


@ORACLE
@given(typed_twins(max_dim=6))
def test_mixed_entry_types_give_equal_exact_eliminations(twins):
    mat, mat_f = twins
    assert mat.rank() == mat_f.rank()
    assert mat.pivot_columns() == mat_f.pivot_columns()
    ker, ker_f = mat.kernel().matrix(), mat_f.kernel().matrix()
    _same(ker, ker_f)
    for row in mat._rref().values():
        assert all(type(x) is int or x.denominator > 1 for x in row.values())
    rhs = mat @ RatMatrix.identity(mat.cols)
    _same(mat.solve_many(rhs), mat_f.solve_many(rhs))
    assert mat @ mat.solve_many(rhs) == rhs
    # 1 + M M^T is invertible: v^T (1 + M M^T) v = |v|^2 + |M^T v|^2
    one = RatMatrix.identity(mat.rows)
    inv = (one + mat @ mat.transpose()).inverse()
    _same(inv, (one + mat_f @ mat_f.transpose()).inverse())
    assert (one + mat @ mat.transpose()) @ inv == one


def test_integral_values_are_stored_as_ints():
    mat = RatMatrix.from_rows([[F(4, 2), "3/1", 0.5], [F(0), True, -1]])
    assert mat._d == {(0, 0): 2, (0, 1): 3, (0, 2): F(1, 2), (1, 1): 1,
                      (1, 2): -1}
    _assert_exact(mat)
    assert mat[1, 0] == 0 and type(mat[1, 0]) is int
    assert linalg.exact(F(6, 3)) == 2 and type(linalg.exact(F(6, 3))) is int
    assert linalg.exact(F(1, 3)) == F(1, 3)
    # an RREF row divided by its leading entry stays an int where it divides
    rref = RatMatrix.from_rows([[2, 4, 3]])._rref()
    assert rref == {0: {0: 1, 1: 2, 2: F(3, 2)}}
    assert type(rref[0][1]) is int


def test_memo_keys_from_ints_hit_entries_built_from_fractions(monkeypatch):
    from gscohom import descent, gs as gs_module, presets
    from gscohom.algebra import FinBimodule, FinModule

    def as_fractions(m):
        return RatMatrix(m.rows, m.cols, {k: F(v) for k, v in m.items()})
    # DescentMachine.tensor keys on (arrow, module dim, module action)
    p = presets.v_poset_commutative()
    machine = descent.DescentMachine(p)
    dn = p.algebras["U0"]
    free = FinModule.free(dn)
    built = machine.tensor(
        FinModule(dn, free.dim, [as_fractions(r) for r in free.action]),
        "U01->U0")
    monkeypatch.setattr(descent, "tensor_over", None)     # a miss would fail
    ints = FinModule(dn, free.dim, [RatMatrix(r.rows, r.cols, dict(r.items()))
                                    for r in free.action])
    assert all(type(v) is int for r in ints.action for _, v in r.items())
    assert machine.tensor(ints, "U01->U0") is built
    # GSComplex keys each local Hochschild differential on the bimodule
    gs = gs_module.GSComplex(p)
    sigma = next(s for s in gs.category.nerve(1) if not s.is_degenerate())
    first = gs._local_hoch(sigma, 2)
    bimod = gs.bimodule_along(sigma)
    gs._memo_bimodule_along[sigma.key()] = FinBimodule(
        bimod.left_algebra, bimod.right_algebra, bimod.dim,
        [as_fractions(m) for m in bimod.left],
        [as_fractions(m) for m in bimod.right], check=False)
    monkeypatch.setattr(gs_module, "hoch_differential", None)
    assert gs._local_hoch(sigma, 2) is first


def test_memo_keeps_one_table_per_instance():
    calls = []

    class Squares:
        @linalg.memo()
        def square(self, x):
            calls.append(x)
            return [x * x]

        @linalg.memo(key=lambda self, x, scale=1: (abs(x), scale))
        def scaled(self, x, scale=1):
            calls.append((x, scale))
            return abs(x) * scale

    a, b = Squares(), Squares()
    assert a.square(3) is a.square(3) and calls == [3]
    assert b.square(3) == [9] and calls == [3, 3]
    assert a._memo_square == {(3,): [9]} and "_memo_scaled" not in vars(a)
    assert a.scaled(-2) == a.scaled(2) == 2 and calls[2:] == [(-2, 1)]
    assert a.scaled(2, scale=3) == 6 and a._memo_scaled == {(2, 1): 2,
                                                            (2, 3): 6}


def test_memo_tables_die_with_their_instance():
    # a memo held outside the instance (a global functools.cache) would
    # keep the complex and the machine alive
    import gc
    import weakref
    from gscohom import presets
    from gscohom.algebra import FinModule
    from gscohom.descent import DescentMachine, verify_pseudonatural
    from gscohom.gs import GSComplex
    gs = GSComplex(presets.v_poset_triangular())
    assert gs.cohomology(2, "normalized_reduced")[0] >= 0
    twisted, _ = presets.twisted_diamond()
    machine = DescentMachine(twisted)
    rep = verify_pseudonatural(machine, {o: [FinModule.free(a)] for o, a
                                         in twisted.algebras.items()})
    assert rep["checked"] > 0
    refs = [weakref.ref(gs), weakref.ref(machine)]
    del gs, machine
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_integral_entries_print_as_integers_in_json():
    from gscohom.project import matrix_json, rat_str, vector_json
    mat = RatMatrix.from_rows([[3, F(6, 2)], [F(-1, 2), 0]])
    assert type(mat[0, 0]) is int and type(mat[0, 1]) is int
    assert matrix_json(mat) == [["3", "3"], ["-1/2", "0"]]
    assert vector_json(mat.column(0)) == ["3", "-1/2"]
    assert rat_str(3) == rat_str(F(3)) == "3"
