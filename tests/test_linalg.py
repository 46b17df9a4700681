import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from gscohom import linalg
from gscohom.algebra import quotient_by_columns
from gscohom.linalg import (RatMatrix, Subspace, cohomology,
                            ComplexViolation, NotASubcomplex, DependentBasis,
                            VerificationFailed, subcomplex_cohomology)
from conftest import ORACLE, random_matrix
from oracles import (TupleMatrix, contains, rref, rref_cohomology,
                     rref_inverse, rref_kernel, rref_quotient,
                     rref_solve_many, tuple_cohomology, tuple_submatrix)

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


def random_complex(rng, shuffle=False):
    """(d_in, d_out) with d_out . d_in = 0: d_out sparse with small
    entries, d_in its kernel basis times a random matrix with Fraction
    entries, so im d_in is a random subspace of ker d_out, spanned with
    repeats and zero columns.  With shuffle=True the rows of d_out come in
    a random order."""
    rows, cols = rng.randint(0, 6), rng.randint(1, 7)
    d_out = RatMatrix(rows, cols, {
        (i, j): rng.randint(-2, 2) for i in range(rows) for j in range(cols)
        if rng.random() < 0.4})
    if shuffle:
        order = list(range(rows))
        rng.shuffle(order)
        d_out = RatMatrix(rows, cols, {(order[i], j): v
                                       for (i, j), v in d_out.items()})
    kernel = d_out.kernel().matrix()
    width = rng.randint(0, 4)
    mix = RatMatrix(kernel.cols, width, {
        (i, j): F(rng.randint(-3, 3), rng.randint(1, 4))
        for i in range(kernel.cols) for j in range(width)
        if rng.random() < 0.5})
    return kernel @ mix, d_out


def _typed_reps(result):
    betti, reps = result
    return betti, [[(type(x), x) for x in v] for v in reps]


def test_cohomology_matches_the_rref_oracle_on_random_complexes(rng):
    # the complex 0 -> C^0 -> C^1 -> C^2 -> 0 of each random pair: a sweep
    # H^0, H^1, H^2 on one set of matrices, where each degree clears the
    # columns that the degree before accounts for, the same degrees in
    # reverse order on fresh matrices, which clear nothing, and the RREF,
    # the kernel matrix and the pivots of [image | kernel] give the same
    # Betti numbers and representatives, entry for entry and type for
    # type, with Fraction entries in d_in and with the rows of d_out in
    # any order
    fractions = nonzero = cleared = 0
    for k in range(300):
        d_in, d_out = random_complex(rng, shuffle=k % 2)
        fractions += any(type(v) is F for _, v in d_in.items())

        def degrees():
            a, b = [RatMatrix(m.rows, m.cols, dict(m.items()))
                    for m in (d_in, d_out)]
            return [(RatMatrix.zeros(a.cols, 0), a), (a, b),
                    (b, RatMatrix.zeros(0, b.rows))]
        sweep = [_typed_reps(cohomology(*pair)) for pair in degrees()]
        backwards = [_typed_reps(cohomology(*pair))
                     for pair in reversed(degrees())][::-1]
        oracle = [_typed_reps(rref_cohomology(*pair)) for pair in degrees()]
        assert sweep == backwards == oracle
        nonzero += sweep[1][0] > 0
        cleared += d_in.rank() > 0
    assert fractions > 50 and nonzero > 50 and cleared > 100


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
    assert contains(s, (F(2), F(0), F(2)))
    assert not contains(s, (F(1), F(1), F(1)))


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
                            unflatten)


def outcome(call):
    try:
        call()
    except (ShapeMismatch, IndexError) as exc:
        return type(exc).__name__
    return "passed"


m = RatMatrix.identity(2)
wide = RatMatrix.zeros(2, 3)
print(outcome(lambda: m.solve((1, 2, 3))))
print(outcome(lambda: m.solve_many(RatMatrix.identity(3))))
print(outcome(lambda: wide.inverse()))
print(outcome(lambda: Subspace(2, [(1, 0, 0)])))
print(outcome(lambda: cohomology(wide.transpose(), m)))
print(outcome(lambda: unflatten((0,) * 6, 4, 2)))
print(outcome(lambda: RatMatrix(-1, 2, {})))
print(outcome(lambda: RatMatrix(2, 2, [[1, 2, 3]])))
print(outcome(lambda: RatMatrix(2, 2, {(2, 0): 1})))
print(outcome(lambda: RatMatrix.from_rows([[1, 2], [3]])))
print(outcome(lambda: RatMatrix.from_cols([(1, 2), (3,)])))
print(outcome(lambda: m + wide))
print(outcome(lambda: wide @ m))
print(outcome(lambda: m.apply((1, 2, 3))))
print(outcome(lambda: RatMatrix.hstack([m, RatMatrix.zeros(3, 1)])))
print(outcome(lambda: RatMatrix.vstack([m, wide])))
print(outcome(lambda: RatMatrix.block([[m, None], [wide, m]])))
print(outcome(lambda: RatMatrix.block([[m, None], [None, None]])))
print(outcome(lambda: RatMatrix.block([[m, None], [wide, None]])))
print(outcome(lambda: RatMatrix.block([])))
print(outcome(lambda: RatMatrix.hstack([])))
print(outcome(lambda: RatMatrix.vstack([])))
print(outcome(lambda: m[2, 0]))
print(outcome(lambda: m.column(-1)))
print(outcome(lambda: unflatten((0,) * 6, 3, 2)))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_shape_preconditions_raise_under_python_O(flags):
    # solve, solve_many, inverse, Subspace, cohomology, unflatten, the
    # constructors, +, @, apply and the stacking of blocks given operands
    # whose dimensions do not fit, entries outside a matrix's shape given
    # as rows and as a dict, block grids with an empty row, an empty
    # column or no rows, empty stacks, and an entry and a column out of
    # range; the last unflatten fits
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, *flags, "-c", _SHAPES_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == \
        ["ShapeMismatch"] * 22 + ["IndexError"] * 2 + ["passed"]
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
    calls = []
    real = linalg._row_echelon
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_row_echelon",
                   lambda rows: calls.append(1) or real(rows))
        first = (mat.rank(), mat.pivot_columns(), mat.kernel().basis)
        again = (mat.rank(), mat.pivot_columns(), mat.kernel().basis,
                 mat.is_invertible())
    assert first == again[:3]
    assert calls == [1]


@ORACLE
@given(st.data())
def test_vec_helpers_match_direct_products(data):
    x = data.draw(sparse_matrices())
    left = data.draw(sparse_matrices(cols=x.rows))
    right = data.draw(sparse_matrices(rows=x.cols))
    vec = linalg.flatten
    vec_x = vec(x)
    # column-major: entry (i, j) at coordinate j*rows + i
    assert vec_x == tuple(x[i, j] for j in range(x.cols)
                          for i in range(x.rows))
    assert linalg.unflatten(vec_x, x.rows, x.cols) == x
    # vec(L X R) = (R^T (x) L) vec X
    assert linalg.vec_operator(left, right).apply(vec_x) == \
        vec(left @ x @ right)
    one_r, one_c = RatMatrix.identity(x.rows), RatMatrix.identity(x.cols)
    assert linalg.vec_operator(one_r, right).apply(vec_x) == vec(x @ right)
    assert linalg.vec_operator(left, one_c).apply(vec_x) == vec(left @ x)


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
    length cols per kernel vector and walked every coordinate of each; its
    eliminations are the oracle's Gauss-Jordan (`oracles.rref`)."""
    reduced = rref(d_out)
    vecs = {j: [F(0)] * d_out.cols for j in range(d_out.cols)
            if j not in reduced}
    for j, v in vecs.items():
        v[j] = F(1)
    for c, row in reduced.items():
        for j, x in row.items():
            if j != c:
                vecs[j][c] = -x
    kernel = [tuple(v) for v in vecs.values()]
    image = {c: k for k, c in enumerate(rref(d_in))}
    entries = {(i, image[j]): v for (i, j), v in d_in.items() if j in image}
    r = len(image)
    for k, vec in enumerate(kernel):
        for i, x in enumerate(vec):
            if x:
                entries[(i, r + k)] = x
    combined = RatMatrix(d_in.rows, r + len(kernel), entries)
    reps = [kernel[c - r] for c in rref(combined) if c >= r]
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
    """No stored column is empty, and every stored entry is nonzero, an int
    exactly when it is integral and otherwise a Fraction with a denominator
    above one."""
    for col in mat._c.values():
        assert col
        for v in col.values():
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
    assert linalg.flatten(a) == linalg.flatten(a_f)
    _same(linalg.unflatten(linalg.flatten(a_f), a.rows, a.cols), a_f)


@ORACLE
@given(typed_twins(max_dim=6))
def test_mixed_entry_types_give_equal_exact_eliminations(twins):
    mat, mat_f = twins
    assert mat.rank() == mat_f.rank()
    assert mat.pivot_columns() == mat_f.pivot_columns()
    ker, ker_f = mat.kernel().matrix(), mat_f.kernel().matrix()
    _same(ker, ker_f)
    # the kernel columns at every other free column, last first
    pivots = set(mat.pivot_columns())
    free = [j for j in range(mat.cols) if j not in pivots][::-2]
    _same(mat._kernel_columns(free), mat_f._kernel_columns(free))
    rhs = mat @ RatMatrix.identity(mat.cols)
    _same(mat.solve_many(rhs), mat_f.solve_many(rhs))
    assert mat @ mat.solve_many(rhs) == rhs
    # 1 + M M^T is invertible: v^T (1 + M M^T) v = |v|^2 + |M^T v|^2
    one = RatMatrix.identity(mat.rows)
    inv = (one + mat @ mat.transpose()).inverse()
    _same(inv, (one + mat_f @ mat_f.transpose()).inverse())
    assert (one + mat @ mat.transpose()) @ inv == one


def _typed(mat):
    """The shape of a matrix and its entries with their types (None stays
    None)."""
    return None if mat is None else \
        (mat.rows, mat.cols, [(k, type(v), v) for k, v in mat.items()])


@ORACLE
@given(st.data())
def test_read_offs_match_the_gauss_jordan_oracle(data):
    # kernel, solve_many, inverse and quotient_by_columns give what the
    # earlier library read off an RREF, here the RREF of an independent
    # Gauss-Jordan elimination: entry for entry and type for type, on
    # sparse matrices and on both twins of a matrix of mixed entry types,
    # for consistent and inconsistent systems and singular matrices
    sparse = data.draw(sparse_matrices())
    mat, mat_f = data.draw(typed_twins())
    for m in (sparse, mat, mat_f):
        assert _typed(m.kernel().matrix()) == _typed(rref_kernel(m))
        k = data.draw(st.integers(0, 3))
        x0 = data.draw(sparse_matrices(rows=m.cols, cols=k))
        free = data.draw(sparse_matrices(rows=m.rows, cols=k))
        for rhs in (m @ x0, free):
            assert _typed(m.solve_many(rhs)) == \
                _typed(rref_solve_many(m, rhs))
        gram = m @ m.transpose()
        squares = [gram, RatMatrix.identity(m.rows) + gram]
        for square in squares + ([m] if m.rows == m.cols else []):
            assert _typed(square.inverse()) == _typed(rref_inverse(square))
        assert [_typed(x) for x in quotient_by_columns(m.rows, m)] == \
            [_typed(x) for x in rref_quotient(m.rows, m)]


# -- the column-keyed layout against the tuple-keyed oracle: every operation,
# entry for entry and type for type

def _twin(mat):
    """The TupleMatrix of mat, its entries read one at a time (mat[i, j])."""
    return TupleMatrix(mat.rows, mat.cols, {
        (i, j): mat[i, j] for i in range(mat.rows) for j in range(mat.cols)})


def _agrees(mat, oracle):
    """mat keeps no empty column and no zero entry, and holds the oracle's
    entries in the oracle's types, in row-major order, with its hash."""
    _assert_exact(mat)
    assert _typed(mat) == _typed(oracle)
    assert hash(mat) == hash(oracle)


@ORACLE
@given(st.data())
def test_constructors_match_the_tuple_keyed_oracle(data):
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    cells = data.draw(st.dictionaries(
        st.tuples(st.integers(0, max(rows - 1, 0)),
                  st.integers(0, max(cols - 1, 0))),
        _entries, max_size=rows * cols)) if rows and cols else {}
    as_int = data.draw(st.lists(st.booleans(), min_size=len(cells),
                                max_size=len(cells)))
    mixed = {k: int(v) if v.denominator == 1 and flag else v
             for (k, v), flag in zip(cells.items(), as_int)}
    listed = [[mixed.get((i, j), 0) for j in range(cols)]
              for i in range(rows)]
    by_cols = [[row[j] for row in listed] for j in range(cols)]
    mat = RatMatrix(rows, cols, mixed)
    _agrees(mat, TupleMatrix(rows, cols, mixed))
    _agrees(RatMatrix(rows, cols, listed), TupleMatrix(rows, cols, listed))
    _agrees(RatMatrix.from_cols(by_cols, ambient=rows),
            TupleMatrix.from_cols(by_cols, ambient=rows))
    if rows:
        _agrees(RatMatrix.from_rows(listed), TupleMatrix.from_rows(listed))
    _agrees(RatMatrix.zeros(rows, cols), TupleMatrix.zeros(rows, cols))
    _agrees(RatMatrix.identity(rows), TupleMatrix.identity(rows))
    # equality and hashing mean what they meant on the oracle
    other = data.draw(typed_twins(rows=rows, cols=cols))[0]
    assert (mat == other) == (_twin(mat) == _twin(other))
    assert mat == RatMatrix(rows, cols, {k: F(v) for k, v in cells.items()})


@ORACLE
@given(st.data())
def test_arithmetic_matches_the_tuple_keyed_oracle(data):
    for a in (data.draw(sparse_matrices()), data.draw(typed_twins())[0]):
        b = data.draw(typed_twins(rows=a.rows, cols=a.cols))[0]
        c = data.draw(sparse_matrices(rows=a.cols, max_dim=5))
        ta, tb, tc = _twin(a), _twin(b), _twin(c)
        _agrees(a, ta)
        _agrees(a + b, ta + tb)
        _agrees(a - b, ta - tb)
        _agrees(a - a, ta - ta)
        _agrees(-a, -ta)
        for x in (2, F(1, 2), F(-4, 2), 0):
            _agrees(a.scale(x), ta.scale(x))
        _agrees(a @ c, ta @ tc)
        _agrees(a @ RatMatrix.identity(a.cols), ta)
        _agrees(a.kron(c), ta.kron(tc))
        for k in range(3):
            one, t_one = RatMatrix.identity(k), TupleMatrix.identity(k)
            _agrees(one.kron(a), t_one.kron(ta))
            _agrees(a.kron(one), ta.kron(t_one))
        _agrees(RatMatrix.from_rows([[F(3, 2)]]).kron(c),
                TupleMatrix.from_rows([[F(3, 2)]]).kron(tc))
        # blocks that overlap, and a block at row 0 whose columns are shared
        placed = [(0, 0, a), (1, 1, b), (a.rows, 0, c), (0, 1, a)]
        shape = (a.rows + c.rows + 1, max(a.cols, c.cols) + 1)
        _agrees(RatMatrix.from_blocks(*shape, placed),
                TupleMatrix.from_blocks(*shape, [
                    (r, k, _twin(m)) for r, k, m in placed]))
        _agrees(a.transpose(), ta.transpose())
        vec = tuple(data.draw(st.lists(_entries, min_size=a.cols,
                                       max_size=a.cols)))
        assert [(type(x), x) for x in a.apply(vec)] == \
            [(type(x), x) for x in ta.apply(vec)]
        row_idx = data.draw(st.permutations(range(a.rows)))[
            :data.draw(st.integers(0, a.rows))]
        col_idx = data.draw(st.permutations(range(a.cols)))[
            :data.draw(st.integers(0, a.cols))]
        _agrees(linalg.submatrix(a, row_idx, col_idx),
                tuple_submatrix(ta, row_idx, col_idx))
        # the operands are unchanged by all of it
        _agrees(a, ta)
        _agrees(c, tc)


@ORACLE
@given(st.data())
def test_eliminations_match_the_tuple_keyed_oracle(data):
    for m in (data.draw(sparse_matrices()), data.draw(typed_twins())[0]):
        tm = _twin(m)
        _agrees(m.kernel().matrix(), tm.kernel())
        assert m.rank() == tm.rank()
        k = data.draw(st.integers(0, 3))
        x0 = data.draw(sparse_matrices(rows=m.cols, cols=k))
        free = data.draw(sparse_matrices(rows=m.rows, cols=k))
        for rhs in (m @ x0, free):
            x, tx = m.solve_many(rhs), tm.solve_many(_twin(rhs))
            assert (x is None) == (tx is None)
            if x is not None:
                _agrees(x, tx)
        cleared = frozenset(data.draw(st.sets(st.integers(0, m.cols))))
        assert m._trailing_rows() == tm._trailing_rows()
        assert RatMatrix(m.rows, m.cols, dict(m.items()))._trailing_rows(
            cleared) == tm._trailing_rows(cleared)
        _agrees(m, tm)
    d_in, d_out = data.draw(composable_pairs())
    assert _typed_reps(cohomology(d_in, d_out)) == \
        _typed_reps(tuple_cohomology(_twin(d_in), _twin(d_out)))


def test_integral_values_are_stored_as_ints():
    mat = RatMatrix.from_rows([[F(4, 2), "3/1", 0.5], [F(0), True, -1]])
    assert mat._c == {0: {0: 2}, 1: {0: 3, 1: 1}, 2: {0: F(1, 2), 1: -1}}
    _assert_exact(mat)
    assert mat[1, 0] == 0 and type(mat[1, 0]) is int
    assert linalg.exact(F(6, 3)) == 2 and type(linalg.exact(F(6, 3))) is int
    assert linalg.exact(F(1, 3)) == F(1, 3)
    # a kernel entry divided by its leading entry stays an int where it
    # divides
    ker = RatMatrix.from_rows([[2, 4, 3]])._kernel_columns([1, 2])
    assert ker._c == {0: {0: -2, 1: 1}, 1: {0: F(-3, 2), 2: 1}}
    assert type(ker[0, 0]) is int


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
    k, sigma = next((k, s) for k, s in enumerate(gs.category.nerve(1))
                    if not s.is_degenerate())
    bimod = gs._bimodule(sigma.codomain, sigma.domain,
                         gs._restrictions(1)[k])
    first = gs._local_hoch(sigma.codomain, bimod, 2)
    fractions = FinBimodule(
        bimod.left_algebra, bimod.right_algebra, bimod.dim,
        [as_fractions(m) for m in bimod.left],
        [as_fractions(m) for m in bimod.right], check=False)
    monkeypatch.setattr(gs_module, "hoch_differential", None)
    assert gs._local_hoch(sigma.codomain, fractions, 2) is first


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


def test_memo_hits_return_the_stored_object():
    # a hit returns the very object the one call stored, None included;
    # a call that raises stores nothing and its error carries no trace of
    # the missed lookup
    calls = []

    class Inverses:
        @linalg.memo()
        def inverse(self, x):
            calls.append(x)
            if x == "bad":
                raise VerificationFailed("no inverse of %s" % x)
            return None if x == 0 else [F(1, x)]

    inv = Inverses()
    first = inv.inverse(4)
    assert all(inv.inverse(4) is first for _ in range(3)) and calls == [4]
    assert inv.inverse(0) is None and inv.inverse(0) is None
    assert calls == [4, 0]
    for _ in range(2):
        with pytest.raises(VerificationFailed) as caught:
            inv.inverse("bad")
        assert caught.value.__context__ is None
    assert calls == [4, 0, "bad", "bad"]
    assert inv._memo_inverse == {(4,): [F(1, 4)], (0,): None}
    assert "_memo_inverse" not in vars(Inverses())


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


def test_cohomology_trips_when_a_representative_is_no_cocycle(monkeypatch):
    # only a broken back-substitution reaches the check: skip the echelon
    # rows, so the representative of ker [1 1] keeps its free coordinate
    # and misses its pivot coordinate
    real = linalg._back_substitute
    monkeypatch.setattr(linalg, "_back_substitute",
                        lambda echelon, free, cols: real({}, free, cols))
    with pytest.raises(VerificationFailed,
                       match=r"^a representative is not a cocycle: "
                             r"d_out \. R != 0$"):
        cohomology(RatMatrix.zeros(2, 0), RatMatrix.from_rows([[1, 1]]))
    monkeypatch.undo()
    assert cohomology(RatMatrix.zeros(2, 0),
                      RatMatrix.from_rows([[1, 1]])) == (1, [(-1, 1)])


def _corrupted_columns(monkeypatch, rows, column, line):
    """Make the column elimination of every matrix with the given number
    of rows read `line`, a column {row: int}, in place of the column at
    place `column` of those it eliminates (`_integer_columns`)."""
    real = RatMatrix._integer_columns

    def corrupted(self, cleared):
        lines = real(self, cleared)
        if self.rows == rows:
            lines[column] = line
        return lines
    monkeypatch.setattr(RatMatrix, "_integer_columns", corrupted)


def test_cohomology_trips_when_the_rows_at_t_out_are_dependent(monkeypatch):
    # only a broken column elimination reaches the check: read column 1 of
    # [[1 1 0], [1 1 0]] as (1, 0), so T_out = {0, 1} although the rank is
    # 1, and the two rows at T_out are dependent
    def pair():
        return RatMatrix.zeros(3, 0), RatMatrix.from_rows([[1, 1, 0],
                                                           [1, 1, 0]])
    _corrupted_columns(monkeypatch, 2, 1, {0: 1})
    with pytest.raises(VerificationFailed,
                       match=r"^the rows of d_out at its 2 trailing rows "
                             r"have rank 1$"):
        cohomology(*pair())
    monkeypatch.undo()
    assert cohomology(*pair()) == (2, [(-1, 1, 0), (0, 0, 1)])


def test_cohomology_trips_when_a_cleared_column_is_a_pivot(monkeypatch):
    # only a broken column elimination reaches the check: read the image
    # (-1, 1, 0) of d_in as (1, 0, 0), so T_in = {0}, the pivot column of
    # d_out = [1 1 0], is cleared from it
    def pair():
        return (RatMatrix.from_cols([(-1, 1, 0)]),
                RatMatrix.from_rows([[1, 1, 0]]))
    _corrupted_columns(monkeypatch, 3, 0, {0: 1})
    with pytest.raises(VerificationFailed,
                       match=r"^a trailing row of im d_in is a pivot column "
                             r"of d_out$"):
        cohomology(*pair())
    monkeypatch.undo()
    assert cohomology(*pair()) == (1, [(0, 0, 1)])
