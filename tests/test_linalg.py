from fractions import Fraction as F

import pytest

from gscohom.linalg import (RatMatrix, Subspace, cohomology,
                            ComplexViolation, NotASubcomplex,
                            subcomplex_cohomology)
from conftest import random_matrix


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
    # a basis: span((1, 1)) in degree 1 is closed, but its partner in
    # degree 0 maps outside it
    basis = {0: RatMatrix.zeros(1, 0), 1: RatMatrix.from_cols([(F(1), F(1))]),
             2: RatMatrix.zeros(0, 0)}.get
    assert subcomplex_cohomology(diffs.get, 1, basis) == (1, [(F(1), F(1))])
    leaky = {0: RatMatrix.identity(1), 1: RatMatrix.from_cols([(F(0), F(1))]),
             2: RatMatrix.zeros(0, 0)}.get
    with pytest.raises(NotASubcomplex):
        subcomplex_cohomology(diffs.get, 1, leaky)
    with pytest.raises(NotASubcomplex):
        subcomplex_cohomology(diffs.get, 0, {0: [0], 1: [1]}.get)
