from fractions import Fraction as F
from functools import partial
from itertools import product

import pytest

from gscohom import linalg
from gscohom.algebra import AlgebraHom, FinAlgebra, FinBimodule
from gscohom.linalg import (RatMatrix, NotASubcomplex, Subspace,
                            subcomplex_cohomology, unflatten, unit_vector,
                            vec_operator)
from gscohom.hochschild import (HCochain, d_hoch, hoch_differential,
                                is_normalized, normalized_coordinates,
                                hh_algebra, regular_bimodule,
                                is_algebra_deformation,
                                deformation_cocycle_check)
from gscohom import presets
from conftest import random_matrix
from oracles import (algebra_deformation_equivalence, cochain_value,
                     contains, kron_hoch_differential, op_cochain,
                     rref_cohomology)


def algebras():
    return [presets.dual_numbers(), presets.upper_triangular(),
            presets.rationals(), presets.two_points()]


def test_d0_is_commutator():
    ut = presets.upper_triangular()
    bim = regular_bimodule(ut)
    x = (F(0), F(1), F(0))     # e12
    phi = HCochain(ut, bim, 0, RatMatrix.from_cols([x]))
    d = d_hoch(phi)
    for i in range(3):
        e = tuple(F(1) if t == i else F(0) for t in range(3))
        expected = tuple(a - b for a, b in zip(ut.mul(e, x), ut.mul(x, e)))
        assert cochain_value(d, (i,)) == expected


def test_d0_vanishes_for_commutative():
    dn = presets.dual_numbers()
    bim = regular_bimodule(dn)
    phi = HCochain(dn, bim, 0, RatMatrix.from_cols([(F(2), F(5))]))
    assert d_hoch(phi).is_zero()


def test_multiplication_is_a_cocycle_but_not_normalized():
    for a in algebras():
        bim = regular_bimodule(a)
        m = HCochain(a, bim, 2, a.mult_matrix())
        assert d_hoch(m).is_zero()        # associativity
        assert not is_normalized(m)       # m(1, a) = a != 0
    assert is_normalized(HCochain(presets.dual_numbers(),
                                  regular_bimodule(presets.dual_numbers()),
                                  2, RatMatrix.zeros(2, 4)))


def unit_insertions(algebra, m_dim, n):
    """The maps on flat n-cochains that put the unit into each slot i < n,
    phi -> phi o (1_{d^i} (x) u (x) 1_{d^{n-1-i}}), stacked: their common
    kernel is the normalized cochains."""
    d, one = algebra.dim, RatMatrix.identity
    unit = RatMatrix.from_cols([algebra.unit])
    return RatMatrix.vstack([vec_operator(one(m_dim), one(d ** i).kron(
        unit).kron(one(d ** (n - 1 - i)))) for i in range(n)])


@pytest.mark.parametrize("algebra", algebras(), ids=lambda a: a.name)
def test_unit_insertion_kernel_is_the_normalized_coordinates(algebra):
    # with a basis unit, the identity of is_normalized and the coordinate
    # rule of normalized_coordinates pick out the same subspace
    bim = regular_bimodule(algebra)
    m, d = bim.dim, algebra.dim
    for n in range(1, 4):
        kernel = unit_insertions(algebra, m, n).kernel()
        keep = normalized_coordinates(algebra, m, n)
        coords = Subspace(m * d ** n, [unit_vector(m * d ** n, k)
                                       for k in keep])
        assert kernel.dim == coords.dim, (algebra.name, n)
        assert all(contains(kernel, v) for v in coords.basis)
        for k in set(range(m * d ** n)) - set(keep):
            phi = unflatten(unit_vector(m * d ** n, k), m, d ** n)
            assert not is_normalized(HCochain(algebra, bim, n, phi))
        for v in kernel.basis:
            phi = unflatten(v, m, d ** n)
            assert is_normalized(HCochain(algebra, bim, n, phi))


def test_normalization_with_a_unit_that_is_no_basis_vector():
    # Q x Q with the unit (1, 1): normalization is no coordinate condition
    qq = FinAlgebra(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])
    assert qq.unit_index() is None
    bim = regular_bimodule(qq)
    assert not is_normalized(HCochain(qq, bim, 2, qq.mult_matrix()))
    kernel = unit_insertions(qq, 2, 2).kernel()
    assert kernel.dim == 2      # (d - 1)^n words times dim M
    flat = tuple(map(sum, zip(*kernel.basis)))
    phi = HCochain(qq, bim, 2, unflatten(flat, 2, 4))
    assert not phi.is_zero() and is_normalized(phi)
    # phi(u, e_j) = phi(e_0, e_j) + phi(e_1, e_j), and so in the other slot
    zero = (0, 0)
    for j in range(2):
        for first, second in (((0, j), (1, j)), ((j, 0), (j, 1))):
            assert tuple(a + b for a, b in zip(
                cochain_value(phi, first), cochain_value(phi, second))) == zero
    assert deformation_cocycle_check(qq, RatMatrix.zeros(2, 4))
    assert not deformation_cocycle_check(qq, qq.mult_matrix())


def test_d_squared_zero_full_bases():
    for a in algebras():
        bim = regular_bimodule(a)
        for n in range(0, 3):
            dn = hoch_differential(a, bim, n)
            dn1 = hoch_differential(a, bim, n + 1)
            assert (dn1 @ dn).is_zero(), (a.name, n)


def conjugated_bimodule(algebra):
    """The regular bimodule of the algebra in the basis given by the
    columns of an invertible P: actions P^-1 L_a P and P^-1 R_a P, most of
    their entries Fractions."""
    bim = regular_bimodule(algebra)
    d = algebra.dim
    p = RatMatrix(d, d, {(i, j): i + 2 if i == j else 1
                         for i in range(d) for j in range(i, d)})
    p_inv = p.inverse()
    return FinBimodule(algebra, algebra, d,
                       [p_inv @ m @ p for m in bim.left],
                       [p_inv @ m @ p for m in bim.right])


def test_word_writer_matches_the_kronecker_sum():
    # entry for entry, the regular bimodule, a pulled-back one and one with
    # Fraction actions, n <= 5
    ut = presets.upper_triangular()
    pulled = FinBimodule.along(AlgebraHom(
        ut, presets.two_points(), RatMatrix.from_rows([[1, 0, 0],
                                                       [0, 0, 1]])))
    cases = [(a, regular_bimodule(a)) for a in algebras()] + \
        [(a, conjugated_bimodule(a)) for a in algebras()] + [(ut, pulled)]
    assert any(type(v) is F for _, v in cases[-2][1].left[1].items())
    for algebra, bim in cases:
        for n in range(6):
            assert hoch_differential(algebra, bim, n) == \
                kron_hoch_differential(algebra, bim, n), (algebra.name, n)


def test_hh_matches_the_rref_oracle(monkeypatch):
    # Betti numbers and representative cochains, full and normalized
    def table():
        return [(betti, [r.matrix for r in reps])
                for a in algebras() for bim in (regular_bimodule(a),
                                                conjugated_bimodule(a))
                for normalized in (False, True) for n in range(5)
                if not normalized or a.unit_index() is not None
                for betti, reps in [hh_algebra(a, bim, n, normalized)]]
    new = table()
    monkeypatch.setattr(linalg, "cohomology", rref_cohomology)
    assert table() == new
    assert sum(betti for betti, _ in new) > 10


def test_op_examples():
    dn = presets.dual_numbers()
    bim = regular_bimodule(dn)
    # n = 0: m -> -m
    x = HCochain(dn, bim, 0, RatMatrix.from_cols([(F(1), F(2))]))
    assert op_cochain(x).matrix == -x.matrix
    # n = 1: unchanged
    phi1 = HCochain(dn, bim, 1, RatMatrix.from_rows([[1, 2], [3, 4]]))
    assert op_cochain(phi1).matrix == phi1.matrix
    # n = 2: swap
    phi2 = HCochain(dn, bim, 2, RatMatrix.from_rows([[1, 2, 3, 4],
                                                     [5, 6, 7, 8]]))
    op2 = op_cochain(phi2)
    for w in product(range(2), repeat=2):
        assert cochain_value(op2, w) == \
            cochain_value(phi2, tuple(reversed(w)))
    # n = 3: negated reversal
    phi3 = HCochain(dn, bim, 3,
                    RatMatrix.from_rows([list(range(8)), list(range(8, 16))]))
    op3 = op_cochain(phi3)
    for w in product(range(2), repeat=3):
        assert cochain_value(op3, w) == tuple(
            -v for v in cochain_value(phi3, tuple(reversed(w))))


def test_op_is_involution_and_chain_map(rng):
    for a in (presets.dual_numbers(), presets.upper_triangular()):
        bim = regular_bimodule(a)
        for n in (1, 2):
            mat = random_matrix(rng, a.dim, a.dim ** n)
            phi = HCochain(a, bim, n, mat)
            opop = op_cochain(op_cochain(phi))
            assert opop.matrix == phi.matrix
            assert op_cochain(d_hoch(phi)).matrix == \
                d_hoch(op_cochain(phi)).matrix


def test_hh_dual_numbers_oracle():
    dn = presets.dual_numbers()
    bim = regular_bimodule(dn)
    dims = [hh_algebra(dn, bim, n)[0] for n in range(5)]
    assert dims == [2, 1, 1, 1, 1]
    dims_norm = [hh_algebra(dn, bim, n, normalized=True)[0] for n in range(5)]
    assert dims_norm == dims


def test_hh_separable_and_base():
    q = presets.rationals()
    bim = regular_bimodule(q)
    assert hh_algebra(q, bim, 0)[0] == 1
    for n in (1, 2, 3):
        assert hh_algebra(q, bim, n)[0] == 0
    qxq = presets.two_points()
    bim2 = regular_bimodule(qxq)
    assert hh_algebra(qxq, bim2, 0)[0] == 2
    for n in (1, 2):
        assert hh_algebra(qxq, bim2, n)[0] == 0


def test_hh_representatives_are_cocycles():
    dn = presets.dual_numbers()
    bim = regular_bimodule(dn)
    for n in (1, 2):
        _, reps = hh_algebra(dn, bim, n)
        for rep in reps:
            assert d_hoch(rep).is_zero()


def test_normalized_betti_agrees_on_noncommutative():
    ut = presets.upper_triangular()
    bim = regular_bimodule(ut)
    for n in range(0, 3):
        full = hh_algebra(ut, bim, n)[0]
        norm = hh_algebra(ut, bim, n, normalized=True)[0]
        assert full == norm


def test_first_order_deformation_round_trip(rng):
    dn = presets.dual_numbers()
    bim = regular_bimodule(dn)
    # direction 1: cocycles yield associative unital Q[eps]-algebras
    _, reps = hh_algebra(dn, bim, 2, normalized=True)
    for rep in reps:
        assert is_algebra_deformation(dn, rep.matrix)
    # both verdicts agree on random candidates
    agreements = 0
    for _ in range(25):
        m1 = random_matrix(rng, 2, 4, span=2)
        assert is_algebra_deformation(dn, m1) == \
            deformation_cocycle_check(dn, m1)
        agreements += 1
    assert agreements == 25


def test_algebra_deformation_equivalence(rng):
    dn = presets.dual_numbers()
    bim = regular_bimodule(dn)
    _, reps = hh_algebra(dn, bim, 2, normalized=True)
    m1 = reps[0].matrix
    # shift by the coboundary of a normalized 1-cochain
    g1 = RatMatrix(2, 2, {(0, 1): F(3), (1, 1): F(-1)})
    g_cochain = HCochain(dn, bim, 1, g1)
    m1_prime = m1 - d_hoch(g_cochain).matrix
    ax, co = algebra_deformation_equivalence(dn, m1, m1_prime, g1)
    assert ax and co
    # a non-matching gauge fails both ways
    ax2, co2 = algebra_deformation_equivalence(dn, m1, m1, g1)
    assert ax2 == co2


def test_bogus_keep_set_is_not_a_subcomplex():
    # all of C^0 but none of C^1: d^0 (the commutator) leaks out, whether
    # it is the outgoing (H^0) or the incoming (H^1) differential
    ut = presets.upper_triangular()
    bim = regular_bimodule(ut)
    diff = partial(hoch_differential, ut, bim)
    keep = lambda m: list(range(diff(0).cols)) if m == 0 else []
    for n in (0, 1):
        with pytest.raises(NotASubcomplex):
            subcomplex_cohomology(diff, n, keep)
