import os
import re
import subprocess
import sys
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, strategies as st

from gscohom import gs as gs_module
from gscohom.algebra import AlgebraHom, FinBimodule
from gscohom.hochschild import hh_algebra
from gscohom.linalg import NotASubcomplex, RatMatrix
from gscohom.gs import (GSComplex, NotCommutative,
                        factor_through_restrictions, cochain_from_parts, KINDS)
from gscohom.shuffles import (VerificationFailed, eulerian_idempotent,
                              scaled_eulerian_idempotent, shuffle_eigenvalue,
                              total_shuffle_operator)
from gscohom import presets
from gscohom.algebra import FinAlgebra
from gscohom.fincat import poset_category
from gscohom.presheaf import strict_presheaf
from conftest import ORACLE


@pytest.fixture(scope="module")
def complexes(request):
    return {name: GSComplex(p)
            for name, p in presets.standard_fixtures().items()}


def random_cochain(rng, gs, n):
    vec = tuple(F(rng.randint(-2, 2)) for _ in range(gs.dim(n)))
    return gs.unflatten_cochain(n, vec)


def test_d_squared_zero(complexes):
    for name, gs in complexes.items():
        for n in range(0, 4):
            assert (gs.differential(n + 1) @ gs.differential(n)).is_zero(), \
                (name, n)


def test_double_complex_commutation(complexes, rng):
    # the row and column differentials commute on every bidegree we use
    for name, gs in complexes.items():
        for (p, q) in ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2)):
            lhs = gs.hoch_block(p + 1, q) @ gs.simp_block(p, q)
            rhs = gs.simp_block(p, q + 1) @ gs.hoch_block(p, q)
            assert lhs == rhs, (name, p, q)


def test_low_degree_differential_signs(complexes, rng):
    # degree 0: (d_Hoch, -d_simp); degree 1: all +; degree 2: signs -,+,-
    gs = complexes["v_poset_commutative"]
    theta0 = random_cochain(rng, gs, 0)
    out = gs.d(theta0)
    v = gs.flatten_cochain(theta0)
    hoch = gs.hoch_block(0, 0).apply(v)
    simp = gs.simp_block(0, 0).apply(v)
    got = gs.flatten_cochain(out)
    assert got == tuple(list(hoch) + [-x for x in simp])

    theta1 = random_cochain(rng, gs, 1)
    out1 = gs.flatten_cochain(gs.d(theta1))
    v1 = gs.flatten_cochain(theta1)
    n01 = gs.pair(1).dim(0)
    v01, v10 = v1[:n01], v1[n01:]
    hoch01 = gs.hoch_block(0, 1).apply(v01)
    simp01 = gs.simp_block(0, 1).apply(v01)
    hoch10 = gs.hoch_block(1, 0).apply(v10)
    simp10 = gs.simp_block(1, 0).apply(v10)
    expected = list(hoch01) + \
        [a + b for a, b in zip(simp01, hoch10)] + list(simp10)
    assert out1 == tuple(expected)

    theta2 = random_cochain(rng, gs, 2)
    out2 = gs.flatten_cochain(gs.d(theta2))
    v2 = gs.flatten_cochain(theta2)
    n02 = gs.pair(2).dim(0)
    n11 = gs.pair(1).dim(1)
    v02, v11, v20 = v2[:n02], v2[n02:n02 + n11], v2[n02 + n11:]
    expected = list(gs.hoch_block(0, 2).apply(v02)) + \
        [b - a for a, b in zip(gs.simp_block(0, 2).apply(v02),
                               gs.hoch_block(1, 1).apply(v11))] + \
        [b - a for a, b in zip(gs.simp_block(1, 1).apply(v11),
                               gs.hoch_block(2, 0).apply(v20))] + \
        [-a for a in gs.simp_block(2, 0).apply(v20)]
    assert out2 == tuple(expected)


def test_identity_cochain_has_zero_row_differential(complexes):
    # theta at (0,1) with theta^U = id_{A(U)}: the row differential gives
    # f^u o id - id o f^u = 0 on every 1-simplex
    for name, gs in complexes.items():
        parts = {(0, 1): {}}
        for sigma in gs.category.nerve(0):
            d = gs.presheaf.algebras[sigma.domain].dim
            parts[(0, 1)][sigma.key()] = RatMatrix.identity(d)
        theta = cochain_from_parts(gs, 1, parts)
        vec = gs.flatten_cochain(theta)
        comps, _ = gs.layout(1)
        off = next(off for p, q, off, _ in comps if (p, q) == (0, 1))
        n01 = gs.pair(1).dim(0)
        out = gs.simp_block(0, 1).apply(vec[off:off + n01])
        assert all(x == 0 for x in out), name


def test_one_object_equals_hochschild(complexes):
    gs = complexes["one_object_dual_numbers"]
    dims = [gs.cohomology(n, "normalized_reduced")[0] for n in range(5)]
    assert dims == [2, 1, 1, 1, 1]


def test_constant_presheaf_contractible():
    from gscohom.presheaf import strict_presheaf
    poset = presets.v_poset()
    q = presets.rationals()
    algebras = {o: q for o in poset.category.objects}
    restr = {name: RatMatrix.identity(1)
             for name in poset.category.morphisms}
    gs = GSComplex(strict_presheaf(poset.category, algebras, restr))
    assert [gs.cohomology(n)[0] for n in range(3)] == [1, 0, 0]


def test_kind_agreement(complexes):
    for name, gs in complexes.items():
        for n in range(0, 3):
            out = gs.cohomology_kinds(
                n, ("full", "normalized", "normalized_reduced"))
            assert len(set(out.values())) == 1, (name, n)


def test_subcomplex_filters(complexes):
    gs = complexes["v_poset_commutative"]
    # full keeps everything
    assert gs.kept_coordinates("full", 2) == list(range(gs.dim(2)))
    # reduced kills degenerate-simplex coordinates
    kept = set(gs.kept_coordinates("normalized_reduced", 2))
    for p, q, off, blocks in gs.layout(2)[0]:
        for sigma, rows, cols, boff in blocks:
            if p >= 1 and sigma.is_degenerate():
                assert all(off + boff + t not in kept
                           for t in range(rows * cols))
    # all filters are closed under the differential
    for kind in KINDS:
        for n in (0, 1, 2):
            assert gs.check_subcomplex(kind, n)


def test_normalized_filter_kills_unit_slots(complexes):
    gs = complexes["one_object_dual_numbers"]
    kept = set(gs.kept_coordinates("normalized", 2))
    # at (0, 2) the words containing the unit index (0) must be dropped
    p, q, off, blocks = gs.layout(2)[0][0]
    sigma, rows, cols, boff = blocks[0]
    from gscohom.hochschild import words, word_index
    for w in words(2, 2):
        base = off + boff + word_index(w, 2) * rows
        inside = any(base + k in kept for k in range(rows))
        assert inside == (0 not in w)


def test_representatives_are_cocycles(complexes):
    for name, gs in complexes.items():
        for kind in ("full", "normalized_reduced"):
            betti, reps = gs.cohomology(2, kind)
            for rep in reps:
                assert gs.d(rep).is_zero()


def test_split_commutative(complexes):
    gs = complexes["v_poset_commutative"]
    for n in (0, 1, 2):
        total, truncated, bottom = gs.split_cohomology(n)
        assert total == truncated + bottom, n
    with pytest.raises(NotCommutative):
        complexes["v_poset_triangular"].split_cohomology(1)


def test_bottom_row_not_closed_when_noncommutative(complexes):
    gs = complexes["v_poset_triangular"]
    bottom = set(gs.bottom_row_coordinates(0))
    bottom_next = set(gs.bottom_row_coordinates(1))
    leaks = [1 for (i, j), v in gs.differential(0).items()
             if j in bottom and i not in bottom_next]
    assert leaks


def test_hodge_split_components(complexes, rng):
    gs = complexes["v_poset_commutative"]
    for n in (1, 2, 3):
        theta = random_cochain(rng, gs, n)
        parts = gs.hodge_split(theta)
        acc = parts[0]
        for r in range(1, n + 1):
            acc = acc + parts[r]
        assert acc == theta
        for r in range(0, n + 1):
            # components live in the image of the projector, which is
            # n! P_r: P_r v = v reads (n! P_r) v = n! v
            v = gs.flatten_cochain(parts[r])
            assert gs.hodge_projector(n, r).apply(v) == \
                tuple(factorial(n) * x for x in v)


def test_hodge_bottom_row_is_r0(complexes):
    gs = complexes["v_poset_commutative"]
    parts_keys = {}
    theta = cochain_from_parts(gs, 2, {
        (2, 0): {sigma.key(): RatMatrix.from_cols(
            [tuple(F(1) for _ in range(
                gs.presheaf.algebras[sigma.domain].dim))])
            for sigma in gs.category.nerve(2)}})
    parts = gs.hodge_split(theta)
    assert parts[0] == theta
    for r in (1, 2):
        assert parts[r].is_zero()


def test_hodge_symmetric_2cochain_is_harrison(complexes):
    gs = complexes["v_poset_commutative"]
    # a symmetric Hochschild 2-cochain at (0, 2) sits entirely in r = 1
    sym = RatMatrix.from_rows([[1, 2, 2, 0], [0, 1, 1, 3]])
    theta = cochain_from_parts(gs, 2, {(0, 2): {("U0",): sym}})
    parts = gs.hodge_split(theta)
    assert parts[1] == theta
    assert parts[0].is_zero() and parts[2].is_zero()


def test_hodge_stability_and_additivity(complexes):
    for name in ("v_poset_commutative", "diamond_mixed"):
        gs = complexes[name]
        for n in (0, 1, 2):
            total = gs.cohomology(n)[0]
            sigma = 0
            for r in range(0, n + 2):
                assert gs.check_hodge_stability(n, r), (name, n, r)
                if r <= n:
                    sigma += gs.hodge_cohomology(n, r)
            assert sigma == total, (name, n)


def test_integral_projector_is_n_factorial_times_the_rational_one():
    # n! P_r(n) against the block diagonal of the rational actions of
    # e_q(r), built here from the rational family, times n!
    gs = GSComplex(presets.v_poset_commutative())
    for n in range(5):
        for r in range(n + 2):
            blocks = []
            for p, q, _, simplices in gs.layout(n)[0]:
                for sigma, rows, cols, _ in simplices:
                    d_c = gs.presheaf.algebras[sigma.codomain].dim
                    if q == 0:
                        blocks.append(RatMatrix.identity(rows * cols)
                                      if r == 0 else
                                      RatMatrix.zeros(rows * cols, rows * cols))
                    else:
                        blocks.append(gs_module.element_action_matrix(
                            eulerian_idempotent(q, r), rows, d_c))
            rational = RatMatrix.block_diag(blocks)
            projector = gs.hodge_projector(n, r)
            assert projector == rational.scale(factorial(n)), (n, r)
            assert all(type(v) is int for _, v in projector.items())


@pytest.mark.parametrize("a_dim", [1, 2, 3])
def test_eigenspaces_are_the_images_of_the_closed_form(a_dim):
    # oracle: the image of rho(q! e_q(r)), built from the closed form, is
    # ker(rho(s_q) - lambda_r) as a subspace: q! e_q(r) acts as q! on the
    # kernel basis (kernel inside the image) and s_q acts as lambda_r on the
    # image (image inside the kernel)
    gs = GSComplex(presets.one_object_dual_numbers())
    for q in range(1, 6):
        shuffle, kernels = gs.hodge_eigendata(q, a_dim)
        assert shuffle == gs_module.element_action_matrix(
            total_shuffle_operator(q), 1, a_dim)
        for r in range(0, q + 2):
            kernel = kernels.get(r, RatMatrix.zeros(a_dim ** q, 0))
            action = gs_module.element_action_matrix(
                scaled_eulerian_idempotent(q, r), 1, a_dim)
            assert action @ kernel == kernel.scale(factorial(q)), (q, r)
            assert shuffle @ action == action.scale(2 ** r - 2), (q, r)


def test_eigendata_certificate_rejects_a_defective_action(monkeypatch):
    # s_2 plus a nilpotent entry between two words of one eigenspace is not
    # diagonalizable: its eigenspaces miss a dimension of Hom(A^{(x) 2}, Q)
    real = gs_module.element_action_matrix

    def defective(elt, m_dim, a_dim):
        action = real(elt, m_dim, a_dim)
        return action + RatMatrix(action.rows, action.cols, {(0, 1): 1})
    monkeypatch.setattr(gs_module, "element_action_matrix", defective)
    gs = GSComplex(presets.v_poset_commutative())
    with pytest.raises(VerificationFailed):
        gs.hodge_eigendata(2, 2)
    with pytest.raises(VerificationFailed):
        gs.hodge_cohomology(2, 2)


def truncated_polynomials(k, slots=None):
    """Q[x]/(x^k) on one object, with x^i at basis slot slots[i]
    (slots[0] = 0 keeps the unit first), so that cells have dim A = k."""
    slots = slots or range(k)
    mult = [[[0] * k for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for j in range(k - i):
            mult[slots[i]][slots[j]][slots[i + j]] = 1
    cat = poset_category(["pt"], [])
    return strict_presheaf(
        cat, {"pt": FinAlgebra(k, mult, [1] + [0] * (k - 1),
                               name="Q[x]/(x^%d)" % k)},
        {"pt->pt": RatMatrix.identity(k)})


def test_hodge_betti_numbers_of_the_cubic_truncation():
    # (Hodge Betti number, stability verdict) for r = 0, ..., n + 1, as the
    # idempotent-projector implementation computed them; HH^n(Q[x]/(x^3))
    # has dimension 3, 2, 2, ...
    expected = {0: [3, 0], 1: [0, 2, 0], 2: [0, 2, 0, 0],
                3: [0, 0, 2, 0, 0], 4: [0, 0, 2, 0, 0, 0]}
    gs = GSComplex(truncated_polynomials(3))
    for n, bettis in expected.items():
        assert [gs.hodge_cohomology(n, r) if r <= n else 0
                for r in range(n + 2)] == bettis, n
        assert all(gs.check_hodge_stability(n, r) for r in range(n + 2)), n
        assert gs.cohomology(n)[0] == sum(bettis), n


@ORACLE
@given(st.integers(2, 4).flatmap(lambda k: st.tuples(
    st.just(k), st.integers(0, 3), st.permutations(range(1, k)))))
def test_hodge_summands_of_truncated_polynomials(case):
    # HH^n(Q[x]/(x^k)) is k-dimensional at n = 0 and (k - 1)-dimensional
    # above, all of it in the summand r = ceil(n / 2), whatever basis order
    # the algebra is given in
    k, n, perm = case
    presheaf = truncated_polynomials(k, (0,) + tuple(perm))
    algebra = presheaf.algebras["pt"]
    regular = FinBimodule.regular(algebra)
    total = k if n == 0 else k - 1
    gs = GSComplex(presheaf)
    assert gs.cohomology(n)[0] == hh_algebra(algebra, regular, n)[0] == \
        hh_algebra(algebra, regular, n, normalized=True)[0] == total
    assert [gs.hodge_cohomology(n, r) for r in range(n + 1)] == \
        [total if r == (n + 1) // 2 else 0 for r in range(n + 1)]
    assert all(gs.check_hodge_stability(n, r) for r in range(n + 2))


def test_stability_check_fails_on_a_perturbed_summand():
    # d B_1(1) lies in the lambda_1-eigenspace of S_2, so a degree-2 basis
    # of the summand r = 1 that spans anything else must fail the check and
    # make the summand's cohomology raise
    assert GSComplex(presets.v_poset_commutative()).check_hodge_stability(1, 1)
    moved = GSComplex(presets.v_poset_commutative())
    real = moved.hodge_eigendata

    def perturbed(q, a_dim):
        # K_1 of (q, dim A) = (2, 2) with the column of K_2 added to its
        # second column
        shuffle, kernels = real(q, a_dim)
        if (q, a_dim) != (2, 2):
            return shuffle, kernels
        k1, k2 = kernels[1], kernels[2]
        return shuffle, {1: k1 + RatMatrix.from_blocks(
            k1.rows, k1.cols, [(0, 1, k2)]), 2: k2}
    moved.hodge_eigendata = perturbed
    shuffle, kernels = perturbed(2, 2)
    # the columns stay independent and fill Q^4, but leave the eigenspace
    assert RatMatrix.hstack([kernels[1], kernels[2]]).rank() == 4
    assert shuffle @ kernels[1] != kernels[1].scale(shuffle_eigenvalue(1))
    # the degree-2 basis of r = 1 replaced by that of r = 2
    swapped = GSComplex(presets.v_poset_commutative())
    swapped.hodge_basis = lambda n, r: GSComplex.hodge_basis(
        swapped, n, 2 if (n, r) == (2, 1) else r)
    for gs in (moved, swapped):
        assert not gs.check_hodge_stability(1, 1)
        with pytest.raises(NotASubcomplex):
            gs.hodge_cohomology(1, 1)


def test_stability_and_cohomology_share_one_solve(monkeypatch):
    # check_hodge_stability(n, r) solves for d^n; hodge_cohomology(n, r)
    # reuses that solve and adds only the one for d^{n-1}
    solved = []
    real = RatMatrix.solve_many

    def counted(self, rhs):
        solved.append(self)
        return real(self, rhs)

    monkeypatch.setattr(RatMatrix, "solve_many", counted)
    gs = GSComplex(presets.v_poset_commutative())
    n = 3
    for r in range(n + 2):
        solved.clear()
        assert gs.check_hodge_stability(n, r)
        assert len(solved) == 1 and solved[0] is gs.hodge_basis(n + 1, r), r
        gs.hodge_cohomology(n, r)
        assert len(solved) == 2 and solved[1] is gs.hodge_basis(n, r), r


def test_gs_op_involution_and_chain_map(complexes):
    for name, gs in complexes.items():
        gop = GSComplex(gs.presheaf.opposite())
        for n in (0, 1, 2):
            opn = gs.op_matrix(n)
            assert opn @ opn == RatMatrix.identity(gs.dim(n))
            assert gop.differential(n) @ opn == \
                gs.op_matrix(n + 1) @ gs.differential(n), (name, n)


def test_gs_op_component_signs(complexes, rng):
    # degree-2 cochains: (m1, f1, c1) -> (m1 swapped, f1, -c1)
    gs = complexes["v_poset_commutative"]
    theta = random_cochain(rng, gs, 2)
    op = gs.op_cochain(theta)
    for key, mat in theta.component(2, 0).items():
        assert op.component(2, 0)[key] == -mat
    for key, mat in theta.component(1, 1).items():
        assert op.component(1, 1)[key] == mat
    for key, mat in theta.component(0, 2).items():
        swapped = op.component(0, 2)[key]
        a = gs.presheaf.algebras[key[0]]
        for i in range(a.dim):
            for j in range(a.dim):
                assert swapped.column(i * a.dim + j) == \
                    mat.column(j * a.dim + i)


def test_factor_through_identity_restriction(complexes):
    gs = complexes["one_object_dual_numbers"]
    # f^sigma = id: the lift equals the cochain itself
    sigma = gs.category.nerve(0)[0]
    theta = RatMatrix.from_rows([[0, 1], [1, 2]])
    out = factor_through_restrictions(gs, 0, 1, {sigma.key(): theta})
    lift = out["lifts"][sigma.key()]
    assert lift["matrix"] == theta and lift["unique"]
    assert not out["failures"]


def test_factor_through_rejects_wrong_component(complexes):
    gs = complexes["one_object_dual_numbers"]
    sigma = gs.category.nerve(0)[0]
    symmetric = RatMatrix.from_rows([[0, 1, 1, 0], [0, 0, 0, 0]])
    with pytest.raises(VerificationFailed):
        factor_through_restrictions(gs, 0, 2, {sigma.key(): symmetric})


_GS_CHECKS_SCRIPT = '''
from gscohom import presets
from gscohom.algebra import InvalidStructure
from gscohom.linalg import RatMatrix, VerificationFailed
from gscohom.gs import GSComplex, factor_through_restrictions


def outcome(run):
    try:
        run()
    except (InvalidStructure, VerificationFailed) as exc:
        return type(exc).__name__
    return "passed"


print(outcome(lambda: GSComplex(presets.twisted_diamond()[0])))
gs = GSComplex(presets.one_object_dual_numbers())
sigma = gs.category.nerve(0)[0]
symmetric = RatMatrix.from_rows([[0, 1, 1, 0], [0, 0, 0, 0]])
print(outcome(lambda: factor_through_restrictions(
    gs, 0, 2, {sigma.key(): symmetric})))
theta = gs.unflatten_cochain(1, (1,) * gs.dim(1))
gs.hodge_projector = lambda n, r: RatMatrix.zeros(gs.dim(n), gs.dim(n))
print(outcome(lambda: gs.hodge_split(theta)))
'''


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_gs_checks_raise_under_python_O(flags):
    # a twisted presheaf, a component the top idempotent moves, and Hodge
    # projectors that do not sum to the identity
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    done = subprocess.run([sys.executable, *flags, "-c", _GS_CHECKS_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["InvalidStructure", "VerificationFailed",
                                   "VerificationFailed"]


_PRECONDITIONS_SCRIPT = r'''
from gscohom import presets
from gscohom.algebra import (AlgebraHom, FinAlgebra, FinBimodule, FinModule,
                             InvalidStructure, module_hom_space,
                             quotient_by_columns)
from gscohom.gs import GSComplex
from gscohom.hochschild import HCochain, normalized_coordinates
from gscohom.linalg import RatMatrix, VerificationFailed


def outcome(call):
    try:
        call()
    except (ValueError, VerificationFailed) as exc:  # InvalidStructure is
        return type(exc).__name__                     # a ValueError
    return "passed"


# Q x Q on its two idempotents: the unit (1, 1) is not a basis vector
idempotents = FinAlgebra(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])
print(outcome(lambda: normalized_coordinates(idempotents, 2, 1)))
gs = GSComplex(presets.v_poset_commutative())
print(outcome(lambda: gs.kept_coordinates("normalised", 1)))
# homomorphisms and modules whose dimensions do not fit
q, dn = presets.rationals(), presets.dual_numbers()
into_q, into_dn = AlgebraHom.identity(q), AlgebraHom.identity(dn)
print(outcome(lambda: into_q.compose(into_dn)))
print(outcome(lambda: module_hom_space(FinModule.free(q), FinModule.free(dn))))
# relations in Q^2 presented as living in Q^1
print(outcome(lambda: quotient_by_columns(1, RatMatrix.identity(2))))
# the complement check, with an inverse that is never found
RatMatrix.inverse = lambda self: None
print(outcome(lambda: quotient_by_columns(2, RatMatrix.identity(2))))
# a 2-cochain of the dual numbers given as a 2 x 2 matrix (it is 2 x 4)
dual = FinBimodule.regular(dn)
print(outcome(lambda: HCochain(dn, dual, 2, RatMatrix.identity(2))))
# GS cochains of different degrees
print(outcome(lambda: gs.unflatten_cochain(1, (0,) * gs.dim(1))
              + gs.unflatten_cochain(2, (0,) * gs.dim(2))))
'''


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_library_preconditions_raise_under_python_O(flags):
    # a unit that is not a basis vector, a misspelt subcomplex kind,
    # algebras and relations of unfitting dimensions, a failed complement
    # in quotient_by_columns, a Hochschild cochain of the wrong shape and
    # the sum of GS cochains of different degrees
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    done = subprocess.run([sys.executable, *flags, "-c",
                           _PRECONDITIONS_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["InvalidStructure", "ValueError",
                                   "InvalidStructure", "InvalidStructure",
                                   "InvalidStructure", "VerificationFailed",
                                   "InvalidStructure", "InvalidStructure"]


def test_library_assert_lines_do_not_grow():
    # python -O strips an assert, so a precondition written as one is no
    # check at all there; the count may fall but never rise
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src", "gscohom")
    count = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as handle:
                count += sum(bool(re.match(r"\s*assert\b", line))
                             for line in handle)
    assert count <= 11


def test_factor_through_failure_named(complexes):
    gs = complexes["v_poset_commutative"]
    # a value the non-surjective restriction cannot reach: f^sigma kills x,
    # so no Theta with Theta o f^{(x) 1} can produce it
    bad = {}
    for sigma in gs.category.nerve(1):
        if sigma.is_degenerate():
            continue
        a_c = gs.presheaf.algebras[sigma.codomain]
        a_d = gs.presheaf.algebras[sigma.domain]
        mat = RatMatrix(a_d.dim, a_c.dim, {(0, 1): F(1)})  # hits x-slot
        bad[sigma.key()] = mat
    out = factor_through_restrictions(gs, 1, 1, bad)
    assert out["failures"]


def test_factor_through_surjective_unique(complexes):
    gs = complexes["v_poset_commutative"]
    # component supported on surjective restrictions with matching values
    ok = {}
    for sigma in gs.category.nerve(1):
        if sigma.is_degenerate():
            continue
        a_c = gs.presheaf.algebras[sigma.codomain]
        a_d = gs.presheaf.algebras[sigma.domain]
        # theta = f^sigma itself factors as the identity
        ok[sigma.key()] = gs.presheaf.restriction_along(sigma)
    out = factor_through_restrictions(gs, 1, 1, ok)
    assert not out["failures"]
    for key, lift in out["lifts"].items():
        assert lift["matrix"] == RatMatrix.identity(1)
        assert lift["unique"]


def test_quasi_isomorphism_witness_raises(monkeypatch):
    gs = GSComplex(presets.v_poset_commutative())
    # a subcomplex that disagrees with the others must fail the witness
    monkeypatch.setattr(gs, "cohomology",
                        lambda n, kind: (0 if kind == "full" else 1, []))
    with pytest.raises(VerificationFailed):
        gs.cohomology_kinds(1, ("full", "normalized"))
    # the truncations are not quasi-isomorphic and are not compared
    assert gs.cohomology_kinds(1, ("full", "truncated")) == \
        {"full": 0, "truncated": 1}


@pytest.mark.parametrize("name", ["v_poset_triangular", "diamond_mixed"])
def test_hoch_block_memo_matches_direct_differentials(monkeypatch, name):
    # one hoch_differential per distinct (object, bimodule actions, q) of a
    # complex, and each block the block_diag of the direct construction
    presheaf = getattr(presets, name)()
    calls = []
    real = gs_module.hoch_differential

    def counted(algebra, bimodule, q):
        calls.append((algebra, bimodule, q))
        return real(algebra, bimodule, q)

    monkeypatch.setattr(gs_module, "hoch_differential", counted)
    gs = GSComplex(presheaf)
    keys = {}
    for n in range(5):
        for p in range(n + 1):
            q = n - p
            direct = []
            keys[(p, q)] = set()
            for sigma in gs.category.nerve(p):
                bimod = FinBimodule.along(AlgebraHom(
                    presheaf.algebras[sigma.codomain],
                    presheaf.algebras[sigma.domain],
                    presheaf.restriction_along(sigma)))
                direct.append(real(presheaf.algebras[sigma.codomain],
                                   bimod, q))
                keys[(p, q)].add((sigma.codomain, bimod.left, bimod.right, q))
            assert gs.hoch_block(p, q) == RatMatrix.block_diag(direct), \
                (p, q)
    distinct = set().union(*keys.values())
    assert len(calls) == len(distinct) < sum(
        len(gs.category.nerve(p)) for p, q in keys)
    # a new complex starts without the memo
    GSComplex(presheaf).hoch_block(1, 1)
    assert len(calls) == len(distinct) + len(keys[(1, 1)])


def test_hodge_eigendata_is_built_once_per_complex(monkeypatch):
    # the summands, projectors and stability checks of neighbouring degrees
    # and the lifts of factor_through_restrictions share each (q, dim A)
    # eigendata; the shuffle action is built once per build
    calls = []
    real = gs_module.element_action_matrix

    def counted(elt, m_dim, a_dim):
        calls.append((elt.n, m_dim, a_dim))
        return real(elt, m_dim, a_dim)

    monkeypatch.setattr(gs_module, "element_action_matrix", counted)
    gs = GSComplex(presets.v_poset_commutative())
    for n in (2, 3):
        for r in range(n + 2):
            gs.check_hodge_stability(n, r)
            gs.hodge_cohomology(n, r)
            gs.hodge_projector(n, r)
    eigendata = gs._memo_hodge_eigendata
    # the q >= 1 builds act by s_q; q = 0 needs no action
    assert sorted(calls) == sorted((q, 1, a) for q, a in eigendata if q)
    assert {q for q, _ in eigendata} == set(range(5))
    ident = {sigma.key(): gs.presheaf.restriction_along(sigma)
             for sigma in gs.category.nerve(1) if not sigma.is_degenerate()}
    out = factor_through_restrictions(gs, 1, 1, ident)
    assert not out["failures"]
    assert len(calls) == len([key for key in eigendata if key[0]])
    for (q, a_dim), (shuffle, kernels) in eigendata.items():
        assert all(type(v) is int for _, v in shuffle.items())
        assert all(type(v) is int for k in kernels.values()
                   for _, v in k.items())
        assert sum(k.cols for k in kernels.values()) == a_dim ** q
    # a new complex starts without the memo
    GSComplex(presets.v_poset_commutative()).hodge_basis(2, 2)
    assert len(calls) > len([key for key in eigendata if key[0]])
