import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gscohom.linalg import RatMatrix, VerificationFailed, submatrix
from oracles import complete_span, compose_homs, opposite_hom
from gscohom.algebra import (FinAlgebra, AlgebraHom, FinModule, FinBimodule,
                             InvalidStructure, tensor_over, module_hom_space,
                             check_flat_epimorphism, quotient_by_columns,
                             quotient_module)
from gscohom import algebra, presets


def test_validation_rejects_broken_structures():
    # (e1 e1) e1 = e2 e1 = 0 but e1 (e1 e1) = e1 e2 = 1: not associative
    mult = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    with pytest.raises(InvalidStructure):
        FinAlgebra(3, mult, [1, 0, 0])


def test_mult_matrix_is_built_once_per_algebra():
    ut = presets.upper_triangular()
    mu = ut.mult_matrix()
    assert ut.mult_matrix() is mu
    # column i*dim + j holds e_i e_j
    assert all(mu.column(i * 3 + j) == ut.mult[i][j]
               for i in range(3) for j in range(3))
    assert ut.opposite().mult_matrix() is not mu


def test_opposite_involution_and_commutative():
    dn = presets.dual_numbers()
    assert dn.opposite().mult == dn.mult          # commutative: equal tensors
    ut = presets.upper_triangular()
    op = ut.opposite()
    assert op.mult != ut.mult
    for i in range(3):
        for j in range(3):
            assert op.mult[i][j] == ut.mult[j][i]
    assert op.opposite().mult == ut.mult          # involution
    q = presets.rationals()
    assert q.opposite().mult == q.mult


def test_opposite_sends_homs_to_homs():
    ut = presets.upper_triangular()
    q = presets.rationals()
    f = AlgebraHom(ut, q, RatMatrix.from_rows([[1, 0, 0]]))
    fop = opposite_hom(f)
    assert fop.is_multiplicative() and fop.is_unital()


def test_composing_maps_that_do_not_meet_is_refused():
    q, dn = presets.rationals(), presets.dual_numbers()
    with pytest.raises(InvalidStructure, match="cannot compose"):
        compose_homs(AlgebraHom.identity(q), AlgebraHom.identity(dn))
    point = AlgebraHom(dn, q, RatMatrix.from_rows([[1, 0]]))
    assert compose_homs(AlgebraHom.identity(q), point).matrix == point.matrix


def test_rebase_unit():
    # Q x Q in the idempotent basis (e1, e2): unit (1, 1)
    qxq = FinAlgebra(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])
    rebased, change = qxq.rebased_with_unit()
    assert rebased.unit_index() is not None
    # change maps new coordinates to old: new unit -> (1, 1)
    ui = rebased.unit_index()
    assert change.column(ui) == (F(1), F(1))


def test_tensor_over_unit_constraint():
    dn = presets.dual_numbers()
    t = tensor_over(FinModule.free(dn), AlgebraHom.identity(dn))
    assert t.dim == dn.dim


def test_tensor_over_free_gives_target():
    dn = presets.dual_numbers()
    q = presets.rationals()
    f = AlgebraHom(dn, q, RatMatrix.from_rows([[1, 0]]))
    t = tensor_over(FinModule.free(dn), f)
    assert t.dim == q.dim


def test_tensor_over_quotient_example():
    dn = presets.dual_numbers()
    q = presets.rationals()
    f = AlgebraHom(dn, q, RatMatrix.from_rows([[1, 0]]))
    triv = FinModule(dn, 1, [RatMatrix.identity(1), RatMatrix.zeros(1, 1)])
    assert tensor_over(triv, f).dim == 1


def test_tensor_functoriality():
    # (M (x)_A B) (x)_B C has the dimension of M (x)_A C, and the canonical
    # comparison map m (x) b (x) c -> m (x) g(b) c is bijective
    dn = presets.dual_numbers()
    q = presets.rationals()
    f = AlgebraHom(dn, q, RatMatrix.from_rows([[1, 0]]))
    g = AlgebraHom.identity(q)
    m = FinModule.free(dn)
    t1 = tensor_over(m, f)
    t2 = tensor_over(t1.module, g)
    t_direct = tensor_over(m, compose_homs(g, f))
    assert t2.dim == t_direct.dim
    cols = []
    for j in range(t2.dim):
        raw_outer = t2.section.column(j)
        acc = [F(0)] * (m.dim * q.dim)
        for idx, c in enumerate(raw_outer):
            if not c:
                continue
            mid, ci = divmod(idx, q.dim)
            raw_inner = t1.section.column(mid)
            for idx2, c2 in enumerate(raw_inner):
                if not c2:
                    continue
                mi, bi = divmod(idx2, q.dim)
                prod = q.mul(g(  # g(b) * c
                    tuple(F(1) if t == bi else F(0) for t in range(q.dim))),
                    tuple(F(1) if t == ci else F(0) for t in range(q.dim)))
                for b2, cv in enumerate(prod):
                    acc[mi * q.dim + b2] += c * c2 * cv
        cols.append(t_direct.project.apply(tuple(acc)))
    comparison = RatMatrix.from_cols(cols, ambient=t_direct.dim)
    assert comparison.is_invertible()


def test_module_hom_space_dims():
    dn = presets.dual_numbers()
    free = FinModule.free(dn)
    triv = FinModule(dn, 1, [RatMatrix.identity(1), RatMatrix.zeros(1, 1)])
    assert len(module_hom_space(free, free)) == 2
    assert len(module_hom_space(free, triv)) == 1
    assert len(module_hom_space(triv, free)) == 1
    assert len(module_hom_space(triv, triv)) == 1


def test_restrict_to_submodule_rejects_an_unstable_span():
    dn = presets.dual_numbers()
    free = FinModule.free(dn)
    # the ideal (x) is a submodule; the line of the unit is not: 1 x = x
    sub, incl = free.restrict_to_submodule(RatMatrix.from_cols([(0, 1)]))
    assert sub.dim == 1 and incl == RatMatrix.from_cols([(0, 1)])
    with pytest.raises(InvalidStructure):
        free.restrict_to_submodule(RatMatrix.from_cols([dn.unit]))


def test_flat_epimorphism_classification():
    dn = presets.dual_numbers()
    q = presets.rationals()
    # identity: epi and flat
    rep = check_flat_epimorphism(AlgebraHom.identity(dn))
    assert rep["epimorphism"] and rep["flat"]
    # dual numbers to Q: epi but not flat
    rep = check_flat_epimorphism(
        AlgebraHom(dn, q, RatMatrix.from_rows([[1, 0]])))
    assert rep["epimorphism"] and not rep["flat"]
    # diagonal Q -> Q x Q: not epi (tensor square has dimension 4), flat
    qxq = presets.two_points()
    rep = check_flat_epimorphism(
        AlgebraHom(q, qxq, RatMatrix.from_rows([[1], [0]])))
    assert not rep["epimorphism"]
    assert rep["tensor_square_dim"] == 4
    assert rep["flat"]
    # evaluation Q x Q -> Q at a point: epi and flat (a direct factor)
    rep = check_flat_epimorphism(
        AlgebraHom(qxq, q, RatMatrix.from_rows([[1, 1]])))
    assert rep["epimorphism"] and rep["flat"]


def test_bimodule_along_and_symmetry():
    dn = presets.dual_numbers()
    q = presets.rationals()
    f = AlgebraHom(dn, q, RatMatrix.from_rows([[1, 0]]))
    bim = FinBimodule.along(f)

    def symmetric(m):
        return m.left == m.right

    assert symmetric(bim)      # commutative target
    ut = presets.upper_triangular()
    assert not symmetric(FinBimodule.regular(ut))


def test_dual_extension_is_an_algebra():
    dn = presets.dual_numbers()
    doubled = dn.dual_extension()
    assert not doubled.axiom_failures()
    assert doubled.dim == 4
    # eps * eps = 0: basis vector 2 is eps*1
    eps = tuple(F(1) if i == 2 else F(0) for i in range(4))
    assert all(v == 0 for v in doubled.mul(eps, eps))


# m + m1*eps for a fixed m1 on two presets, as the nonzero entries of the
# doubled multiplication matrix (column i*dim + j holds e_i * e_j), with
# the number of axiom failures: x*x = eps on the dual numbers is a
# commutative deformation; the m1 on UT2 is no cocycle
@pytest.mark.parametrize("algebra, m1, mult, failures", [
    (presets.dual_numbers(), {(0, 3): 1},
     {(0, 0): 1, (1, 1): 1, (1, 4): 1, (2, 2): 1, (2, 5): 1, (2, 8): 1,
      (3, 3): 1, (3, 6): 1, (3, 9): 1, (3, 12): 1}, 0),
    (presets.upper_triangular(),
     {(0, 5): 2, (1, 4): F(-1, 2), (2, 8): 3, (1, 7): 1},
     {(0, 0): 1, (1, 1): 1, (1, 6): 1, (1, 8): 1, (2, 2): 1, (2, 12): 1,
      (2, 14): 1, (3, 3): 1, (3, 8): 2, (3, 18): 1, (4, 4): 1,
      (4, 7): F(-1, 2), (4, 9): 1, (4, 11): 1, (4, 13): 1, (4, 19): 1,
      (4, 24): 1, (4, 26): 1, (5, 5): 1, (5, 14): 3, (5, 15): 1,
      (5, 17): 1, (5, 20): 1, (5, 30): 1, (5, 32): 1}, 5),
], ids=["dual_numbers", "upper_triangular"])
def test_dual_extension_structure_constants(algebra, m1, mult, failures):
    d = algebra.dim
    doubled = algebra.dual_extension(RatMatrix(d, d * d, m1))
    assert doubled.mult_matrix() == RatMatrix(2 * d, 4 * d * d, mult)
    assert doubled.unit == algebra.unit + (0,) * d
    assert len(doubled.axiom_failures()) == failures


# -- property tests of the Kronecker formulation

# derandomised and small, like the oracle tests of test_linalg
ORACLE = settings(derandomize=True, max_examples=60, deadline=None,
                  database=None)


def _preset_maps():
    """Algebra maps among Q[x]/(x^2), Q x Q, UT2 and Q: the restrictions to
    Q that the preset presheaves use, the unit maps out of Q, identities and
    the composites A -> Q -> A."""
    q = presets.rationals()
    maps = []
    for a, points in ((presets.dual_numbers(), [[1, 0]]),
                      (presets.two_points(), [[1, 0], [1, 1]]),
                      (presets.upper_triangular(), [[1, 0, 0]])):
        unit = AlgebraHom(q, a, RatMatrix.from_cols([a.unit]))
        maps += [AlgebraHom.identity(a), unit]
        for row in points:
            point = AlgebraHom(a, q, RatMatrix.from_rows([row]))
            maps += [point, compose_homs(unit, point)]
    return maps


MAPS = _preset_maps()
SOURCES = list({id(f.source): f.source for f in MAPS}.values())
_entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def modules_over(draw, algebra, max_summands=3):
    """A direct sum of the free module and of targets of maps out of
    `algebra`, in a random basis (a unitriangular L U change)."""
    summands = [FinModule.free(algebra)] + \
        [FinModule.along(f) for f in MAPS if f.source is algebra]
    picked = draw(st.lists(st.sampled_from(summands), max_size=max_summands))
    if not picked:
        return FinModule.zero(algebra)
    n = sum(p.dim for p in picked)
    lower = RatMatrix(n, n, {(i, j): draw(_entries) for i in range(n)
                             for j in range(i)}) + RatMatrix.identity(n)
    upper = RatMatrix(n, n, {(j, i): draw(_entries) for i in range(n)
                             for j in range(i)}) + RatMatrix.identity(n)
    change = lower @ upper
    inverse = change.inverse()
    action = [inverse @ RatMatrix.block(
        [[q.action[k] if i == j else None for j, q in enumerate(picked)]
         for i in range(len(picked))]) @ change for k in range(algebra.dim)]
    return FinModule(algebra, n, action)        # validated


def _pure(x, y):
    """Raw coordinates of x (x) y."""
    return RatMatrix.from_cols([x]).kron(RatMatrix.from_cols([y]))


@ORACLE
@given(st.data())
def test_tensor_over_is_the_balanced_quotient(data):
    f = data.draw(st.sampled_from(MAPS))
    m = data.draw(modules_over(f.source))
    b = f.target
    t = tensor_over(m, f)
    assert t.project @ t.section == RatMatrix.identity(t.dim)
    assert (t.project @ t.relations).is_zero()
    assert t.dim == m.dim * b.dim - t.relations.rank()
    # independently: the quotient by all  m*a (x) c - m (x) f(a)c  over
    # basis vectors, each one built from its two pure tensors
    diffs = [_pure(m.action[k].apply(mi), c) - _pure(mi, b.mul(f(e), c))
             for mi in map(RatMatrix.identity(m.dim).column, range(m.dim))
             for k, e in enumerate(f.source.basis()) for c in b.basis()]
    balanced = RatMatrix.hstack([RatMatrix.zeros(m.dim * b.dim, 0)] + diffs)
    assert (t.project @ balanced).is_zero()
    assert t.dim == m.dim * b.dim - balanced.rank()
    FinModule(b, t.dim, t.module.action)        # the induced action


@ORACLE
@given(st.data())
def test_module_hom_space_against_sympy(data):
    sympy = pytest.importorskip("sympy")
    a = data.draw(st.sampled_from(SOURCES))
    m = data.draw(modules_over(a, max_summands=2))
    n = data.draw(modules_over(a, max_summands=2))
    basis = module_hom_space(m, n)
    for h in basis:
        assert (h.rows, h.cols) == (n.dim, m.dim)
        assert all(h @ rm == rn @ h for rm, rn in zip(m.action, n.action))
    # the system H R^M_a = R^N_a H written out entry by entry, with the
    # unknown H[p, q] in column p*dim(M) + q
    unknowns = n.dim * m.dim
    rows = []
    for rm, rn in zip(m.action, n.action):
        for i in range(n.dim):
            for j in range(m.dim):
                row = [F(0)] * unknowns
                for k in range(m.dim):
                    row[i * m.dim + k] += rm[k, j]
                for k in range(n.dim):
                    row[k * m.dim + j] -= rn[i, k]
                rows.append(row)
    oracle = sympy.Matrix(len(rows), unknowns, lambda r, c: sympy.Rational(
        rows[r][c].numerator, rows[r][c].denominator))
    assert len(basis) == len(oracle.nullspace())
    flat = sympy.Matrix(len(basis), unknowns, lambda r, c: sympy.Rational(
        basis[r][divmod(c, m.dim)].numerator,
        basis[r][divmod(c, m.dim)].denominator))
    assert flat.rank() == len(basis)


def test_quotient_module_rejects_relations_the_action_moves():
    # x sends e_0 to e_1, so span(e_0) is no submodule of Q^2
    dn = presets.dual_numbers()
    action = [RatMatrix.identity(2), RatMatrix.from_rows([[0, 0], [1, 0]])]
    with pytest.raises(VerificationFailed,
                       match="^the relations are not stable under the "
                             "action$"):
        quotient_module(dn, action, RatMatrix.from_cols([(1, 0)]))


# -- the one-elimination quotient against the three-elimination one

def _reference_quotient(raw_dim, rel):
    """(project, section) as built before the quotient took one
    elimination: the pivot columns of rel completed by identity columns
    (`complete_span`), and the complement rows of the inverse of
    [basis | section]."""
    rows = range(raw_dim)
    one = RatMatrix.identity(raw_dim)
    basis, extra = complete_span(rel, one)
    section = submatrix(one, rows, extra)
    inverse = RatMatrix.hstack([basis, section]).inverse()
    return submatrix(inverse, range(basis.cols, raw_dim), rows), section


def _random_relations(rng, raw_dim, cols):
    """A raw_dim x cols matrix with sparse small entries, some columns
    zero and some combinations of the others."""
    entries = {(i, j): F(rng.randint(-3, 3), rng.randint(1, 3))
               for i in range(raw_dim) for j in range(cols)
               if rng.random() < 0.4}
    rel = RatMatrix(raw_dim, cols, entries)
    if cols and rng.random() < 0.5:
        mix = RatMatrix.from_cols(
            [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(2)])
        rel = RatMatrix.hstack([rel, rel @ mix, RatMatrix.zeros(raw_dim, 1)])
    return rel


@pytest.mark.parametrize("seed", range(4))
def test_quotient_by_columns_matches_three_eliminations(seed):
    rng = random.Random(seed)
    shapes = [(rng.randint(0, 7), rng.randint(0, 8)) for _ in range(60)]
    shapes += [(0, 0), (0, 3), (4, 0), (3, 3)]
    for raw_dim, cols in shapes:
        rel = _random_relations(rng, raw_dim, cols)
        project, section = quotient_by_columns(raw_dim, rel)
        assert (project, section) == _reference_quotient(raw_dim, rel)
        assert project.rows == raw_dim - rel.rank()


def test_quotient_by_columns_takes_one_elimination(monkeypatch):
    # the relations themselves are never eliminated and nothing is
    # inverted: one pivot search on [rel | 1], whose RREF is then reused
    eliminated = []
    real = RatMatrix.pivot_columns

    def counted(mat):
        eliminated.append(mat)
        return real(mat)

    monkeypatch.setattr(RatMatrix, "pivot_columns", counted)
    monkeypatch.setattr(RatMatrix, "inverse", None)
    rel = RatMatrix.from_cols([(1, 1, 0), (2, 2, 0), (0, 0, 0)])
    project, section = quotient_by_columns(3, rel)
    assert len(eliminated) == 1 and eliminated[0].cols == 6
    # e_0 completes span(1, 1, 0), e_1 then lies in the span, e_2 completes
    assert section == RatMatrix.from_cols([(1, 0, 0), (0, 0, 1)])
    assert project == RatMatrix.from_rows([[1, -1, 0], [0, 0, 1]])


@ORACLE
@given(st.data())
def test_tensor_quotient_actions_are_unchanged(data):
    # the induced actions of quotient_module on the relations of a random
    # tensor quotient equal project . a . section of the old construction
    f = data.draw(st.sampled_from(MAPS))
    m = data.draw(modules_over(f.source))
    t = tensor_over(m, f)
    project, section = _reference_quotient(t.relations.rows, t.relations)
    assert (t.project, t.section) == (project, section)
    b = f.target
    actions = [RatMatrix.identity(m.dim).kron(b.right_mult_matrix(e))
               for e in b.basis()]
    assert list(t.module.action) == [project @ a @ section for a in actions]
    again = quotient_module(b, actions, t.relations)
    assert again.module.action == t.module.action


# -- the per-algebra memos of L_x, R_x and inverses

def _count_products(monkeypatch):
    """Each build of an L_x or R_x, as (algebra, side, element)."""
    builds = []
    real = algebra._multiplication_by

    def counted(x, table):
        caller = sys._getframe(1)
        builds.append((caller.f_locals["self"], caller.f_code.co_name,
                       tuple(x)))
        return real(x, table)

    monkeypatch.setattr(algebra, "_multiplication_by", counted)
    return builds


def test_multiplication_matrices_are_built_once_per_element(monkeypatch):
    direct = algebra._multiplication_by
    builds = _count_products(monkeypatch)
    ut = presets.upper_triangular()
    elements = [(1, 0, 0), (0, 1, 0), (1, 0, 0), (F(1), F(0), F(0)),
                (0, 1, 0), (2, F(1, 2), 0)]
    left = [ut.left_mult_matrix(x) for x in elements]
    right = [ut.right_mult_matrix(list(x)) for x in elements]
    assert len(builds) == len(set(builds)) == 6
    assert {side for _, side, _ in builds} == {"left_mult_matrix",
                                               "right_mult_matrix"}
    # an int element and the equal Fraction share one entry
    assert left[3] is left[2] is left[0] and right[3] is right[0]
    assert left[0] == direct((1, 0, 0), ut.mult)
    # a product reads the memo too
    assert ut.mul((0, 1, 0), (0, 0, 1)) == (0, 1, 0) and len(builds) == 6
    # an equal algebra built apart starts empty
    other = presets.upper_triangular()
    assert "_memo_left_mult_matrix" not in vars(other)
    assert other.left_mult_matrix((1, 0, 0)) == left[0]
    assert len(builds) == 7 and builds[-1][0] is other


def test_two_sided_inverse_is_solved_once_per_element(monkeypatch):
    solved = []
    real = RatMatrix.solve

    def counted(mat, b):
        solved.append(tuple(b))
        return real(mat, b)

    monkeypatch.setattr(RatMatrix, "solve", counted)
    dn = presets.dual_numbers()
    elements = [(2, 1), (F(2), F(1)), (0, 1), (2, 1), (0, F(1))]
    inverses = [dn.two_sided_inverse(x) for x in elements]
    assert len(solved) == 2
    assert inverses[0] == inverses[1] == (F(1, 2), F(-1, 4))
    assert inverses[0] is inverses[3]
    assert inverses[2] is inverses[4] is None     # x is nilpotent
    assert dn.mul(inverses[0], (2, 1)) == dn.unit
    assert presets.dual_numbers().two_sided_inverse((2, 1)) == inverses[0]
    assert len(solved) == 3


def test_pipeline_builds_each_multiplication_matrix_once(monkeypatch,
                                                         fixtures):
    # the descent pipeline asks for L_x and R_x many times over; each
    # distinct (algebra, side, element) is built once
    from gscohom.descent import (DescentMachine, canonical_free_datum,
                                 check_descent, verify_pseudonatural)
    builds = _count_products(monkeypatch)
    twisted, _ = presets.twisted_diamond()
    for name, p in dict(fixtures, twisted_diamond=twisted).items():
        del builds[:]
        machine = DescentMachine(p)
        if p.is_strict():
            assert check_descent(canonical_free_datum(machine))[
                "classification"] == "descent", name
        report = verify_pseudonatural(machine, {
            o: [FinModule.free(a)] for o, a in p.algebras.items()})
        assert report["checked"] > 0 and not report["failures"], name
        assert len(builds) == len(set(builds)), name
