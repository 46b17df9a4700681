import ast
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from gscohom import gs as gs_module, linalg
from gscohom.algebra import AlgebraHom, FinBimodule
from gscohom.hochschild import hh_algebra
from gscohom.linalg import ComplexViolation, NotASubcomplex, RatMatrix
from gscohom.gs import (GSCochain, GSComplex, NotCommutative,
                        factor_through_restrictions, KINDS)
from gscohom.shuffles import (VerificationFailed, shuffle_eigenvalue,
                              total_shuffle_operator)
from gscohom import presets
from gscohom.algebra import FinAlgebra
from gscohom.deform import deform
from gscohom.fincat import poset_category
from gscohom.presheaf import TwistedPresheaf, strict_presheaf
from gscohom.simplicial import ModPresheaf, PairComplex
from conftest import ORACLE
from oracles import (cohomology_kinds, eulerian_idempotent,
                     kron_hoch_differential, project_json, rref_cohomology)


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
        theta = GSCochain(1, {(0, 1): {
            sigma.key(): RatMatrix.identity(
                gs.presheaf.algebras[sigma.domain].dim)
            for sigma in gs.category.nerve(0)}})
        vec = gs.flatten_cochain(theta)
        off = next(c.start for c in gs.cells(1) if (c.p, c.q) == (0, 1))
        n01 = gs.pair(1).dim(0)
        out = gs.simp_block(0, 1).apply(vec[off:off + n01])
        assert all(x == 0 for x in out), name


def test_a_block_of_the_wrong_shape_is_not_flattened():
    # a 1 x 4 block at the 2 x 2 cell of ('U0',) has the column-major
    # entries of a 2 x 2 block, but is no 2 x 2 block
    gs = GSComplex(presets.v_poset_commutative())
    square = RatMatrix.from_rows([[1, 3], [2, 4]])
    good = GSCochain(1, {(0, 1): {("U0",): square}})
    assert gs.flatten_cochain(good)[:4] == (1, 2, 3, 4)
    flat = GSCochain(1, {(0, 1): {("U0",): RatMatrix.from_rows(
        [[1, 2, 3, 4]])}})
    with pytest.raises(linalg.ShapeMismatch, match="1 x 4 block"):
        gs.flatten_cochain(flat)
    with pytest.raises(linalg.ShapeMismatch):
        gs.d(flat)


@pytest.mark.parametrize("components", [
    {(0, 1): {("U9",): RatMatrix.identity(2)}},
    {(1, 0): {("U0",): RatMatrix.identity(2)}},
    {(2, 0): {("U01", "U01->U01", "U01->U0"): RatMatrix.zeros(2, 1)}},
], ids=["unknown-object", "0-simplex-key-in-(1,0)", "(2,0)-in-degree-1"])
def test_a_block_off_the_cells_is_not_dropped(components):
    # each block names no cell of C^1: an object that does not exist, a
    # 0-simplex key where the cells are keyed by 1-simplices, a bidegree
    # of total degree 2; flattening it used to give zeros and d of it 0
    gs = GSComplex(presets.v_poset_commutative())
    theta = GSCochain(1, components)
    with pytest.raises(linalg.ShapeMismatch,
                       match=r"names no cell of C\^1$"):
        gs.flatten_cochain(theta)
    with pytest.raises(linalg.ShapeMismatch):
        gs.d(theta)
    assert gs.flatten_cochain(GSCochain(1, {(0, 1): {}, (2, 0): {}})) == \
        (0,) * gs.dim(1)


def test_deform_refuses_a_twist_off_the_2_simplices():
    # c1 at a pair of arrows that do not compose names no cell of C^2
    presheaf = presets.v_poset_commutative()
    with pytest.raises(linalg.ShapeMismatch,
                       match=r"names no cell of C\^2$"):
        deform(presheaf, c1={("U01->U0", "U01->U1"): (5,)})


def test_unflattening_takes_exactly_dim_coordinates():
    gs = GSComplex(presets.v_poset_commutative())
    vec = tuple(range(gs.dim(1)))
    assert gs.flatten_cochain(gs.unflatten_cochain(1, vec)) == vec
    for extra in (3, -1):
        with pytest.raises(linalg.ShapeMismatch, match="coordinates for C"):
            gs.unflatten_cochain(1, (0,) * (gs.dim(1) + extra))


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
            out = cohomology_kinds(
                gs, n, ("full", "normalized", "normalized_reduced"))
            assert len(set(out.values())) == 1, (name, n)


def test_subcomplex_filters(complexes):
    gs = complexes["v_poset_commutative"]
    # full keeps everything
    assert gs.kept_coordinates("full", 2) == list(range(gs.dim(2)))
    # reduced kills degenerate-simplex coordinates
    kept = set(gs.kept_coordinates("normalized_reduced", 2))
    for cell in gs.cells(2):
        if cell.sigma.is_degenerate():
            assert kept.isdisjoint(range(cell.start, cell.stop))
    # all filters are closed under the differential
    for kind in KINDS:
        for n in (0, 1, 2):
            assert gs.check_subcomplex(kind, n)


def test_normalized_filter_kills_unit_slots(complexes):
    gs = complexes["one_object_dual_numbers"]
    kept = set(gs.kept_coordinates("normalized", 2))
    # at (0, 2) the words containing the unit index (0) must be dropped
    cell = gs.cells(2)[0]
    assert (cell.p, cell.q) == (0, 2)
    from gscohom.hochschild import words, word_index
    for w in words(2, 2):
        base = cell.start + word_index(w, 2) * cell.rows
        inside = any(base + k in kept for k in range(cell.rows))
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
    bottom, bottom_next = ({c for cell in gs.cells(n) if cell.q == 0
                            for c in range(cell.start, cell.stop)}
                           for n in (0, 1))
    leaks = [1 for (i, j), v in gs.differential(0).items()
             if j in bottom and i not in bottom_next]
    assert leaks


def test_bottom_row_split_trips_on_a_nonzero_hochschild_block(monkeypatch):
    # d^1 leaves the bottom row exactly through hoch_block(1, 0), which is
    # zero on a commutative presheaf; made nonzero, the split is refused
    gs = GSComplex(presets.v_poset_commutative())
    assert gs.check_bottom_row_split(1)
    block = gs.hoch_block(1, 0)
    assert block.is_zero()
    monkeypatch.setattr(gs, "hoch_block", lambda p, q: RatMatrix(
        block.rows, block.cols, {(0, 0): 1}) if (p, q) == (1, 0) else
        GSComplex.hoch_block(gs, p, q))
    with pytest.raises(NotASubcomplex, match="bottom row is not a subcomplex"):
        gs.split_cohomology(1)


def _drop_a_hit_coordinate(monkeypatch, presheaf, kind, n):
    """Patch the cell rule so that it drops one coordinate of C^{n+1} to
    which d^n maps a coordinate of C^n that `kind` keeps."""
    gs = GSComplex(presheaf)
    kept, kept_next = (set(gs.kept_coordinates(kind, m)) for m in (n, n + 1))
    hit = min(i for (i, j), _ in gs.differential(n).items()
              if j in kept and i in kept_next)
    cell = next(c for c in gs.cells(n + 1) if c.start <= hit < c.stop)
    where = (cell.p, cell.q, cell.sigma.key())
    rule = GSComplex._kept_in_cell

    def dropped(self, kind, c):
        local = rule(self, kind, c)
        if (c.p, c.q, c.sigma.key()) != where:
            return local
        return [x for x in local if x != hit - cell.start]
    monkeypatch.setattr(GSComplex, "_kept_in_cell", dropped)


def test_check_subcomplex_trips_on_a_dropped_coordinate(monkeypatch):
    p = presets.v_poset_commutative()
    _drop_a_hit_coordinate(monkeypatch, p, "normalized_reduced", 1)
    with pytest.raises(NotASubcomplex, match="kind normalized_reduced is "
                       "not closed under d at degree 1"):
        GSComplex(p).cohomology(1, "normalized_reduced")


def test_cli_reports_a_subcomplex_leak(monkeypatch):
    import io
    import json
    from contextlib import redirect_stdout
    from gscohom import cli
    from gscohom.project import load_project
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "demos", "projects", "v_poset.json")
    _drop_a_hit_coordinate(monkeypatch, load_project(path).presheaf,
                           "normalized_reduced", 1)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["cohomology", "--project", path, "--complex", "gs",
                         "--kind", "normalized_reduced", "--degree", "1"])
    payload = json.loads(out.getvalue())
    assert code == 1 and payload["failed_check"] == "NotASubcomplex"
    assert payload["error"] == \
        "kind normalized_reduced is not closed under d at degree 1"


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
    theta = GSCochain(2, {
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
    theta = GSCochain(2, {(0, 2): {("U0",): sym}})
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
            for cell in gs.cells(n):
                size = cell.rows * cell.cols
                if cell.q == 0:
                    blocks.append(RatMatrix.identity(size) if r == 0 else
                                  RatMatrix.zeros(size, size))
                else:
                    blocks.append(gs_module.element_action_matrix(
                        eulerian_idempotent(cell.q, r), cell.rows,
                        cell.algebra.dim))
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
                eulerian_idempotent(q, r).scale(factorial(q)), 1, a_dim)
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


# the algebra family of the random constant presheaves below
ALGEBRAS = {"Q[x]/(x^2)": presets.dual_numbers(),
            "Q[x]/(x^3)": truncated_polynomials(3).algebras["pt"],
            "UT2": presets.upper_triangular(), "QxQ": presets.two_points()}


def constant_presheaf(objects, relations, algebra):
    cat = poset_category(objects, relations)
    return strict_presheaf(cat, {o: algebra for o in cat.objects},
                           {name: RatMatrix.identity(algebra.dim)
                            for name in cat.morphisms})


@st.composite
def posets(draw):
    """Objects P0, ..., P(k-1) for k <= 4 and relations Pi <= Pj drawn for
    i < j, so the poset is antisymmetric and P0, P1, ... is a linear
    extension of it; meets are not required."""
    objects = ["P%d" % i for i in range(draw(st.integers(1, 4)))]
    pairs = [(v, u) for j, u in enumerate(objects) for v in objects[:j]]
    relations = draw(st.lists(st.sampled_from(pairs), unique=True)) \
        if pairs else []
    return objects, relations


@st.composite
def constant_presheaves(draw):
    """A random poset (`posets`) with one algebra of ALGEBRAS on every
    object and identity restrictions: always a valid presheaf."""
    objects, relations = draw(posets())
    return constant_presheaf(
        objects, relations, ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))])


@settings(ORACLE, max_examples=30)
@given(constant_presheaves())
# the crown P0, P1 <= P2, P3 has a circle as its classifying space
@example(constant_presheaf(["P0", "P1", "P2", "P3"],
                           [("P0", "P2"), ("P0", "P3"), ("P1", "P2"),
                            ("P1", "P3")], presets.upper_triangular()))
def test_kunneth_and_the_opposite_map_on_constant_presheaves(presheaf):
    # for a constant presheaf the GS complex is the simplicial cochains of
    # the nerve tensored with the Hochschild complex of A, so over Q
    # GS H^n = sum_{p+q=n} H^p(|P|) HH^q(A); the oracles share no total
    # complex with GS: the pair complex of the constant Q presheaf and
    # hh_algebra.  The opposite map is an involution and a chain map into
    # the complex of the opposite presheaf.
    cat = presheaf.category
    algebra = presheaf.algebras[cat.objects[0]]
    nerve = PairComplex(ModPresheaf.constant(cat), ModPresheaf.constant(cat))
    regular = FinBimodule.regular(algebra)
    space = [nerve.cohomology(p)[0] for p in range(4)]
    hh = [hh_algebra(algebra, regular, q)[0] for q in range(4)]
    gs = GSComplex(presheaf)
    gop = GSComplex(presheaf.opposite())
    for n in range(4):
        assert gs.cohomology(n)[0] == sum(space[p] * hh[n - p]
                                          for p in range(n + 1)), n
        op = gs.op_matrix(n)
        assert gop.op_matrix(n) @ op == RatMatrix.identity(gs.dim(n))
        assert gs.op_matrix(n + 1) @ gs.differential(n) == \
            gop.differential(n) @ op, n


# chains T_0 <- T_1 <- ... of unital algebra maps T_k -> T_{k-1}, given as
# (T_k, matrix of the map to T_{k-1}); the composites of a chain's maps are
# the catalogue of restrictions of `catalogue_presheaves`
CHAINS = {
    "UT2 > QxQ > Q[x]/(x^3) > Q[x]/(x^2) > Q": [
        (presets.rationals(), None),
        (presets.dual_numbers(), [[1, 0]]),                   # x -> 0
        (ALGEBRAS["Q[x]/(x^3)"], [[1, 0, 0], [0, 1, 0]]),     # truncation
        (presets.two_points(), [[1, 0], [0, 0], [0, 0]]),     # first point
        (presets.upper_triangular(), [[1, 0, 0], [0, 0, 1]])],  # diagonal
    "UT2 > QxQ > Q": [
        (presets.rationals(), None),
        (presets.two_points(), [[1, 1]]),                     # second point
        (presets.upper_triangular(), [[1, 0, 0], [0, 0, 1]])],
}


@st.composite
def catalogue_presheaves(draw):
    """A random poset (`posets`) with its algebras drawn from one chain of
    CHAINS, A(V) at or below A(U) in the chain whenever V <= U, and the
    chain's composite map A(U) -> A(V) as the restriction.  Composites of
    a chain's maps compose, so every draw is a valid strict presheaf, and
    its restrictions are identities only between equal algebras."""
    objects, relations = draw(posets())
    cat = poset_category(objects, relations)
    chain = CHAINS[draw(st.sampled_from(sorted(CHAINS)))]
    level = {}
    for obj in objects:
        low = [level[m.source] for m in cat.morphisms.values()
               if m.target == obj and m.source != obj]
        level[obj] = draw(st.integers(max(low, default=0), len(chain) - 1))

    def composite(top, bottom):
        mat = RatMatrix.identity(chain[bottom][0].dim)
        for k in range(bottom + 1, top + 1):
            mat = mat @ RatMatrix.from_rows(chain[k][1])
        return mat
    return strict_presheaf(
        cat, {obj: chain[level[obj]][0] for obj in objects},
        {name: composite(level[m.target], level[m.source])
         for name, m in cat.morphisms.items()})


def simp_oracle(presheaf, p, q):
    """d_simp: C^{p,q} -> C^{p+1,q} placed face by face: each face's block
    goes to the column offset found by the key of `Simplex.face`."""
    f = ModPresheaf.of_algebras(presheaf)
    g = f.tensor_power(q)
    layout = PairComplex(g, f).layout
    offset = {sigma.key(): off for sigma, _, _, off in layout(p)[0]}
    one, placed = RatMatrix.identity, []
    for sigma, rows, cols, out in layout(p + 1)[0]:
        blocks = [one(cols).kron(f.maps[sigma.arrows[0]])] + \
            [one(rows * cols).scale((-1) ** i) for i in range(1, p + 1)] + \
            [f.maps[sigma.arrows[-1]].kron_power(q).transpose().kron(
                one(rows)).scale((-1) ** (p + 1))]
        placed += [(out, offset[sigma.face(i).key()], block)
                   for i, block in enumerate(blocks)]
    return RatMatrix.from_blocks(layout(p + 1)[1], layout(p)[1], placed)


def hoch_oracle(presheaf, p, q, built):
    """d_Hoch: C^{p,q} -> C^{p,q+1}, block diagonal over the p-simplices,
    with one FinBimodule.along the product of the restrictions along each
    simplex (`restriction_along`); `built` shares each local differential
    among equal (object, actions, q)."""
    blocks = []
    for sigma in presheaf.category.nerve(p):
        algebra = presheaf.algebras[sigma.codomain]
        bimod = FinBimodule.along(AlgebraHom(
            algebra, presheaf.algebras[sigma.domain],
            presheaf.restriction_along(sigma)))
        key = (sigma.codomain, bimod.left, bimod.right, q)
        if key not in built:
            built[key] = kron_hoch_differential(algebra, bimod, q)
        blocks.append(built[key])
    return RatMatrix.block_diag(blocks)


def total_oracle(presheaf, n, built):
    """The total differential of degree n from the oracle blocks."""
    grid = [[None] * (n + 1) for _ in range(n + 2)]
    for p in range(n + 1):
        grid[p][p] = hoch_oracle(presheaf, p, n - p, built)
        grid[p + 1][p] = simp_oracle(presheaf, p, n - p).scale(
            (-1) ** (n + 1))
    return RatMatrix.block(grid)


@settings(ORACLE, max_examples=40)
@given(catalogue_presheaves())
# the crown P0, P1 <= P2, P3 has no meets; UT2 on top restricts to Q below
# by its two diagonal characters, one from each chain
@example(strict_presheaf(
    poset_category(["P0", "P1", "P2", "P3"],
                   [("P0", "P2"), ("P0", "P3"), ("P1", "P2"), ("P1", "P3")]),
    {"P0": presets.rationals(), "P1": presets.rationals(),
     "P2": presets.upper_triangular(), "P3": presets.upper_triangular()},
    {"P0->P0": RatMatrix.identity(1), "P1->P1": RatMatrix.identity(1),
     "P2->P2": RatMatrix.identity(3), "P3->P3": RatMatrix.identity(3),
     "P0->P2": RatMatrix.from_rows([[1, 0, 1]]),
     "P0->P3": RatMatrix.from_rows([[1, 0, 1]]),
     "P1->P2": RatMatrix.from_rows([[1, 0, 0]]),
     "P1->P3": RatMatrix.from_rows([[1, 0, 0]])}))
def test_blocks_match_the_face_by_face_oracle_on_random_presheaves(presheaf):
    # d^{n+1} d^n = 0 and the op map is an involution for n <= 3, and every
    # row and column block those differentials use equals the oracle's
    gs = GSComplex(presheaf)
    gop = GSComplex(presheaf.opposite())
    for n in range(4):
        assert (gs.differential(n + 1) @ gs.differential(n)).is_zero(), n
        assert gop.op_matrix(n) @ gs.op_matrix(n) == \
            RatMatrix.identity(gs.dim(n))
    built = {}
    for n in range(5):
        for p in range(n + 1):
            assert gs.simp_block(p, n - p) == simp_oracle(presheaf, p, n - p)
            assert gs.hoch_block(p, n - p) == \
                hoch_oracle(presheaf, p, n - p, built)


@pytest.mark.parametrize("name", sorted(presets.standard_fixtures()))
def test_total_differentials_match_the_oracle_on_the_fixtures(name):
    presheaf = getattr(presets, name)()
    gs, built = GSComplex(presheaf), {}
    for n in range(6):
        assert gs.differential(n) == total_oracle(presheaf, n, built), n


def both_cohomologies(monkeypatch, presheaf, degrees, kinds):
    """{(n, kind): (betti, flat representatives)} of the GS complex, with
    the type of every entry, three times, each from a fresh complex:
    from `linalg.cohomology` in a sweep over the degrees, where each degree
    clears the columns that the degree before accounts for; from it with
    the degrees in reverse order, which clears nothing; and from the RREF
    path of the oracles (`rref_cohomology`).  Hodge summands are included
    where the presheaf is commutative."""
    def run(order):
        gs = GSComplex(presheaf)
        out = {}
        for n in order:
            for kind in kinds:
                betti, reps = gs.cohomology(n, kind)
                out[(n, kind)] = betti, [
                    [(type(x), x) for x in gs.flatten_cochain(r)]
                    for r in reps]
        if all(a.is_commutative() for a in presheaf.algebras.values()):
            for n in order:
                for r in range(n + 1):
                    out[(n, "hodge", r)] = gs.hodge_cohomology(n, r)
        return out
    new = run(degrees)
    backwards = run(degrees[::-1])
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "cohomology", rref_cohomology)
        patched.setattr(gs_module, "linalg_cohomology", rref_cohomology)
        old = run(degrees)
    return new, backwards, old


@pytest.mark.parametrize("name", sorted(presets.standard_fixtures()))
def test_cohomology_matches_the_rref_oracle_on_the_fixtures(monkeypatch,
                                                            name):
    # every kind, n <= 5, asked in either order: the same Betti numbers
    # and representatives as the RREF, kernel matrix and span completion
    new, backwards, old = both_cohomologies(
        monkeypatch, getattr(presets, name)(), range(6), KINDS)
    assert new == backwards == old
    assert any(reps for betti, reps in (v for v in new.values()
                                        if isinstance(v, tuple)))


@settings(ORACLE, max_examples=25)
@given(catalogue_presheaves())
def test_cohomology_matches_the_rref_oracle_on_random_presheaves(presheaf):
    # QxQ has the unit (1, 1), which is no basis vector, so the normalized
    # kinds run only where every unit is one
    kinds = KINDS if all(a.unit_index() is not None
                         for a in presheaf.algebras.values()) \
        else ("full", "truncated")
    with pytest.MonkeyPatch.context() as monkeypatch:
        new, backwards, old = both_cohomologies(monkeypatch, presheaf,
                                                range(4), kinds)
    assert new == backwards == old


def test_a_sweep_eliminates_only_what_the_degree_before_leaves(monkeypatch):
    # counts, no timing: in a sweep of diamond_mixed the column elimination
    # of d^n gets the dim C^n - rank d^{n-1} columns outside the trailing
    # rows of im d^{n-1}, less the zero columns, which are not stored;
    # exactly betti_n of them, with the zero columns, reduce to zero; no
    # echelon of all the rows of a d^n is built, and the rows eliminated
    # for the representatives are independent
    gs = GSComplex(presets.diamond_mixed())
    columns, eliminations = [], []
    real_columns, real_echelon = RatMatrix._integer_columns, \
        linalg._row_echelon

    def recorded_columns(self, cleared):
        lines = real_columns(self, cleared)
        columns.append((lines, self))
        return lines

    def recorded_echelon(rows, *lead):
        basis = real_echelon(rows, *lead)
        source = next((m for lines, m in columns if lines is rows), None)
        eliminations.append((source, len(rows), len(basis)))
        return basis
    monkeypatch.setattr(RatMatrix, "_integer_columns", recorded_columns)
    monkeypatch.setattr(linalg, "_row_echelon", recorded_echelon)
    top = 8
    betti = [gs.cohomology(n)[0] for n in range(top + 1)]
    monkeypatch.undo()
    assert betti == [2] + [1] * top
    rank_before, t_in = 0, frozenset()
    for n in range(top + 1):
        d = gs.differential(n)
        columns_in = gs.dim(n) - rank_before
        zero = len(set(range(d.cols)) - {j for (_, j), _ in d.items()} - t_in)
        assert [(size + zero, size - basis + zero)
                for m, size, basis in eliminations
                if m is d] == [(columns_in, betti[n])], n
        assert d._ech is None, n
        rank_before = RatMatrix(d.rows, d.cols, dict(d.items())).rank()
        t_in = d._trail
    by_rows = [(size, basis) for m, size, basis in eliminations if m is None]
    assert len(by_rows) == top + 1
    assert all(size == basis for size, basis in by_rows)


def non_composing_diamond():
    """A strict presheaf on the diamond AB <= A, B <= T whose restrictions
    are unital algebra maps that do not compose: AB -> A -> T restricts
    A(T) = Q x Q to its first point, AB -> T to its second."""
    cat = presets.diamond_poset().category
    qq, q = presets.two_points(), presets.rationals()
    algebras = {"T": qq, "A": qq, "B": qq, "AB": q}
    first, second = RatMatrix.from_rows([[1, 0]]), \
        RatMatrix.from_rows([[1, 1]])
    restrictions = {"AB->A": first, "AB->B": first, "AB->T": second}
    for name, m in cat.morphisms.items():
        restrictions.setdefault(name,
                                RatMatrix.identity(algebras[m.source].dim))
    return TwistedPresheaf(cat, algebras, restrictions)


def test_f_sigma_is_the_product_along_sigma(tmp_path):
    # on a presheaf whose restrictions do not compose, f^sigma is still the
    # product of the restrictions along sigma (the oracle's
    # restriction_along), not the restriction of the composite arrow, and
    # the library and the CLI keep their verdict: d^2 d^1 != 0
    presheaf = non_composing_diamond()
    assert presheaf.is_strict()
    assert [fail[0] for fail in presheaf.check()] == ["twist_conjugation"] * 2
    gs, built = GSComplex(presheaf), {}
    for n in range(4):
        assert gs.differential(n) == total_oracle(presheaf, n, built), n
    assert gs.cohomology(0)[0] == 1
    with pytest.raises(ComplexViolation,
                       match="composite of differentials is not zero"):
        gs.cohomology(2)
    project = tmp_path / "non_composing.json"
    project.write_text(json.dumps(project_json(
        {"objects": ["T", "A", "B", "AB"],
         "relations": [["A", "T"], ["B", "T"], ["AB", "A"], ["AB", "B"]]},
        {"qq": presets.two_points(), "q": presets.rationals()}, presheaf,
        {"T": "qq", "A": "qq", "B": "qq", "AB": "q"})))
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    done = subprocess.run(
        [sys.executable, "-m", "gscohom.cli", "--quiet", "cohomology",
         "--project", str(project), "--complex", "gs", "--degree", "2"],
        capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (1, "")
    report = json.loads(done.stdout)
    assert (report["failed_check"], report["error"]) == \
        ("ComplexViolation", "composite of differentials is not zero")


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
from gscohom.algebra import (FinAlgebra, FinBimodule, FinModule,
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
# modules over algebras whose dimensions do not fit
q, dn = presets.rationals(), presets.dual_numbers()
print(outcome(lambda: module_hom_space(FinModule.free(q), FinModule.free(dn))))
# relations in Q^2 presented as living in Q^1
print(outcome(lambda: quotient_by_columns(1, RatMatrix.identity(2))))
# the complement certificate, fed an elimination whose kernel columns are
# doubled: the inverse it reads off them is twice the true one
real_kernel_columns = RatMatrix._kernel_columns
RatMatrix._kernel_columns = \
    lambda self, free: real_kernel_columns(self, free).scale(2)
print(outcome(lambda: quotient_by_columns(2, RatMatrix.identity(2))))
RatMatrix._kernel_columns = real_kernel_columns
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
                                   "VerificationFailed", "InvalidStructure",
                                   "InvalidStructure"]


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
    assert count <= 0


# public names of src/gscohom that nothing in src/, bench/ or demos/ uses,
# each with the reason it stays; the list may shrink but never grow
UNREFERENCED_API = {
    "descent.check_semiseparated":
        "the paper's semi-separation test, to be checked under deformation",
}


def unreferenced_api(root):
    """module.qualname of each public function, class or method in
    src/gscohom that nothing in src/, bench/ or demos/ references.  A
    module-level function or class is referenced by an import of it from
    its module, a bare name inside its module, or <module>.<name> (through
    any alias of the module); a method by any name, attribute or import
    spelled like it."""
    def sources(top):
        for folder, _, names in sorted(os.walk(os.path.join(root, top))):
            for name in sorted(names):
                if name.endswith(".py"):
                    with open(os.path.join(folder, name)) as handle:
                        yield name[:-3], ast.parse(handle.read())

    used, spelled = set(), set()    # (module, name) pairs; bare spellings
    for top in ("src", "bench", "demos"):
        for module, tree in sources(top):
            aliases = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    origin = (node.module or "").rsplit(".", 1)[-1]
                    for alias in node.names:
                        used.add((origin, alias.name))
                        aliases[alias.asname or alias.name] = alias.name
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        aliases[alias.asname or alias.name] = \
                            alias.name.rsplit(".", 1)[-1]
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    spelled.add(node.id)
                    if top == "src":
                        used.add((module, node.id))
                elif isinstance(node, ast.Attribute):
                    spelled.add(node.attr)
                    owner = node.value
                    if isinstance(owner, ast.Name):
                        used.add((aliases.get(owner.id, owner.id), node.attr))
                    elif isinstance(owner, ast.Attribute):
                        used.add((owner.attr, node.attr))
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    spelled.update(a.name.rsplit(".", 1)[-1]
                                   for a in node.names)

    def public(body, module, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    not node.name.startswith("_"):
                if prefix:
                    referenced = node.name in spelled
                else:
                    referenced = (module, node.name) in used
                if not referenced:
                    yield module + "." + prefix + node.name
                if isinstance(node, ast.ClassDef):
                    yield from public(node.body, module,
                                      prefix + node.name + ".")

    return sorted(qualname
                  for module, tree in sources(os.path.join("src", "gscohom"))
                  for qualname in public(tree.body, module, ""))


def test_unreferenced_library_api_does_not_grow():
    # API that only tests call is deleted or moved into its test; what
    # stays is listed above with its reason, and a stale entry fails too
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    assert unreferenced_api(root) == sorted(UNREFERENCED_API)


def unused_imports(text):
    """(line, name) for each name that an import statement of the module
    source `text` binds and the module never references; a statement whose
    first line carries `noqa: F401` is exempt (flake8's F401, stdlib only)."""
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(node.lineno, bound)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and
            "noqa: F401" not in lines[node.lineno - 1]
            for alias in node.names
            for bound in [(alias.asname or alias.name).split(".")[0]]
            if bound not in used]


def test_library_imports_are_all_used():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src", "gscohom")
    found = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as handle:
                unused = unused_imports(handle.read())
            if unused:
                found[name] = unused
    assert not found
    # the check sees a dead import, a dead module import and the exemption
    assert unused_imports("from .shuffles import perm_action_matrix\n"
                          "import os.path\n"
                          "from .gs import KINDS  # noqa: F401\n") == \
        [(1, "perm_action_matrix"), (2, "os")]


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
        cohomology_kinds(gs, 1, ("full", "normalized"))
    # the truncations are not quasi-isomorphic and are not compared
    assert cohomology_kinds(gs, 1, ("full", "truncated")) == \
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
