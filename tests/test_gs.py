from fractions import Fraction as F

import pytest

from gscohom.linalg import RatMatrix
from gscohom.gs import (GSComplex, NotCommutative,
                        factor_through_restrictions, cochain_from_parts, KINDS)
from gscohom.shuffles import VerificationFailed
from gscohom import presets


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
            # components live in the image of the projector
            v = gs.flatten_cochain(parts[r])
            assert gs.hodge_projector(n, r).apply(v) == v


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
    with pytest.raises(AssertionError):
        factor_through_restrictions(gs, 0, 2, {sigma.key(): symmetric})


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
