from fractions import Fraction as F

import pytest

from gscohom.algebra import InvalidStructure
from gscohom.linalg import (RatMatrix, NotASubcomplex, VerificationFailed,
                            flatten, subcomplex_cohomology, unflatten)
from gscohom.simplicial import ModPresheaf, PairComplex, presheaf_cohomology
from gscohom import presets
from conftest import INVOLUTIONS, involution_presheaf, random_matrix
from oracles import PresheafComplex, pair_differential, simplex_face


def underlying(p):
    return ModPresheaf.of_algebras(p)


def test_constant_presheaf_cohomology():
    # contractible nerve: H^0 = 1, the rest vanish
    for poset in (presets.v_poset(), presets.diamond_poset()):
        f = ModPresheaf.constant(poset.category)
        bettis = [presheaf_cohomology(f, p)[0] for p in range(4)]
        assert bettis == [1, 0, 0, 0]


def test_functoriality_is_validated():
    cat = presets.v_poset().category
    dims = {o: 1 for o in cat.objects}
    maps = {name: RatMatrix.identity(1) for name in cat.morphisms}
    maps["U01->U0"] = RatMatrix.from_rows([[2]])
    maps["U01->U1"] = RatMatrix.from_rows([[1]])
    ModPresheaf(cat, dims, maps)  # still functorial (poset, no relations)
    bad = {name: RatMatrix.identity(1) for name in cat.morphisms}
    bad[cat.identity("U0")] = RatMatrix.from_rows([[2]])
    with pytest.raises(InvalidStructure):
        ModPresheaf(cat, dims, bad)


@pytest.mark.parametrize("name", ["v_poset_triangular", "diamond_mixed"])
def test_pair_differential_matches_face_formula(name, rng):
    # on random cochains, by matrix products: d(phi)^sigma =
    #   F(u_1) phi^{d_0 sigma} + sum_{i=1}^{p} (-1)^i phi^{d_i sigma}
    #   + (-1)^{p+1} phi^{d_{p+1} sigma} G(u_{p+1})
    f = underlying(getattr(presets, name)())
    for q in range(3):
        g = f.tensor_power(q)
        cx = PairComplex(g, f)
        for p in range(4):
            phi = {sigma.key(): random_matrix(rng, rows, cols)
                   for sigma, rows, cols, _ in cx.layout(p)[0]}
            vec = [x for sigma, _, _, _ in cx.layout(p)[0]
                   for x in flatten(phi[sigma.key()])]
            out = cx.differential(p).apply(tuple(vec))
            for sigma, rows, cols, off in cx.layout(p + 1)[0]:
                faces = [phi[simplex_face(sigma, i).key()]
                         for i in range(p + 2)]
                expected = f.maps[sigma.arrows[0]] @ faces[0]
                for i in range(1, p + 1):
                    expected = expected + faces[i].scale((-1) ** i)
                expected = expected + (faces[p + 1] @ g.maps[
                    sigma.arrows[-1]]).scale((-1) ** (p + 1))
                assert unflatten(out[off:off + rows * cols], rows, cols) \
                    == expected, (q, p, sigma.key())


@pytest.mark.parametrize("name", sorted(INVOLUTIONS))
def test_outer_faces_that_coincide_add_up(name):
    # on the group Z/2 both outer faces of the 1-simplex s are the one
    # 0-simplex, so each outer block adds where a face was written already
    presheaf = involution_presheaf(name)
    f = ModPresheaf.of_algebras(presheaf)
    for g in [ModPresheaf.constant(presheaf.category)] + \
            [f.tensor_power(q) for q in range(3)]:
        cx = PairComplex(g, f)
        for p in range(4):
            assert cx.differential(p) == pair_differential(g, f, p), p
            assert (cx.differential(p + 1) @ cx.differential(p)).is_zero()


@pytest.mark.parametrize("name", sorted(INVOLUTIONS))
def test_presheaf_cohomology_of_an_involution_is_the_invariants(name):
    # group cohomology of a finite group over Q: the invariants in degree
    # 0, nothing above
    presheaf = involution_presheaf(name)
    s = presheaf.restrictions["s"]
    invariants = s.cols - (s - RatMatrix.identity(s.rows)).rank()
    f = ModPresheaf.of_algebras(presheaf)
    assert [presheaf_cohomology(f, p)[0] for p in range(5)] == \
        [invariants, 0, 0, 0, 0]
    assert invariants == 1


def test_degree_zero_differential_pattern():
    # (d phi)^{V <= U} = f(phi_U) - phi_V on the strict inclusions
    p = presets.v_poset_commutative()
    f = underlying(p)
    cx = PairComplex(ModPresheaf.constant(p.category), f)
    vec = [F(0)] * cx.dim(0)
    values = {"U0": (F(1), F(2)), "U1": (F(3), F(4)), "U01": (F(5),)}
    for sigma, rows, cols, off in cx.layout(0)[0]:
        for i, v in enumerate(values[sigma.domain]):
            vec[off + i] = v
    out = cx.differential(0).apply(tuple(vec))
    blocks = cx.block_index(1)
    for sigma, rows, cols, off in cx.layout(1)[0]:
        got = tuple(out[off + i] for i in range(rows))
        if sigma.is_degenerate():
            assert all(v == 0 for v in got)
        else:
            u = sigma.arrows[0]
            expected = tuple(
                a - b for a, b in zip(
                    p.restrictions[u].apply(values[sigma.codomain]),
                    values[sigma.domain]))
            assert got == expected


def test_zero_maps_to_zero(fixtures):
    for p in fixtures.values():
        cx = PairComplex(ModPresheaf.constant(p.category), underlying(p))
        assert cx.differential(0).apply((F(0),) * cx.dim(0)) == \
            (F(0),) * cx.dim(1)


def test_d_squared_zero_pair_complexes(fixtures):
    for p in fixtures.values():
        f = underlying(p)
        for q in (0, 1, 2):
            cx = PairComplex(f.tensor_power(q), f)
            for deg in range(0, 3):
                assert (cx.differential(deg + 1) @ cx.differential(deg)) \
                    .is_zero()


def test_reduced_subcomplex_closed(fixtures):
    for p in fixtures.values():
        cx = PairComplex(ModPresheaf.constant(p.category), underlying(p))
        for deg in (0, 1, 2):
            keep = set(cx.reduced_coordinates(deg))
            keep_next = set(cx.reduced_coordinates(deg + 1))
            for (i, j), v in cx.differential(deg).items():
                if j in keep:
                    assert i in keep_next


def test_reduced_betti_agree(fixtures):
    for p in fixtures.values():
        cx = PairComplex(ModPresheaf.constant(p.category), underlying(p))
        for deg in (0, 1, 2):
            assert cx.cohomology(deg)[0] == cx.cohomology(deg, reduced=True)[0]


def test_presheaf_complex(fixtures):
    for name, p in fixtures.items():
        pc = PresheafComplex(p, 2)
        assert pc.check_complex()
        dims = pc.check_kernel_is_algebra()
        for obj in p.category.objects:
            assert dims[obj] == p.algebras[obj].dim


def test_presheaf_complex_slice_dimensions():
    p = presets.v_poset_commutative()
    pc = PresheafComplex(p, 1)
    # two slice objects over U0: the identity and the inclusion of U01
    assert pc.levels[0].dims["U0"] == \
        p.algebras["U0"].dim + p.algebras["U01"].dim
    assert pc.levels[0].dims["U01"] == p.algebras["U01"].dim


# each check of PresheafComplex tripped by one broken matrix of the slice
# complex of v_poset_commutative (pinned below); A^0(U0) = A(U0) + A(U01)

def test_presheaf_complex_trips_on_a_non_natural_phi():
    pc = PresheafComplex(presets.v_poset_commutative(), 1)
    pc.levels[1].maps["U0->U0"] = pc.levels[1].maps["U0->U0"].scale(2)
    with pytest.raises(VerificationFailed,
                       match="^phi is not natural along U0->U0$"):
        pc.check_complex()


def test_presheaf_complex_trips_on_a_non_injective_embedding():
    pc = PresheafComplex(presets.v_poset_commutative(), 1)
    pc.eps["U0"] = RatMatrix.zeros(3, 2)
    with pytest.raises(VerificationFailed,
                       match="^embedding is not injective at U0$"):
        pc.check_kernel_is_algebra()


def test_presheaf_complex_trips_on_a_kernel_of_the_wrong_dimension():
    pc = PresheafComplex(presets.v_poset_commutative(), 1)
    pc.phi[0]["U0"] = RatMatrix.zeros(4, 3)
    with pytest.raises(VerificationFailed,
                       match=r"^kernel of phi\^0 has dim 3 != dim A\(U0\) = "
                             r"2$"):
        pc.check_kernel_is_algebra()


def test_presheaf_complex_trips_on_an_image_outside_the_kernel():
    # injective, but (1, 0, 0) breaks v_0 = v_2, the kernel of phi^0
    pc = PresheafComplex(presets.v_poset_commutative(), 1)
    pc.eps["U0"] = RatMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
    with pytest.raises(VerificationFailed,
                       match=r"^the image of A\(U0\) is not in the kernel of "
                             r"phi\^0$"):
        pc.check_kernel_is_algebra()


def test_slice_complex_matrices_are_pinned():
    # v_poset_commutative over U0.  A^0(U0) has the blocks of the slice
    # objects U0->U0 (A(U0) = Q[x]/(x^2)) and U01->U0 (A(U01) = Q); A^1(U0)
    # the blocks of the 1-simplices id|U0->U0, id|U01->U0 and
    # U01->U0|U0->U0, of dims 2, 1, 1.  phi^2 = 0, naturality and the
    # kernel hold for any reordering of the blocks; these matrices do not.
    p = presets.v_poset_commutative()
    pc = PresheafComplex(p, 2)
    rows = RatMatrix.from_rows
    assert pc.phi[0]["U0"] == rows([[0, 0, 0], [0, 0, 0], [0, 0, 0],
                                    [1, 0, -1]])
    assert pc.phi[1]["U0"] == rows([[1, 0, 0, 0], [0, 1, 0, 0],
                                    [0, 0, 1, 0], [0, 0, 1, 0],
                                    [1, 0, 0, 0]])
    assert pc.eps["U0"] == rows([[1, 0], [0, 1], [1, 0]])
    rho = pc.levels[0].maps
    assert rho["U0->U0"] == rho["U1->U1"] == RatMatrix.identity(3)
    assert rho["U01->U01"] == RatMatrix.identity(1)
    assert rho["U01->U0"] == rows([[0, 0, 1]])
    assert rho["U01->U1"] == rows([[1, 0, 0]])


def test_bogus_keep_set_is_not_a_subcomplex():
    p = presets.v_poset_commutative()
    cx = PairComplex(ModPresheaf.constant(p.category), underlying(p))
    keep = lambda m: list(range(cx.dim(0))) if m == 0 else []
    for n in (0, 1):
        with pytest.raises(NotASubcomplex):
            subcomplex_cohomology(cx.differential, n, keep)


def test_reduced_representatives_live_in_the_full_complex(fixtures):
    for p in fixtures.values():
        cx = PairComplex(ModPresheaf.constant(p.category), underlying(p))
        for deg in (0, 1, 2):
            betti, reps = cx.cohomology(deg, reduced=True)
            assert len(reps) == betti
            kept = set(cx.reduced_coordinates(deg))
            for v in reps:
                assert len(v) == cx.dim(deg)
                assert all(x == 0 for i, x in enumerate(v) if i not in kept)
                assert not any(cx.differential(deg).apply(v))
