from fractions import Fraction as F

import pytest

from gscohom.linalg import RatMatrix, NotASubcomplex, subcomplex_cohomology
from gscohom.simplicial import (ModPresheaf, PairComplex, presheaf_cohomology,
                                PresheafComplex)
from gscohom import presets


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
    with pytest.raises(AssertionError):
        ModPresheaf(cat, dims, bad)


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
