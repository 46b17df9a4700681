"""Acceptance criteria.

One test per criterion; each prints a single PASS line (visible with -s, and
mirrored by the verbose pytest status) and enforces the stated wall-clock
budget.  All assertions are exact: no tolerances anywhere.
"""

import time
from fractions import Fraction as F
from math import factorial

import pytest

from gscohom.linalg import RatMatrix
from gscohom.algebra import (FinModule, FinBimodule, AlgebraHom,
                             check_flat_epimorphism)
from gscohom.simplicial import ModPresheaf, PairComplex
from gscohom.cech import compare_simp_cech
from gscohom.hochschild import (hoch_differential, hh_algebra,
                                regular_bimodule, words, word_index)
from gscohom.shuffles import eulerian_idempotents, GroupAlgebraElement
from gscohom.gs import GSComplex
from gscohom.deform import (deform, CandidateTriple, EquivalencePair,
                            equivalence, opposite_deformation,
                            deformation_from_cochain, bidirectional_verdicts)
from gscohom.descent import (DescentMachine, canonical_free_datum,
                             check_descent, check_datum_morphism,
                             pointwise_kernel, pointwise_cokernel,
                             q_functor_hom_check, verify_pseudonatural)
from gscohom import presets
from conftest import random_matrix
from oracles import PresheafComplex, element_is_zero, op_cochain

import random


def report(num, name, t0, budget):
    elapsed = time.time() - t0
    print("ACCEPTANCE %d (%s): PASS in %.1fs (budget %ds)"
          % (num, name, elapsed, budget))
    assert elapsed < budget, "criterion %d exceeded its %ds budget" % (num,
                                                                       budget)


@pytest.fixture(scope="module")
def fixture_complexes():
    return {name: GSComplex(p)
            for name, p in presets.standard_fixtures().items()}


def test_criterion_1_differentials_square_to_zero(fixture_complexes):
    t0 = time.time()
    for name, gs in fixture_complexes.items():
        p = gs.presheaf
        # Hochschild differentials on every local algebra, degrees <= 3
        for obj in p.category.objects:
            a = p.algebras[obj]
            bim = regular_bimodule(a)
            for n in range(0, 4):
                dn = hoch_differential(a, bim, n)
                dn1 = hoch_differential(a, bim, n + 1)
                assert (dn1 @ dn).is_zero(), (name, obj, n)
        # simplicial differentials on the tensor-power rows
        f = ModPresheaf.of_algebras(p)
        for q in (0, 1, 2):
            cx = PairComplex(f.tensor_power(q), f)
            for deg in range(0, 4):
                assert (cx.differential(deg + 1) @ cx.differential(deg)) \
                    .is_zero(), (name, q, deg)
        # the total differential
        for n in range(0, 4):
            assert (gs.differential(n + 1) @ gs.differential(n)).is_zero(), \
                (name, n)
    assert len(fixture_complexes) >= 4
    report(1, "differentials square to zero", t0, 60)


def _naive_hochschild_matrix(algebra, bimodule, n):
    """An independent construction of the degree-n differential: evaluate
    the sum-of-terms formula on every pair of basis words by direct
    multiplication, with the actions of a basis element read off
    `bimodule.left` and `bimodule.right` (no Kronecker products, no shared
    code path with `hoch_differential`)."""
    d, m = algebra.dim, bimodule.dim

    def basis(size, c):
        return tuple(F(1) if t == c else F(0) for t in range(size))

    def act(mats, x, v):
        # the algebra element x acting on the module vector v
        out = [F(0)] * m
        for a, c in enumerate(x):
            if c:
                for r, y in enumerate(mats[a].apply(v)):
                    out[r] += c * y
        return out

    entries = {}
    for w in words(d, n):
        for k in range(m):
            def phi(args):
                # the cochain sending the word w to e_k and every other
                # basis word to zero, extended multilinearly
                coeff = F(1)
                for x, c in zip(args, w):
                    coeff *= x[c]
                return [coeff * y for y in basis(m, k)]
            for w_out in words(d, n + 1):
                xs = [basis(d, c) for c in w_out]
                total = act(bimodule.left, xs[0], phi(xs[1:]))
                for i in range(1, n + 1):
                    merged = xs[:i - 1] + [algebra.mul(xs[i - 1], xs[i])] + \
                        xs[i + 1:]
                    total = [t + (-1) ** i * y
                             for t, y in zip(total, phi(merged))]
                last = act(bimodule.right, xs[-1], phi(xs[:-1]))
                total = [t + (-1) ** (n + 1) * y for t, y in zip(total, last)]
                for r, v in enumerate(total):
                    if v:
                        entries[(word_index(w_out, d) * m + r,
                                 word_index(w, d) * m + k)] = v
    return RatMatrix(m * d ** (n + 1), m * d ** n, entries)


def test_criterion_2_hochschild_oracle():
    t0 = time.time()
    dn = presets.dual_numbers()
    bim = regular_bimodule(dn)
    expected = [2, 1, 1, 1, 1]
    full = [hh_algebra(dn, bim, n)[0] for n in range(5)]
    normalized = [hh_algebra(dn, bim, n, normalized=True)[0]
                  for n in range(5)]
    assert full == expected
    assert normalized == expected
    # independent evaluation-based construction agrees matrix-for-matrix
    for n in range(0, 4):
        assert _naive_hochschild_matrix(dn, bim, n) == \
            hoch_differential(dn, bim, n), n
    report(2, "Hochschild oracle (2,1,1,1,1)", t0, 10)


def _oracle_bimodules():
    """The regular bimodule of the upper-triangular algebra, and A(V) as an
    A(U)-bimodule along every restriction u: V -> U of two fixtures (an
    identity gives a regular bimodule, so identities are left out)."""
    yield pytest.param(regular_bimodule(presets.upper_triangular()),
                       id="UT2-regular")
    for name in ("v_poset_triangular", "diamond_mixed"):
        p = getattr(presets, name)()
        for u, m in sorted(p.category.morphisms.items()):
            if p.category.is_identity(u):
                continue
            hom = AlgebraHom(p.algebras[m.target], p.algebras[m.source],
                             p.restrictions[u])
            yield pytest.param(FinBimodule.along(hom), id="%s-%s" % (name, u))


@pytest.mark.parametrize("bimodule", list(_oracle_bimodules()))
def test_hochschild_oracle_along_restrictions(bimodule):
    # noncommutative algebras and bimodules whose left and right actions
    # differ, so a swapped or misplaced action cannot cancel out
    for n in range(0, 4):
        assert _naive_hochschild_matrix(bimodule.left_algebra, bimodule, n) \
            == hoch_differential(bimodule.left_algebra, bimodule, n), n


def _random_triple(rng, presheaf, span=1):
    cat = presheaf.category
    m1 = {o: random_matrix(rng, presheaf.algebras[o].dim,
                           presheaf.algebras[o].dim ** 2, span=span)
          for o in cat.objects}
    f1 = {name: random_matrix(rng, presheaf.algebras[m.source].dim,
                              presheaf.algebras[m.target].dim, span=span)
          for name, m in cat.morphisms.items()}
    c1 = {}
    for sigma in cat.nerve(2):
        dom = presheaf.algebras[sigma.domain]
        c1[sigma.arrows] = tuple(F(rng.randint(-span, span))
                                 for _ in range(dom.dim))
    return CandidateTriple(presheaf, m1, f1, c1)


def _random_pair(rng, presheaf):
    cat = presheaf.category
    g1 = {}
    for obj in cat.objects:
        a = presheaf.algebras[obj]
        entries = {}
        for i in range(a.dim):
            for j in range(a.dim):
                if j != a.unit_index():
                    entries[(i, j)] = F(rng.randint(-2, 2))
        g1[obj] = RatMatrix(a.dim, a.dim, entries)
    tau1 = {name: tuple(F(rng.randint(-2, 2))
                        for _ in range(presheaf.algebras[m.source].dim))
            for name, m in cat.morphisms.items()
            if not cat.is_identity(name)}
    return EquivalencePair(presheaf, g1, tau1)


def test_criterion_3_deformation_round_trip(fixture_complexes):
    t0 = time.time()
    rng = random.Random(987123)
    for name, gs in fixture_complexes.items():
        p = gs.presheaf
        samples = []
        # genuine cocycles from computed representatives
        _, reps = gs.cohomology(2, "normalized_reduced")
        samples.extend(deformation_from_cochain(p, rep) for rep in reps)
        # coboundaries of normalized reduced 1-cochains
        pairs = []
        for _ in range(6):
            pair = _random_pair(rng, p)
            pairs.append(pair)
            samples.append(deformation_from_cochain(
                p, gs.d(pair.as_cochain(gs))))
        n_exact = len(samples)
        # random perturbations
        while len(samples) < 20:
            samples.append(_random_triple(rng, p))
        disagreements = 0
        for triple in samples:
            axiom_ok, cochain_ok, _, _ = bidirectional_verdicts(p, triple,
                                                                gs=gs)
            if axiom_ok != cochain_ok:
                disagreements += 1
        assert disagreements == 0, name
        assert len(samples) >= 20
        # coboundary-difference pairs are equivalences via the morphism axioms
        trivial = deform(p, gs=gs)
        for pair in pairs[:3]:
            boundary = deformation_from_cochain(p, gs.d(pair.as_cochain(gs)))
            defn = deform(p, boundary, gs=gs)
            verdict = equivalence(defn, trivial, pair, gs=gs)
            assert verdict["isomorphism"], name
    report(3, "cocycle/deformation round trip", t0, 60)


def test_criterion_4_hodge_suite(fixture_complexes):
    t0 = time.time()
    # idempotent family: exact group-algebra verification for n <= 5
    for n in range(1, 6):
        es = eulerian_idempotents(n)
        total = GroupAlgebraElement.zero(n)
        for i, e in enumerate(es):
            assert e * e == e, (n, i)
            total = total + e
            for j in range(i + 1, n):
                assert element_is_zero(e * es[j]), (n, i, j)
        assert total == GroupAlgebraElement.one(n), n
    for name in ("v_poset_commutative", "diamond_mixed"):
        gs = fixture_complexes[name]
        for deg in range(0, 4):
            total = gs.cohomology(deg)[0]
            acc = 0
            for r in range(0, deg + 2):
                assert gs.check_hodge_stability(deg, r), (name, deg, r)
                if r <= deg:
                    acc += gs.hodge_cohomology(deg, r)
            assert acc == total, (name, deg)
        # the r = 0 projector is exactly the bottom-row projector (times
        # deg!, the scale of the integral projectors)
        for deg in (1, 2, 3):
            p0 = gs.hodge_projector(deg, 0)
            bottom = {c for cell in gs.cells(deg) if cell.q == 0
                      for c in range(cell.start, cell.stop)}
            for (i, j), v in p0.items():
                assert i == j and i in bottom and v == factorial(deg)
            assert p0.nnz() == len(bottom)
    report(4, "Hodge suite", t0, 120)


def test_criterion_5_cech_comparison():
    t0 = time.time()
    cases = [
        (presets.v_poset(), ModPresheaf.of_algebras(
            presets.v_poset_commutative())),
        (presets.diamond_poset(), ModPresheaf.of_algebras(
            presets.diamond_mixed())),
    ]
    for poset, f in cases:
        rep = compare_simp_cech(f, poset, 3)
        assert rep["pi_iota_identity"]
        assert rep["homotopy_identity"]
        assert rep["simp_betti"] == rep["cech_betti"]
    report(5, "Cech-simplicial comparison", t0, 60)


def test_criterion_6_presheaf_complex(fixture_complexes):
    t0 = time.time()
    for name, gs in fixture_complexes.items():
        pc = PresheafComplex(gs.presheaf, 2)
        assert pc.check_complex(), name
        dims = pc.check_kernel_is_algebra()
        for obj in gs.presheaf.category.objects:
            assert dims[obj] == gs.presheaf.algebras[obj].dim, (name, obj)
    report(6, "presheaf complex", t0, 10)


def test_criterion_7_opposite_machinery(fixture_complexes):
    t0 = time.time()
    rng = random.Random(555)
    # Hochschild: op is an involutive chain isomorphism on every local algebra
    from gscohom.hochschild import HCochain, d_hoch
    seen = set()
    for gs in fixture_complexes.values():
        for obj in gs.presheaf.category.objects:
            a = gs.presheaf.algebras[obj]
            if (a.name, a.dim) in seen:
                continue
            seen.add((a.name, a.dim))
            bim = regular_bimodule(a)
            for n in (1, 2):
                phi = HCochain(a, bim, n,
                               random_matrix(rng, a.dim, a.dim ** n))
                assert op_cochain(op_cochain(phi)).matrix == phi.matrix
                assert op_cochain(d_hoch(phi)).matrix == \
                    d_hoch(op_cochain(phi)).matrix
    # GS: op is an involutive chain isomorphism
    for name, gs in fixture_complexes.items():
        gop = GSComplex(gs.presheaf.opposite())
        for n in (0, 1, 2):
            opn = gs.op_matrix(n)
            assert opn @ opn == RatMatrix.identity(gs.dim(n)), (name, n)
            assert gop.differential(n) @ opn == \
                gs.op_matrix(n + 1) @ gs.differential(n), (name, n)
    # opposite deformations follow the (m1 swapped, f1, -c1) pattern
    gs = fixture_complexes["v_poset_commutative"]
    p = gs.presheaf
    _, reps = gs.cohomology(2, "normalized_reduced")
    for rep in reps:
        defn = deform(p, deformation_from_cochain(p, rep), gs=gs)
        opp = opposite_deformation(defn)
        for key, vec in defn.triple.c1.items():
            assert opp.triple.c1[key] == tuple(-x for x in vec)
        for u, mat in defn.triple.f1.items():
            assert opp.triple.f1[u] == mat
        for obj, mat in defn.triple.m1.items():
            a = p.algebras[obj]
            for i in range(a.dim):
                for j in range(a.dim):
                    assert opp.triple.m1[obj].column(i * a.dim + j) == \
                        mat.column(j * a.dim + i)
    report(7, "opposite machinery", t0, 10)


def _two_point_cover():
    poset = presets.v_poset()
    cat = poset.category
    qq = presets.two_points()
    q = presets.rationals()
    algebras = {"U0": qq, "U1": qq, "U01": q}
    restr = {}
    for name, m in cat.morphisms.items():
        if m.source == m.target:
            restr[name] = RatMatrix.identity(algebras[m.source].dim)
        else:
            restr[name] = RatMatrix.from_rows([[1, 1]])
    from gscohom.presheaf import strict_presheaf
    return strict_presheaf(cat, algebras, restr)


def test_criterion_8_descent_suite():
    t0 = time.time()
    rng = random.Random(31337)
    # canonical free data pass, including twisted fixtures
    for p in presets.standard_fixtures().values():
        machine = DescentMachine(p)
        assert check_descent(canonical_free_datum(machine))["classification"] \
            == "descent"
    twisted, x = presets.twisted_diamond()
    machine_t = DescentMachine(twisted)
    datum_t = canonical_free_datum(machine_t, trivialization=x)
    assert check_descent(datum_t)["classification"] == "descent"
    # kernels and cokernels of sampled morphisms over a geometric cover
    cover = _two_point_cover()
    machine = DescentMachine(cover)
    free = canonical_free_datum(machine)
    sampled = 0
    while sampled < 10:
        s0, t_val = F(rng.randint(-2, 2)), F(rng.randint(-2, 2))
        s1 = F(rng.randint(-2, 2))
        a0 = (s0, t_val - s0)
        a1 = (s1, t_val - s1)
        comps = {
            "U0": cover.algebras["U0"].left_mult_matrix(a0),
            "U1": cover.algebras["U1"].left_mult_matrix(a1),
            "U01": cover.algebras["U01"].left_mult_matrix(
                cover.restrictions["U01->U0"].apply(a0)),
        }
        assert not check_datum_morphism(free, free, comps)
        ker = pointwise_kernel(free, free, comps)
        cok = pointwise_cokernel(free, free, comps)
        assert check_descent(ker)["classification"] == "descent"
        assert check_descent(cok)["classification"] == "descent"
        sampled += 1
    # comparison functor: hom dimensions agree on >= 10 pairs
    dn = presets.dual_numbers()
    base = presets.v_poset_commutative()
    machine_b = DescentMachine(base)
    triv = FinModule(dn, 1, [RatMatrix.identity(1), RatMatrix.zeros(1, 1)])
    two = FinModule(dn, 2, [RatMatrix.identity(2), RatMatrix.zeros(2, 2)])
    mods = [FinModule.free(dn), triv, two, FinModule.zero(dn)]
    pairs = 0
    for a in mods:
        for b in mods:
            presheaf_dim, module_dim = q_functor_hom_check(machine_b, "U0",
                                                           a, b)
            assert presheaf_dim == module_dim
            pairs += 1
    assert pairs >= 10
    # pseudonaturality identities, strict and twisted
    samples_strict = {
        "U0": [FinModule.free(dn), triv],
        "U1": [FinModule.free(dn)],
        "U01": [FinModule.free(base.algebras["U01"])],
    }
    rep = verify_pseudonatural(machine_b, samples_strict)
    assert rep["checked"] > 0 and not rep["failures"]
    samples_t = {o: [FinModule.free(twisted.algebras[o])]
                 for o in twisted.category.objects}
    rep_t = verify_pseudonatural(machine_t, samples_t)
    assert rep_t["checked"] > 0 and not rep_t["failures"]
    # ... and on a deformation carrying a nontrivial twist
    dia = presets.diamond_mixed()
    gs_dia = GSComplex(dia)
    x1 = {name: (F(0),) * dia.algebras[m.source].dim
          for name, m in dia.category.morphisms.items()}
    x1["A->T"] = (F(1),)
    pair = EquivalencePair(dia, {}, {u: tuple(-c for c in v)
                                     for u, v in x1.items()})
    defn = deform(dia, deformation_from_cochain(
        dia, gs_dia.d(pair.as_cochain(gs_dia))), gs=gs_dia)
    assert defn.twisted.twists
    machine_d = DescentMachine(defn.twisted)
    samples_d = {o: [FinModule.free(defn.twisted.algebras[o])]
                 for o in dia.category.objects}
    rep_d = verify_pseudonatural(machine_d, samples_d)
    assert rep_d["checked"] > 0 and not rep_d["failures"]
    report(8, "descent suite", t0, 120)


def test_criterion_9_flat_epimorphism_diagnostics():
    t0 = time.time()
    dn = presets.dual_numbers()
    q = presets.rationals()
    qq = presets.two_points()
    rep = check_flat_epimorphism(AlgebraHom.identity(dn))
    assert rep["epimorphism"] and rep["flat"]
    rep = check_flat_epimorphism(
        AlgebraHom(dn, q, RatMatrix.from_rows([[1, 0]])))
    assert rep["epimorphism"] and not rep["flat"]
    rep = check_flat_epimorphism(
        AlgebraHom(q, qq, RatMatrix.from_rows([[1], [0]])))
    assert not rep["epimorphism"] and rep["tensor_square_dim"] == 4
    report(9, "flat-epimorphism diagnostics", t0, 5)
