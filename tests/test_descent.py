import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from gscohom.linalg import RatMatrix, VerificationFailed
from gscohom.algebra import FinModule
from gscohom.presheaf import TwistedPresheaf, strict_presheaf
from gscohom.gs import GSComplex
from gscohom.deform import deform, deformation_from_cochain
from gscohom.descent import (DescentMachine, PreDescentDatum, check_descent,
                             canonical_free_datum, check_datum_morphism,
                             pointwise_kernel, pointwise_cokernel,
                             QPresheafObject, q_functor_hom_check,
                             verify_pseudonatural, check_semiseparated,
                             ExactnessFailure, CentralityRequired)
from gscohom.fincat import slice_category
from gscohom import algebra, descent, presets


def two_point_cover():
    """A geometric fixture: Q x Q on the wings restricting to Q by
    evaluation; every restriction is a flat epimorphism."""
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
            restr[name] = RatMatrix.from_rows([[1, 1]])   # second point value
    return strict_presheaf(cat, algebras, restr)


def global_section_endomorphism(machine, datum, a0, a1):
    """Endomorphisms of the structure datum are left multiplications by a
    matching family of sections: a0 on U0, a1 on U1 with equal restrictions."""
    p = machine.presheaf
    comps = {
        "U0": p.algebras["U0"].left_mult_matrix(a0),
        "U1": p.algebras["U1"].left_mult_matrix(a1),
        "U01": p.algebras["U01"].left_mult_matrix(
            p.restrictions["U01->U0"].apply(a0)),
    }
    assert p.restrictions["U01->U0"].apply(a0) == \
        p.restrictions["U01->U1"].apply(a1)
    return comps


def test_free_datum_is_descent(fixtures):
    for name, p in fixtures.items():
        machine = DescentMachine(p)
        rep = check_descent(canonical_free_datum(machine))
        assert rep["classification"] == "descent", name


def test_zeroed_map_is_pre_descent():
    p = presets.v_poset_commutative()
    machine = DescentMachine(p)
    free = canonical_free_datum(machine)
    maps = dict(free.maps)
    maps["U01->U0"] = RatMatrix.zeros(maps["U01->U0"].rows,
                                      maps["U01->U0"].cols)
    rep = check_descent(PreDescentDatum(machine, free.modules, maps))
    assert rep["classification"] == "pre-descent"


def test_ill_shaped_map_is_invalid_before_the_compatibilities():
    # the compatibilities multiply the maps, so an ill-shaped one stops the
    # check with a verdict instead of a ShapeMismatch
    p = presets.v_poset_commutative()
    machine = DescentMachine(p)
    free = canonical_free_datum(machine)
    maps = dict(free.maps, **{"U0->U0": RatMatrix.identity(1)})
    rep = check_descent(PreDescentDatum(machine, free.modules, maps))
    assert rep == {"classification": "invalid",
                   "failures": [("shape", "U0->U0")]}


def _unchecked_endomorphism(monkeypatch, on_u0):
    """The free datum of v_poset_commutative, and module maps that are the
    identity at U0 (on_u0) or away from it and zero elsewhere.  They are no
    morphism of the datum, so the morphism check is patched out to reach
    the checks on the result."""
    monkeypatch.setattr(descent, "_require_datum_morphism", lambda *a: None)
    p = presets.v_poset_commutative()
    free = canonical_free_datum(DescentMachine(p))
    return free, {o: RatMatrix.identity(free.modules[o].dim).scale(
        (o == "U0") == on_u0) for o in p.category.objects}


def test_pointwise_kernel_trips_when_phi_leaves_the_kernel(monkeypatch):
    # the kernel is A(U0) at U0 and 0 at U01, and phi_{U01->U0} is onto
    free, comps = _unchecked_endomorphism(monkeypatch, False)
    with pytest.raises(VerificationFailed,
                       match="^phi does not restrict to the kernel at "
                             "U01->U0$"):
        pointwise_kernel(free, free, comps)


def test_pointwise_cokernel_trips_when_phi_is_not_well_defined(monkeypatch):
    # the cokernel is 0 at U0 and A(U01) at U01, where phi_{U01->U0} lands
    free, comps = _unchecked_endomorphism(monkeypatch, True)
    with pytest.raises(VerificationFailed,
                       match="^cokernel comparison map is not well defined "
                             "at U01->U0$"):
        pointwise_cokernel(free, free, comps)


def test_twisted_free_datum_needs_trivialization():
    twisted, x = presets.twisted_diamond()
    machine = DescentMachine(twisted)
    corrected = canonical_free_datum(machine, trivialization=x)
    assert check_descent(corrected)["classification"] == "descent"
    naive = check_descent(canonical_free_datum(machine))
    assert naive["classification"] == "invalid"
    assert any(f[0] == "compatibility" for f in naive["failures"])


def test_deformed_free_datum_with_coboundary_twist():
    # a deformation whose c1 is a simplicial coboundary: the corrected free
    # datum over Q[eps] passes with the twist-corrected identity
    p = presets.diamond_mixed()
    gs = GSComplex(p)
    cat = p.category
    # x1 supported on A->T; c1 = d_simp(x1) as bottom-row cochain
    from gscohom.deform import EquivalencePair
    x1 = {name: (F(0),) * p.algebras[m.source].dim
          for name, m in cat.morphisms.items()}
    x1["A->T"] = (F(1),)
    pair = EquivalencePair(p, {}, {u: tuple(-c for c in v)
                                   for u, v in x1.items()})
    boundary = gs.d(pair.as_cochain(gs))
    triple = deformation_from_cochain(p, boundary)
    defn = deform(p, triple, gs=gs)
    assert defn.twisted.twists        # the twist is nontrivial
    machine = DescentMachine(defn.twisted)
    trivialization = {}
    for name, m in cat.morphisms.items():
        a = p.algebras[m.source]
        trivialization[name] = tuple(a.unit) + x1[name]
    corrected = canonical_free_datum(machine, trivialization=trivialization)
    assert check_descent(corrected)["classification"] == "descent"
    naive = check_descent(canonical_free_datum(machine))
    assert naive["classification"] == "invalid"


def test_kernels_and_cokernels_identity_and_zero():
    p = two_point_cover()
    machine = DescentMachine(p)
    free = canonical_free_datum(machine)
    ident = {o: RatMatrix.identity(free.modules[o].dim)
             for o in p.category.objects}
    zero = {o: RatMatrix.zeros(free.modules[o].dim, free.modules[o].dim)
            for o in p.category.objects}
    k_id = pointwise_kernel(free, free, ident)
    assert all(m.dim == 0 for m in k_id.modules.values())
    k_zero = pointwise_kernel(free, free, zero)
    assert all(k_zero.modules[o].dim == free.modules[o].dim
               for o in p.category.objects)
    assert check_descent(k_zero)["classification"] == "descent"
    c_id = pointwise_cokernel(free, free, ident)
    assert all(m.dim == 0 for m in c_id.modules.values())
    c_zero = pointwise_cokernel(free, free, zero)
    assert check_descent(c_zero)["classification"] == "descent"


def test_kernels_cokernels_of_sampled_morphisms(rng):
    p = two_point_cover()
    machine = DescentMachine(p)
    free = canonical_free_datum(machine)
    checked = 0
    for _ in range(12):
        # sections of Q x Q: values at the two points
        s0, t0 = F(rng.randint(-2, 2)), F(rng.randint(-2, 2))
        s1 = F(rng.randint(-2, 2))
        a0 = (s0, t0 - s0)          # basis (1, e2): value (s0, t0)
        a1 = (s1, t0 - s1)          # matching second-point value t0
        comps = global_section_endomorphism(machine, free, a0, a1)
        assert not check_datum_morphism(free, free, comps)
        ker = pointwise_kernel(free, free, comps)
        cok = pointwise_cokernel(free, free, comps)
        assert check_descent(ker)["classification"] == "descent"
        assert check_descent(cok)["classification"] == "descent"
        checked += 1
    assert checked >= 10


def test_exactness_failure_on_non_flat_restriction():
    # over the dual numbers the restriction to Q is not flat: the kernel of
    # the projection onto the trivial module does not commute with tensoring
    p = presets.v_poset_commutative()
    machine = DescentMachine(p)
    free = canonical_free_datum(machine)
    dn = p.algebras["U0"]
    triv = FinModule(dn, 1, [RatMatrix.identity(1), RatMatrix.zeros(1, 1)])
    q_free = FinModule.free(p.algebras["U01"])
    modules = {"U0": triv, "U1": triv, "U01": q_free}
    maps = {}
    for name, m in p.category.morphisms.items():
        t = machine.tensor(modules[m.target], name)
        tgt = modules[m.source]
        # the canonical scalar map: everything here is 1-dimensional
        maps[name] = RatMatrix(tgt.dim, t.dim,
                               {(0, 0): F(1)} if tgt.dim and t.dim else {})
    target = PreDescentDatum(machine, modules, maps)
    assert check_descent(target)["classification"] == "descent"
    comps = {
        "U0": RatMatrix.from_rows([[1, 0]]),    # DN -> DN/(x)
        "U1": RatMatrix.from_rows([[1, 0]]),
        "U01": RatMatrix.identity(1),
    }
    assert not check_datum_morphism(free, target, comps)
    with pytest.raises(ExactnessFailure):
        pointwise_kernel(free, target, comps)


def test_q_functor_hom_dimensions(rng):
    p = presets.v_poset_commutative()
    machine = DescentMachine(p)
    dn = p.algebras["U0"]
    free = FinModule.free(dn)
    triv = FinModule(dn, 1, [RatMatrix.identity(1), RatMatrix.zeros(1, 1)])
    two = FinModule(dn, 2, [RatMatrix.identity(2), RatMatrix.zeros(2, 2)])
    mods = [free, triv, two]
    pairs = 0
    for a in mods:
        for b in mods:
            presheaf_dim, module_dim = q_functor_hom_check(machine, "U0", a, b)
            assert presheaf_dim == module_dim, (a.dim, b.dim)
            pairs += 1
    assert pairs >= 9


def test_q_functor_free_and_zero():
    p = presets.v_poset_commutative()
    machine = DescentMachine(p)
    dn = p.algebras["U0"]
    qt = QPresheafObject(machine, "U0", FinModule.free(dn))
    # M = A(U): each slice value has the dimension of the local algebra
    for w, t in qt.tensors.items():
        local = p.algebras[p.category.source(w)]
        assert t.dim == local.dim
    zero = QPresheafObject(machine, "U0", FinModule.zero(dn))
    assert all(t.dim == 0 for t in zero.tensors.values())


def test_q_functor_requires_central_twists():
    p = presets.v_poset_triangular()
    cat = p.category
    ident0 = cat.identity("U0")
    elt = (F(1), F(0), F(1))
    twisted = TwistedPresheaf(cat, p.algebras, p.restrictions,
                              {(ident0, ident0): elt})
    machine = DescentMachine(twisted)
    with pytest.raises(CentralityRequired):
        QPresheafObject(machine, "U0", FinModule.free(p.algebras["U0"]))


def test_pseudonaturality_strict_and_twisted():
    # strict: both sides are plain canonical isomorphism composites
    p = presets.v_poset_commutative()
    machine = DescentMachine(p)
    dn = p.algebras["U0"]
    samples = {
        "U0": [FinModule.free(dn),
               FinModule(dn, 1, [RatMatrix.identity(1),
                                 RatMatrix.zeros(1, 1)])],
        "U1": [FinModule.free(dn)],
        "U01": [FinModule.free(p.algebras["U01"])],
    }
    rep = verify_pseudonatural(machine, samples)
    assert rep["checked"] > 0 and not rep["failures"]
    # twisted: the w*(c^{u,v}) right multiplication enters and still matches
    twisted, _ = presets.twisted_diamond()
    machine_t = DescentMachine(twisted)
    samples_t = {o: [FinModule.free(twisted.algebras[o])]
                 for o in twisted.category.objects}
    rep_t = verify_pseudonatural(machine_t, samples_t)
    assert rep_t["checked"] > 0 and not rep_t["failures"]


def test_pseudonaturality_on_deformation_with_twist():
    # a deformation with c1 != 0 needs nondegenerate 2-simplices, so it
    # lives on the diamond (a height-1 poset forces c1 = 0 by reduction);
    # the twists are central over Q[eps] and the coherence holds exactly
    p = presets.diamond_mixed()
    gs = GSComplex(p)
    from gscohom.deform import EquivalencePair
    x1 = {name: (F(0),) * p.algebras[m.source].dim
          for name, m in p.category.morphisms.items()}
    x1["A->T"] = (F(1),)
    pair = EquivalencePair(p, {}, {u: tuple(-c for c in v)
                                   for u, v in x1.items()})
    triple = deformation_from_cochain(p, gs.d(pair.as_cochain(gs)))
    defn = deform(p, triple, gs=gs)
    assert defn.twisted.twists
    machine = DescentMachine(defn.twisted)
    samples = {o: [FinModule.free(defn.twisted.algebras[o])]
               for o in p.category.objects}
    rep2 = verify_pseudonatural(machine, samples)
    assert rep2["checked"] > 0 and not rep2["failures"]


def _twisted_diamond_samples():
    twisted, _ = presets.twisted_diamond()
    return twisted, {o: [FinModule.free(twisted.algebras[o])]
                     for o in twisted.category.objects}


def test_pseudonaturality_builds_mod_c_once_per_pair(monkeypatch):
    # Mod(c)^{u,v} does not depend on w: one build per (u, v, module) that
    # has some w, while every (u, v, w, module) is still checked
    twisted, samples = _twisted_diamond_samples()
    cat = twisted.category
    calls = []
    build = DescentMachine._build_can

    def counted(machine, module, u, v, twist):
        if twist:
            calls.append((u, v))
        return build(machine, module, u, v, twist)
    monkeypatch.setattr(DescentMachine, "_build_can", counted)
    rep = verify_pseudonatural(DescentMachine(twisted), samples)
    pairs = [(u, v) for u in cat.morphisms for v in cat.morphisms
             if cat.target(v) == cat.source(u)]
    ws = {(u, v): sum(cat.target(w) == cat.source(v) for w in cat.morphisms)
          for u, v in pairs}
    per_pair = {(u, v): len(samples[cat.target(u)]) for u, v in pairs}
    assert sorted(calls) == sorted(
        p for p in pairs if ws[p] for _ in range(per_pair[p]))
    assert rep["checked"] == sum(ws[p] * per_pair[p] for p in pairs)
    assert len(calls) < rep["checked"] and not rep["failures"]


def test_pseudonaturality_catches_a_tampered_twist(monkeypatch):
    # doubling Mod(c)^{u,v} for one pair breaks the coherence at every w
    # after it, and only there
    twisted, samples = _twisted_diamond_samples()
    cat = twisted.category
    pair = ("A->T", "AB->A")
    assert cat.target(pair[1]) == cat.source(pair[0])
    build = DescentMachine.mod_c_matrix

    def tampered(machine, module, u, v):
        mat, src, tgt = build(machine, module, u, v)
        return (mat.scale(2) if (u, v) == pair else mat), src, tgt
    monkeypatch.setattr(DescentMachine, "mod_c_matrix", tampered)
    rep = verify_pseudonatural(DescentMachine(twisted), samples)
    expected = [pair + (w,) for w in sorted(cat.morphisms)
                if cat.target(w) == cat.source(pair[1])]
    assert expected and rep["failures"] == expected


def test_zero_module_pseudonaturality():
    p = presets.v_poset_commutative()
    machine = DescentMachine(p)
    samples = {"U0": [FinModule.zero(p.algebras["U0"])]}
    rep = verify_pseudonatural(machine, samples)
    assert not rep["failures"]


def test_semiseparated_diagnostics():
    p = two_point_cover()
    poset = presets.v_poset()
    rep = check_semiseparated(p, poset)
    for name, flags in rep["flat_epi"].items():
        assert flags["epimorphism"] and flags["flat"], name
    for key, flags in rep["meet_iso"].items():
        assert flags["dim_match"] and flags["product_map_iso"], key
    # the dual-numbers fixture is not flat along its inclusions
    p2 = presets.v_poset_commutative()
    rep2 = check_semiseparated(p2, poset)
    assert not rep2["flat_epi"]["U01->U0"]["flat"]


# -- the per-machine memo of tensor quotients

def _count_tensor_over(monkeypatch):
    calls = []
    real = descent.tensor_over

    def counted(module, f):
        calls.append((module, f))
        return real(module, f)

    monkeypatch.setattr(descent, "tensor_over", counted)
    return calls


def _same_quotient(a, b):
    return (a.project, a.section, a.relations, a.module.dim,
            a.module.action) == (b.project, b.section, b.relations,
                                 b.module.dim, b.module.action)


def test_tensor_memo_shares_equal_modules(monkeypatch):
    calls = _count_tensor_over(monkeypatch)
    p = presets.v_poset_commutative()
    machine = DescentMachine(p)
    dn = p.algebras["U0"]
    first = machine.tensor(FinModule.free(dn), "U01->U0")
    again = machine.tensor(FinModule.free(dn), "U01->U0")
    assert len(calls) == 1 and again is first
    fresh = algebra.tensor_over(FinModule.free(dn), machine.hom("U01->U0"))
    assert _same_quotient(first, fresh)
    # the same dimension with another action gets its own quotient
    trivial = FinModule(dn, 2, [RatMatrix.identity(2), RatMatrix.zeros(2, 2)])
    other = machine.tensor(trivial, "U01->U0")
    assert len(calls) == 2 and other is not first
    assert _same_quotient(other, algebra.tensor_over(
        trivial, machine.hom("U01->U0")))
    # another arrow is another key
    machine.tensor(FinModule.free(dn), p.category.identity("U0"))
    assert len(calls) == 3


def test_tensor_memo_lives_on_its_machine(monkeypatch):
    calls = _count_tensor_over(monkeypatch)
    p = presets.v_poset_commutative()
    module = FinModule.free(p.algebras["U0"])
    first = DescentMachine(p).tensor(module, "U01->U0")
    second = DescentMachine(p).tensor(module, "U01->U0")
    assert len(calls) == 2 and second is not first
    assert _same_quotient(first, second)


def test_tensor_memo_keeps_check_descent_verdicts(monkeypatch, fixtures):
    # each distinct (arrow, module) pair of a machine is tensored once,
    # and the verdicts are the ones of the unmemoised construction
    calls = _count_tensor_over(monkeypatch)
    for name, p in fixtures.items():
        del calls[:]
        machine = DescentMachine(p)
        datum = canonical_free_datum(machine)
        assert check_descent(datum)["classification"] == "descent", name
        keys = {(arrow, module.dim, module.action)
                for module, f in calls
                for arrow in p.category.morphisms
                if machine.hom(arrow) is f}
        assert len(keys) == len(calls), name


# -- the per-machine memo of induced maps between tensor quotients

def _count_tensor_maps(monkeypatch):
    """Each build of a tensor_map, seen as its x (x) 1 factor."""
    built = []
    real = RatMatrix.kron

    def counted(mat, other):
        if sys._getframe(1).f_code.co_name == "tensor_map":
            built.append(mat)
        return real(mat, other)

    monkeypatch.setattr(RatMatrix, "kron", counted)
    return built


def test_tensor_map_is_built_once_per_key(monkeypatch):
    p = presets.v_poset_commutative()
    machine = DescentMachine(p)
    dn = p.algebras["U0"]
    name = "U01->U0"
    free = machine.tensor(FinModule.free(dn), name)
    trivial = machine.tensor(FinModule(
        dn, 2, [RatMatrix.identity(2), RatMatrix.zeros(2, 2)]), name)
    x = RatMatrix.from_rows([[1, 0], [0, 0]])
    direct = trivial.project @ x.kron(RatMatrix.identity(1)) @ free.section
    built = _count_tensor_maps(monkeypatch)
    assert "_memo_tensor_map" not in vars(machine)
    first = machine.tensor_map(x, free, trivial, name)
    assert first == direct and len(built) == 1
    # an equal x built apart, with Fraction entries, is the same key
    again = machine.tensor_map(RatMatrix.from_rows([[F(1), 0], [0, 0]]),
                               free, trivial, name)
    assert again is first and len(built) == 1
    # other quotients or another x are other keys
    other = machine.tensor_map(x, free, free, name)
    assert other is not first and len(built) == 2
    machine.tensor_map(RatMatrix.identity(2), free, trivial, name)
    assert len(built) == 3 == len(vars(machine)["_memo_tensor_map"])
    # a new machine starts empty
    assert DescentMachine(p).tensor_map(x, free, trivial, name) == first
    assert len(built) == 4


def test_tensor_map_memo_keeps_descent_verdicts(monkeypatch, fixtures):
    # check_descent, a morphism check and the pseudonaturality check ask
    # for induced maps many times; each distinct key is built once, equal
    # to a direct build, and the verdicts do not move
    built = _count_tensor_maps(monkeypatch)
    calls = []
    memoised = DescentMachine.tensor_map

    def recorded(machine, *key):
        calls.append(key)
        return memoised(machine, *key)

    monkeypatch.setattr(DescentMachine, "tensor_map", recorded)
    twisted, samples = _twisted_diamond_samples()
    for name, p in dict(fixtures, twisted_diamond=twisted).items():
        del built[:], calls[:]
        machine = DescentMachine(p)
        if p.is_strict():
            datum = canonical_free_datum(machine)
            ident = {o: RatMatrix.identity(datum.modules[o].dim)
                     for o in p.category.objects}
            for _ in range(2):
                assert check_descent(datum)["classification"] == \
                    "descent", name
                assert check_datum_morphism(datum, datum, ident) == [], name
        report = verify_pseudonatural(machine, {
            o: [FinModule.free(a)] for o, a in p.algebras.items()})
        assert report["checked"] > 0 and not report["failures"], name
        assert len(built) == len(set(calls)) < len(calls), name
        for (x, src_q, tgt_q, arrow), mat in \
                vars(machine)["_memo_tensor_map"].items():
            dim_w = machine.hom(arrow).target.dim
            assert mat == tgt_q.project @ x.kron(
                RatMatrix.identity(dim_w)) @ src_q.section, name


# -- the per-machine memo of can^{u,v}

def _cans(machine):
    """The machine's can^{u,v} memo table (made on the first call)."""
    return vars(machine).get("_memo_can_matrix", {})


def _count_can_builds(monkeypatch):
    keys = []
    build = DescentMachine._build_can

    def counted(machine, module, u, v, twist):
        keys.append((u, v, twist, module.dim, module.action))
        return build(machine, module, u, v, twist)

    monkeypatch.setattr(DescentMachine, "_build_can", counted)
    return keys


def test_can_memo_shares_equal_keys(monkeypatch):
    keys = _count_can_builds(monkeypatch)
    twisted, _ = presets.twisted_diamond()
    cat = twisted.category
    u, v = "A->T", "AB->A"
    assert cat.target(v) == cat.source(u)
    machine = DescentMachine(twisted)
    # two equal modules built apart are one key
    first = machine.can_matrix(FinModule.free(twisted.algebras["T"]), u, v)
    again = machine.can_matrix(FinModule.free(twisted.algebras["T"]), u, v)
    assert len(keys) == 1 and again is first
    fresh = DescentMachine(twisted).can_matrix(
        FinModule.free(twisted.algebras["T"]), u, v)
    assert fresh is not first and fresh[0] == first[0]
    # the twisted map is another key, and differs on this prestack
    twisted_can = machine.mod_c_matrix(FinModule.free(twisted.algebras["T"]),
                                       u, v)
    assert keys[-1] == (u, v, True) + keys[0][3:]
    assert twisted_can is not first and twisted_can[0] != first[0]


def test_can_memo_starts_empty_and_keeps_pseudonaturality(monkeypatch):
    keys = _count_can_builds(monkeypatch)
    twisted, samples = _twisted_diamond_samples()
    machine = DescentMachine(twisted)
    assert _cans(machine) == {}
    rep = verify_pseudonatural(machine, samples)
    assert rep["checked"] > 0 and not rep["failures"]
    # each distinct input is built once: fewer builds than the three
    # untwisted can maps that every checked (u, v, w, module) reads
    assert len(keys) == len(set(keys)) == len(_cans(machine))
    assert len(keys) < 3 * rep["checked"]
    assert _cans(DescentMachine(twisted)) == {}
    # a second pass on the same machine builds nothing and checks as much
    again = verify_pseudonatural(machine, samples)
    assert len(keys) == len(_cans(machine)) and again == rep


def test_can_inverses_are_computed_once_per_key(monkeypatch):
    # every checked (u, v, w, module) reads three inverse can maps; each
    # untwisted can key of a machine is inverted once, a second pass on
    # the same machine inverts nothing, and the report is the same
    twisted, samples = _twisted_diamond_samples()
    inverted = []
    real = RatMatrix.inverse

    def counted(mat):
        inverted.append(mat)
        return real(mat)

    monkeypatch.setattr(RatMatrix, "inverse", counted)
    machine = DescentMachine(twisted)
    rep = verify_pseudonatural(machine, samples)
    assert rep["checked"] > 0 and not rep["failures"]
    cans = [mat for mat, _, _ in _cans(machine).values()]
    of_cans = [m for m in inverted if any(m is c for c in cans)]
    keys = vars(machine)["_memo_can_inverse"]
    assert set(keys) == {k for k in _cans(machine) if not k[2]}
    assert len(of_cans) == len(keys) < 3 * rep["checked"]
    del inverted[:]
    assert verify_pseudonatural(machine, samples) == rep and not inverted


def test_comparison_presheaf_trips_on_a_non_functorial_transition(
        monkeypatch):
    # over the top of the diamond the slice has composable arrows; doubling
    # one transition that is not an identity breaks F(f) F(g) = F(g f)
    p = presets.diamond_mixed()
    top = next(o for o in p.category.objects
               if len(slice_category(p.category, o).objects) == 4)
    q = QPresheafObject(DescentMachine(p), top,
                        FinModule.free(p.algebras[top]))
    sl = q.slice
    arrow = next(f for f in sorted(sl.morphisms) for g in sl.morphisms
                 if not sl.is_identity(f) and not sl.is_identity(g)
                 and sl.target(f) == sl.source(g))
    monkeypatch.setitem(q.transitions, arrow, q.transitions[arrow].scale(2))
    with pytest.raises(VerificationFailed,
                       match=r"^the transitions are not functorial on "):
        q._check_functorial()


_DESCENT_CHECKS_SCRIPT = '''
from fractions import Fraction as F

from gscohom import presets
from gscohom.algebra import FinModule, InvalidStructure
from gscohom.linalg import RatMatrix, VerificationFailed
from gscohom.presheaf import TwistedPresheaf
from gscohom.descent import (DescentMachine, canonical_free_datum,
                             check_descent, pointwise_kernel,
                             pointwise_cokernel, QPresheafObject,
                             verify_pseudonatural)


def outcome(run):
    try:
        run()
    except (InvalidStructure, VerificationFailed) as exc:
        return type(exc).__name__
    return "passed"


p = presets.v_poset_commutative()
cat = p.category
dn = p.algebras["U0"]
x = (F(0), F(1))                     # nilpotent, so not invertible
ident0 = cat.identity("U0")
# input preconditions
print(outcome(lambda: TwistedPresheaf(cat, {}, p.restrictions)))
print(outcome(lambda: TwistedPresheaf(cat, p.algebras, {})))
print(outcome(lambda: TwistedPresheaf(
    cat, p.algebras, p.restrictions, {(ident0, ident0): x}).opposite()))
print(outcome(lambda: TwistedPresheaf(
    cat, p.algebras, p.restrictions, z={"U0": x}).opposite()))
t = presets.v_poset_triangular()
print(outcome(lambda: TwistedPresheaf(
    t.category, t.algebras, t.restrictions,
    {(ident0, ident0): (F(1), F(0), F(1))}).underlying_presheaf()))
machine = DescentMachine(p)
free = canonical_free_datum(machine)
scalar = {o: RatMatrix.identity(free.modules[o].dim).scale(o == "U0")
          for o in cat.objects}
print(outcome(lambda: pointwise_kernel(free, free, scalar)))
print(outcome(lambda: pointwise_cokernel(free, free, scalar)))
print(outcome(lambda: QPresheafObject(
    machine, "U0", FinModule.free(dn)).hom_dim_to(QPresheafObject(
        machine, "U1", FinModule.free(p.algebras["U1"])))))
# result checks, each made to fail by a broken piece of the machine
broken = DescentMachine(p)
real_mod_c = broken.mod_c_matrix


def mod_c_with_a_zero_quotient(module, u, v):
    mat, t2, t = real_mod_c(module, u, v)
    return mat, broken.tensor(FinModule.zero(t2.module.algebra), v), t


broken.mod_c_matrix = mod_c_with_a_zero_quotient
print(outcome(lambda: check_descent(canonical_free_datum(broken))))
zeroed = DescentMachine(p)
zeroed.tensor_map = lambda x, src, tgt, name: RatMatrix.zeros(tgt.dim, src.dim)
zero = {o: RatMatrix.zeros(free.modules[o].dim, free.modules[o].dim)
        for o in cat.objects}
zeroed_free = canonical_free_datum(zeroed)
print(outcome(lambda: pointwise_cokernel(zeroed_free, zeroed_free, zero)))
singular = DescentMachine(p)
singular.can_matrix = lambda m, u, v, twist=False: (
    RatMatrix.zeros(1, 1), None, None)
print(outcome(lambda: verify_pseudonatural(
    singular, {"U0": [FinModule.free(dn)]})))
# a singular can^{v,w}: over A(U01) it is never a can^{uv,w} of these samples
ident01 = cat.identity("U01")
real_build = DescentMachine._build_can


def build_singular(machine, module, u, v, twist):
    mat, t2, t = real_build(machine, module, u, v, twist)
    if (u, v) == (ident01, ident01):
        mat = RatMatrix.zeros(mat.rows, mat.cols)
    return mat, t2, t


DescentMachine._build_can = build_singular
print(outcome(lambda: verify_pseudonatural(
    DescentMachine(p), {"U0": [FinModule.free(dn)]})))
'''


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_descent_and_presheaf_checks_raise_under_python_O(flags):
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    done = subprocess.run([sys.executable, *flags, "-c",
                           _DESCENT_CHECKS_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["InvalidStructure"] * 8 + \
        ["VerificationFailed"] * 4
