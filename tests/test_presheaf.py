from fractions import Fraction as F

from gscohom.algebra import FinAlgebra
from gscohom.linalg import RatMatrix
from gscohom.presheaf import TwistedPresheaf, check_twisted_morphism
from gscohom import presets


def identity_morphism(presheaf):
    """(g, tau) of the identity morphism: g^U = 1 and tau^u = 1."""
    g = {o: RatMatrix.identity(presheaf.algebras[o].dim)
         for o in presheaf.category.objects}
    tau = {name: presheaf.algebras[m.source].unit
           for name, m in presheaf.category.morphisms.items()}
    return g, tau


def test_strict_fixtures_pass(fixtures):
    for name, p in fixtures.items():
        assert p.is_valid(), name
        assert p.is_strict(), name


def test_functoriality_violation_detected():
    poset = presets.v_poset()
    cat = poset.category
    dn, q = presets.dual_numbers(), presets.rationals()
    algebras = {"U0": dn, "U1": dn, "U01": q}
    restr = {}
    for name, m in cat.morphisms.items():
        if m.source == m.target:
            restr[name] = RatMatrix.identity(algebras[m.source].dim)
        else:
            restr[name] = RatMatrix.from_rows([[1, 0]])
    # break multiplicativity: send x to 1 on one inclusion
    restr["U01->U0"] = RatMatrix.from_rows([[1, 1]])
    p = TwistedPresheaf(cat, algebras, restr)
    fails = p.check()
    assert ("restriction_multiplicative", "U01->U0") in fails


def test_ill_shaped_restrictions_are_reported_alone():
    p = presets.v_poset_commutative()
    restr = dict(p.restrictions)
    restr["U01->U0"] = RatMatrix.zeros(1, 3)
    restr["U0->U0"] = RatMatrix.identity(3)
    broken = TwistedPresheaf(p.category, p.algebras, restr)
    assert broken.check() == [("restriction_shape", "U0->U0"),
                              ("restriction_shape", "U01->U0")]


def test_twisted_coboundary_fixture_valid():
    twisted, x = presets.twisted_diamond()
    assert twisted.is_valid()
    assert not twisted.is_strict()
    assert twisted.has_central_twists()


def test_single_pair_twist_on_diamond_is_valid():
    # the diamond has no 3-chains, so any central invertible value at its
    # one nondegenerate composable pair satisfies every identity
    twisted, x = presets.twisted_diamond()
    cat = twisted.category
    twists = dict(twisted.twists)
    (u, v) = sorted(twists)[0]
    twists[(u, v)] = tuple(F(3) * c for c in twists[(u, v)])
    assert TwistedPresheaf(cat, twisted.algebras, twisted.restrictions,
                           twists).is_valid()


def test_broken_cocycle_named_on_a_chain():
    # a 3-chain admits a genuine cocycle constraint; a lone twist breaks it
    from gscohom.fincat import poset_category
    cat = poset_category(["c0", "c1", "c2", "c3"],
                         [("c0", "c1"), ("c1", "c2"), ("c2", "c3")])
    q = presets.rationals()
    algebras = {o: q for o in cat.objects}
    restr = {name: RatMatrix.identity(1) for name in cat.morphisms}
    twists = {("c2->c3", "c1->c2"): (F(2),)}
    broken = TwistedPresheaf(cat, algebras, restr, twists)
    fails = broken.check()
    named = [f for f in fails if f[0] == "twist_cocycle"]
    assert named
    assert len(named[0]) == 4   # identity name plus three witnessing morphisms


def test_unit_twist_conditions():
    # a twist on a pair with an identity leg violates the unit conditions
    p = presets.v_poset_commutative()
    cat = p.category
    ident = cat.identity("U01")
    twists = {("U01->U0", ident): (F(2),)}
    broken = TwistedPresheaf(cat, p.algebras, p.restrictions, twists)
    fails = broken.check()
    assert any(f[0] == "twist_unit_right" for f in fails)


def test_opposite_twisted_involution():
    twisted, _ = presets.twisted_diamond()
    op = twisted.opposite()
    assert op.is_valid()
    double = op.opposite()
    for pair in twisted.category.composable_pairs():
        assert double.twist(*pair) == twisted.twist(*pair)
    for obj in twisted.category.objects:
        assert double.algebras[obj].mult == twisted.algebras[obj].mult
    # strict commutative presheaf is its own opposite
    p = presets.v_poset_commutative()
    pop = p.opposite()
    for obj in p.category.objects:
        assert pop.algebras[obj].mult == p.algebras[obj].mult


def test_check_iff_opposite_check(fixtures):
    for name, p in fixtures.items():
        assert p.opposite().is_valid() == p.is_valid()
    # and on an invalid structure: the opposite fails exactly as well
    from gscohom.fincat import poset_category
    cat = poset_category(["c0", "c1", "c2", "c3"],
                         [("c0", "c1"), ("c1", "c2"), ("c2", "c3")])
    q = presets.rationals()
    broken = TwistedPresheaf(cat, {o: q for o in cat.objects},
                             {name: RatMatrix.identity(1)
                              for name in cat.morphisms},
                             {("c2->c3", "c1->c2"): (F(2),)})
    assert not broken.is_valid()
    assert not broken.opposite().is_valid()


def test_central_twists_detection():
    twisted, _ = presets.twisted_diamond()
    assert twisted.has_central_twists()
    underlying = twisted.underlying_presheaf()
    assert underlying.is_strict() and underlying.is_valid()
    # a non-central twist over the triangular presheaf
    p = presets.v_poset_triangular()
    cat = p.category
    ident0 = cat.identity("U0")
    # e22 + 1 is invertible but not central in UT2
    elt = (F(1), F(0), F(1))
    assert p.algebras["U0"].two_sided_inverse(elt) is not None
    assert not p.algebras["U0"].is_central(elt)
    twisted_nc = TwistedPresheaf(cat, p.algebras, p.restrictions,
                                 {(ident0, ident0): elt})
    assert not twisted_nc.has_central_twists()


def test_twist_verdicts_are_decided_once_per_presheaf(monkeypatch):
    # is_central runs once per twist and z on the first has_central_twists
    # call; later calls of both verdicts read the presheaf's memo
    central = []
    real = FinAlgebra.is_central

    def counted(algebra, x):
        central.append((algebra, tuple(x)))
        return real(algebra, x)

    monkeypatch.setattr(FinAlgebra, "is_central", counted)
    twisted, _ = presets.twisted_diamond()
    elements = twisted._twist_elements()
    assert "_memo_has_central_twists" not in vars(twisted)
    assert twisted.has_central_twists() and len(central) == len(elements)
    assert not twisted.is_strict()
    for _ in range(3):
        assert twisted.has_central_twists() and not twisted.is_strict()
    assert len(central) == len(elements)
    assert vars(twisted)["_memo_has_central_twists"] == {(): True}
    assert vars(twisted)["_memo_is_strict"] == {(): False}
    # an equal presheaf built apart starts empty and decides again
    again, _ = presets.twisted_diamond()
    assert again.has_central_twists()
    assert len(central) == 2 * len(elements)


def test_identity_morphism_is_isomorphism(fixtures):
    for name, p in fixtures.items():
        g, tau = identity_morphism(p)
        # a morphism is an isomorphism when every g^U is bijective
        assert not check_twisted_morphism(p, p, g, tau)
        assert all(g[obj].is_invertible() for obj in p.category.objects)


def test_morphism_axioms_catch_violations():
    p = presets.v_poset_commutative()
    g, tau = identity_morphism(p)
    g = dict(g)
    g["U0"] = RatMatrix.from_rows([[1, 1], [0, 1]])  # sends 1 to 1, x to 1+x
    fails = check_twisted_morphism(p, p, g, tau)
    assert ("g_multiplicative", "U0") in fails
