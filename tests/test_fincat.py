import pytest

from gscohom.fincat import (FiniteCategory, InvalidCategory, Morphism,
                            MeetPoset, NoMeet, Simplex, poset_category,
                            slice_category)
from gscohom import presets
from oracles import simplex_face


def v_cat():
    return presets.v_poset().category


def test_nerve_counts():
    one = poset_category(["pt"], [])
    assert len(one.nerve(2)) == 1
    assert one.nerve(2)[0].is_degenerate()
    cat = v_cat()
    assert len(cat.nerve(0)) == 3
    assert len(cat.nerve(1)) == 5   # 3 identities + 2 strict inclusions
    assert len(cat.nerve(2)) == 7


def test_identity_chains_per_degree():
    # each object contributes exactly one totally degenerate simplex
    cat = v_cat()
    for p in range(1, 4):
        all_ids = [s for s in cat.nerve(p)
                   if all(cat.is_identity(a) for a in s.arrows)]
        assert len(all_ids) == len(cat.objects)


def test_face_cases():
    cat = v_cat()
    two = [s for s in cat.nerve(2)
           if s.arrows == ("U01->U0", "U0->U0")][0]
    # interior face composes; identity is absorbed
    assert simplex_face(two, 1).arrows == ("U01->U0",)
    # face 0 drops the first arrow
    assert simplex_face(two, 0).arrows == ("U0->U0",)
    assert simplex_face(two, 0).domain == "U0"
    # top face drops the last arrow
    assert simplex_face(two, 2).arrows == ("U01->U0",)
    with pytest.raises(IndexError):
        simplex_face(two, 3)


def test_degeneracy():
    cat = v_cat()
    ident = [s for s in cat.nerve(1) if s.arrows == ("U0->U0",)][0]
    incl = [s for s in cat.nerve(1) if s.arrows == ("U01->U0",)][0]
    assert ident.is_degenerate()
    assert not incl.is_degenerate()
    mixed = [s for s in cat.nerve(2)
             if s.arrows == ("U01->U0", "U0->U0")][0]
    assert mixed.is_degenerate()


@pytest.mark.parametrize("catmaker", [
    lambda: poset_category(["pt"], []),
    v_cat,
    lambda: presets.diamond_poset().category,
])
def test_simplicial_identities(catmaker):
    # face(i) face(j) = face(j-1) face(i) for i < j, degrees <= 4
    cat = catmaker()
    for p in (2, 3, 4):
        for s in cat.nerve(p):
            for j in range(1, p + 1):
                for i in range(j):
                    assert simplex_face(simplex_face(s, j), i) == \
                        simplex_face(simplex_face(s, i), j - 1)


def test_meet_poset():
    mp = presets.diamond_poset()
    assert mp.meet("A", "B") == "AB"
    assert mp.meet("A", "A") == "A"
    assert mp.meet("A", "T") == "A"
    assert mp.meet_all(("T", "A", "B")) == "AB"
    with pytest.raises(NoMeet):
        # two maximal elements with no common lower bound
        MeetPoset(["a", "b"], [])


def composite(sigma):
    """The composite arrow of a simplex (the identity for degree 0)."""
    acc = sigma.cat.identity(sigma.domain)
    for name in sigma.arrows:
        acc = sigma.cat.compose(name, acc)
    return acc


def test_slice_category():
    cat = v_cat()
    sl = slice_category(cat, "U0")
    # objects: the two arrows into U0
    assert set(sl.objects) == {"U0->U0", "U01->U0"}
    # the slice over the terminal-ish object composes correctly
    for g in sl.morphisms:
        for f in sl.morphisms:
            if sl.target(f) == sl.source(g):
                sl.compose(g, f)
    # composite of a simplex recovers an arrow into the anchor
    for s in sl.nerve(1):
        assert sl.target(composite(s)) == s.codomain


def _monoid(products):
    """One object whose endomorphisms 1, a, b compose by `products`, with
    1 declared the identity."""
    table = {("1", x): x for x in "1ab"}
    table.update({(x, "1"): x for x in "1ab"})
    table.update(products)
    return FiniteCategory(["pt"], [Morphism(x, "pt", "pt") for x in "1ab"],
                          table, {"pt": "1"})


def test_explicit_categories_are_validated():
    # Z/3 = {1, a, b = a^2} is a category on one object
    cyclic = {("a", "a"): "b", ("a", "b"): "1", ("b", "a"): "1",
              ("b", "b"): "a"}
    assert _monoid(cyclic).composable_pairs()[:2] == [("1", "1"), ("1", "a")]
    # (a a) b = b b = a but a (a b) = a a = b
    skewed = {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "b",
              ("b", "b"): "a"}
    with pytest.raises(InvalidCategory, match="not associative"):
        _monoid(skewed)
    with pytest.raises(InvalidCategory, match="b o a is missing"):
        _monoid({k: v for k, v in cyclic.items() if k != ("b", "a")})
    with pytest.raises(InvalidCategory, match="a o a is missing or has the "
                                              "wrong ends"):
        _monoid(cyclic | {("a", "a"): "nowhere"})
    with pytest.raises(InvalidCategory, match="unit law fails at a"):
        _monoid(cyclic | {("1", "a"): "b"})
    with pytest.raises(InvalidCategory, match="do not fit the objects"):
        FiniteCategory(["pt"], [Morphism("1", "pt", "elsewhere")],
                       {("1", "1"): "1"}, {"pt": "1"})


def test_a_repeated_object_is_refused():
    # a repeat would become a second 0-simplex of the nerve
    with pytest.raises(InvalidCategory, match="^the object pt is listed "
                                              "twice$"):
        FiniteCategory(["pt", "pt"], [Morphism("1", "pt", "pt")],
                       {("1", "1"): "1"}, {"pt": "1"})
    with pytest.raises(InvalidCategory, match="^the object A is listed "
                                              "twice$"):
        poset_category(["A", "B", "A"], [("B", "A")])
    assert poset_category(["A", "B"], [("B", "A")]).objects == ("A", "B")


def test_morphism_is_an_immutable_ordered_triple():
    m = Morphism("U01->U0", "U01", "U0")
    assert (m.name, m.source, m.target) == ("U01->U0", "U01", "U0")
    for attr in ("name", "source", "target", "other"):
        with pytest.raises(AttributeError):
            setattr(m, attr, "x")
    assert m == Morphism("U01->U0", "U01", "U0")
    assert hash(m) == hash(Morphism("U01->U0", "U01", "U0"))
    assert m != Morphism("U01->U0", "U01", "U1")
    assert len({m, Morphism("U01->U0", "U01", "U0")}) == 1
    # ordered by name, then source, then target
    arrows = [Morphism("b", "a", "a"), Morphism("a", "z", "a"),
              Morphism("a", "b", "c"), Morphism("a", "b", "a")]
    assert [(x.name, x.source, x.target) for x in sorted(arrows)] == [
        ("a", "b", "a"), ("a", "b", "c"), ("a", "z", "a"), ("b", "a", "a")]
    assert repr(m) == "U01->U0: U01 -> U0"


def _fixture_categories():
    return dict({name: p.category
                 for name, p in presets.standard_fixtures().items()},
                twisted_diamond=presets.twisted_diamond()[0].category)


@pytest.mark.parametrize("name", sorted(_fixture_categories()))
def test_face_table_matches_simplex_faces(name, monkeypatch):
    # row k of the degree-p table lists the positions in nerve(p) of the
    # faces of the k-th (p+1)-simplex, as the oracle simplex_face forms them
    cat = _fixture_categories()[name]
    for p in range(5):
        table = cat.faces(p)
        nerve, above = cat.nerve(p), cat.nerve(p + 1)
        assert len(table) == len(above)
        for k, sigma in enumerate(above):
            assert table[k] == tuple(nerve.index(simplex_face(sigma, i))
                                     for i in range(p + 2)), (p, k)
    # each (category, p) table is built once
    monkeypatch.setattr(FiniteCategory, "face_key", None)
    assert all(cat.faces(p) is cat.faces(p) for p in range(5))
    with pytest.raises(ValueError, match="no simplices of degree -1"):
        cat.faces(-1)


def test_a_simplex_of_arrows_that_do_not_compose_is_refused():
    cat = v_cat()
    with pytest.raises(InvalidCategory, match=r"arrows \('U01->U0', "
                                              r"'U01->U1'\) are not "
                                              "composable"):
        Simplex(cat, ("U01->U0", "U01->U1"), "U01")
