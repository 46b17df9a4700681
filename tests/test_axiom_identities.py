"""The matrix-identity axiom checks against element-by-element oracles.

`FinAlgebra.axiom_failures`, `is_central`, `TwistedPresheaf.check`,
`check_twisted_morphism` and `algebra_deformation_equivalence` decide each
structure identity as one equality of matrices.  The oracles below decide
the same identities the direct way, basis element by basis element, with a
product computed here from the structure constants, and must return the
same failure lists (names, witnesses and order) and verdicts.  Inputs are
perturbed presets and their dual extensions, deformation candidates, and
presheaves and morphisms with tampered restrictions, twists, z, g and tau.
"""

from hypothesis import given, settings, strategies as st

from gscohom import presets
from gscohom.algebra import FinAlgebra, FinBimodule, eps_block
from gscohom.deform import CandidateTriple, build_twisted_candidate
from gscohom.hochschild import HCochain, d_hoch, is_normalized
from gscohom.linalg import RatMatrix, unit_vector, zero_vector
from gscohom.presheaf import TwistedPresheaf, check_twisted_morphism
from oracles import algebra_deformation_equivalence

# derandomised and small, like the oracle tests of test_linalg
ORACLE = settings(derandomize=True, max_examples=40, deadline=None,
                  database=None)


# -- the element-by-element oracles

def _mul(a, x, y):
    """x * y in the algebra a, summed over the structure constants."""
    out = list(zero_vector(a.dim))
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for k, m in enumerate(a.mult[i][j]):
                    out[k] += xi * yj * m
    return tuple(out)


def _basis(a):
    return [unit_vector(a.dim, i) for i in range(a.dim)]


def _inverse(a, x):
    """The two-sided inverse of x, or None."""
    left = RatMatrix.from_cols([_mul(a, x, e) for e in _basis(a)],
                               ambient=a.dim)
    y = left.solve(a.unit)
    if y is None or _mul(a, y, x) != a.unit:
        return None
    return y


def oracle_axiom_failures(a):
    fails = []
    for ei in _basis(a):
        i = ei.index(1)
        if _mul(a, a.unit, ei) != ei:
            fails.append(("unit_left", i))
        if _mul(a, ei, a.unit) != ei:
            fails.append(("unit_right", i))
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                lhs = _mul(a, a.mult[i][j], unit_vector(a.dim, k))
                rhs = _mul(a, unit_vector(a.dim, i), a.mult[j][k])
                if lhs != rhs:
                    fails.append(("associativity", i, j, k))
    return fails


def oracle_is_central(a, x):
    return all(_mul(a, x, e) == _mul(a, e, x) for e in _basis(a))


def _is_multiplicative(f, a, b):
    return all(f.apply(a.mult[i][j]) == _mul(b, f.column(i), f.column(j))
               for i in range(a.dim) for j in range(a.dim))


def oracle_check(p):
    cat = p.category
    fails = []
    for obj in cat.objects:
        a = p.algebras[obj]
        for f in oracle_axiom_failures(a):
            fails.append(("algebra:" + f[0], obj) + f[1:])
        zu = p.z_element(obj)
        if _inverse(a, zu) is None:
            fails.append(("z_invertible", obj))
        f1 = p.restrictions[cat.identity(obj)]
        if any(_mul(a, zu, e) != _mul(a, f1.apply(e), zu) for e in _basis(a)):
            fails.append(("z_conjugation", obj))
    for name in sorted(cat.morphisms):
        m = cat.morphisms[name]
        src, tgt = p.algebras[m.target], p.algebras[m.source]
        f = p.restrictions[name]
        if f.apply(src.unit) != tgt.unit:
            fails.append(("restriction_unital", name))
        if not _is_multiplicative(f, src, tgt):
            fails.append(("restriction_multiplicative", name))
    pairs = cat.composable_pairs()
    for (u, v) in pairs:
        aw = p.algebras[cat.source(v)]
        c = p.twist(u, v)
        if _inverse(aw, c) is None:
            fails.append(("twist_invertible", u, v))
            continue
        fu, fv = p.restrictions[u], p.restrictions[v]
        fuv = p.restrictions[cat.compose(u, v)]
        if any(_mul(aw, c, fv.apply(fu.apply(e))) != _mul(aw, fuv.apply(e), c)
               for e in _basis(p.algebras[cat.target(u)])):
            fails.append(("twist_conjugation", u, v))
    for (u, v) in pairs:
        for w in sorted(cat.morphisms):
            if cat.target(w) != cat.source(v):
                continue
            at = p.algebras[cat.source(w)]
            lhs = _mul(at, p.twist(u, cat.compose(v, w)), p.twist(v, w))
            rhs = _mul(at, p.twist(cat.compose(u, v), w),
                       p.restrictions[w].apply(p.twist(u, v)))
            if lhs != rhs:
                fails.append(("twist_cocycle", u, v, w))
    for name in sorted(cat.morphisms):
        m = cat.morphisms[name]
        av = p.algebras[m.source]
        id_v, id_u = cat.identity(m.source), cat.identity(m.target)
        if _mul(av, p.twist(name, id_v), p.z_element(m.source)) != av.unit:
            fails.append(("twist_unit_right", name))
        if _mul(av, p.twist(id_u, name),
                p.restrictions[name].apply(p.z_element(m.target))) != av.unit:
            fails.append(("twist_unit_left", name))
    return fails


def oracle_check_morphism(src, tgt, g, tau):
    cat = src.category
    fails = []
    for obj in cat.objects:
        a, ap = src.algebras[obj], tgt.algebras[obj]
        if not _is_multiplicative(g[obj], a, ap):
            fails.append(("g_multiplicative", obj))
        if g[obj].apply(a.unit) != ap.unit:
            fails.append(("g_unital", obj))
    for name in sorted(cat.morphisms):
        m = cat.morphisms[name]
        ap_v = tgt.algebras[m.source]
        t = tau[name]
        if _inverse(ap_v, t) is None:
            fails.append(("tau_invertible", name))
            continue
        fu, fu_p = src.restrictions[name], tgt.restrictions[name]
        gv, gu = g[m.source], g[m.target]
        if any(_mul(ap_v, gv.apply(fu.apply(e)), t) !=
               _mul(ap_v, t, fu_p.apply(gu.apply(e)))
               for e in _basis(src.algebras[m.target])):
            fails.append(("restriction_intertwiner", name))
    for (u, v) in cat.composable_pairs():
        ap_w = tgt.algebras[cat.source(v)]
        lhs = _mul(ap_w, tau[cat.compose(u, v)], tgt.twist(u, v))
        rhs = _mul(ap_w, _mul(ap_w, g[cat.source(v)].apply(src.twist(u, v)),
                              tau[v]),
                   tgt.restrictions[v].apply(tau[u]))
        if lhs != rhs:
            fails.append(("twist_coherence", u, v))
    for obj in cat.objects:
        lhs = _mul(tgt.algebras[obj], tau[cat.identity(obj)],
                   tgt.z_element(obj))
        if lhs != g[obj].apply(src.z_element(obj)):
            fails.append(("z_condition", obj))
    return fails


def oracle_deformation_equivalence(algebra, m1, m1_prime, g1):
    d = algebra.dim
    bar = algebra.dual_extension(m1)
    bar_p = algebra.dual_extension(m1_prime)
    g_block = eps_block(RatMatrix.identity(d), g1)
    axiom_verdict = _is_multiplicative(g_block, bar, bar_p) and \
        g_block.apply(bar.unit) == bar_p.unit
    g1_cochain = HCochain(algebra, FinBimodule.regular(algebra), 1, g1)
    cochain_verdict = is_normalized(g1_cochain) and \
        d_hoch(g1_cochain).matrix == m1 - m1_prime
    return axiom_verdict, cochain_verdict


# -- inputs

ALGEBRAS = [presets.rationals(), presets.dual_numbers(), presets.two_points(),
            presets.upper_triangular()]
PRESHEAVES = [presets.one_object_dual_numbers(),
              presets.v_poset_commutative(), presets.v_poset_triangular(),
              presets.diamond_mixed(), presets.twisted_diamond()[0]]
_small = st.integers(-2, 2)
_nonzero = st.sampled_from([-1, 1, 2])


def _bumped(draw, vec):
    """vec with one coordinate moved by a small nonzero amount."""
    out = list(vec)
    out[draw(st.integers(0, len(out) - 1))] += draw(_nonzero)
    return tuple(out)


def _sparse(draw, rows, cols, max_size=3):
    cells = draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                    st.integers(0, cols - 1), _small),
                          max_size=max_size))
    return RatMatrix(rows, cols, {(i, j): c for i, j, c in cells})


@st.composite
def perturbed_algebras(draw):
    """A preset, perhaps dual-extended by a random m1, with a few structure
    constants and perhaps the unit moved: mostly not associative."""
    a = draw(st.sampled_from(ALGEBRAS))
    d = a.dim
    if draw(st.booleans()):
        m1 = _sparse(draw, d, d * d)
        a = a.dual_extension(m1)
        d = a.dim
    mult = [[list(v) for v in row] for row in a.mult]
    cells = st.tuples(*[st.integers(0, d - 1)] * 3, _nonzero)
    for i, j, k, c in draw(st.lists(cells, max_size=2)):
        mult[i][j][k] += c
    unit = _bumped(draw, a.unit) if draw(st.integers(0, 3)) == 0 else a.unit
    return FinAlgebra(d, mult, unit, check=False)


@st.composite
def presheaves(draw):
    """A preset presheaf or a deformation candidate over one (a random
    triple (m1, f1, c1), doubled algebras)."""
    p = draw(st.sampled_from(PRESHEAVES))
    if not (p.is_strict() and draw(st.booleans())):
        return p
    cat = p.category
    obj = draw(st.sampled_from(cat.objects))
    d = p.algebras[obj].dim
    name = draw(st.sampled_from(sorted(cat.morphisms)))
    m = cat.morphisms[name]
    arrows = draw(st.sampled_from([s.arrows for s in cat.nerve(2)]))
    c1 = RatMatrix.zeros(p.algebras[cat.source(arrows[0])].dim, 1)
    triple = CandidateTriple(
        p, m1={obj: _sparse(draw, d, d * d)},
        f1={name: _sparse(draw, p.algebras[m.source].dim,
                          p.algebras[m.target].dim)},
        c1={arrows: (c1 + _sparse(draw, c1.rows, 1)).column(0)})
    return build_twisted_candidate(p, triple)


def _tampered(draw, p):
    """p with a few restrictions, twists and z moved."""
    cat = p.category
    restrictions, twists, z = dict(p.restrictions), dict(p.twists), dict(p.z)
    for kind in draw(st.lists(st.sampled_from(["restriction", "twist", "z"]),
                              max_size=2)):
        if kind == "restriction":
            name = draw(st.sampled_from(sorted(cat.morphisms)))
            f = restrictions[name]
            restrictions[name] = f + _sparse(draw, f.rows, f.cols, 1)
        elif kind == "twist":
            u, v = draw(st.sampled_from(cat.composable_pairs()))
            twists[(u, v)] = _bumped(draw, p.twist(u, v))
        else:
            obj = draw(st.sampled_from(cat.objects))
            z[obj] = _bumped(draw, p.z_element(obj))
    return TwistedPresheaf(cat, p.algebras, restrictions, twists, z)


# -- the properties

@ORACLE
@given(st.data())
def test_algebra_axioms_and_centrality_match_the_oracle(data):
    a = data.draw(perturbed_algebras())
    assert a.axiom_failures() == oracle_axiom_failures(a)
    x = tuple(data.draw(st.lists(_small, min_size=a.dim, max_size=a.dim)))
    for y in (x, a.unit, unit_vector(a.dim, a.dim - 1)):
        assert a.is_central(y) == oracle_is_central(a, y)


@ORACLE
@given(st.data())
def test_presheaf_check_matches_the_oracle(data):
    p = _tampered(data.draw, data.draw(presheaves()))
    assert p.check() == oracle_check(p)


@ORACLE
@given(st.data())
def test_twisted_morphism_check_matches_the_oracle(data):
    src = data.draw(presheaves())
    tgt = _tampered(data.draw, src)
    cat = src.category
    g = {obj: RatMatrix.identity(src.algebras[obj].dim)
         for obj in cat.objects}
    tau = {name: src.algebras[m.source].unit
           for name, m in cat.morphisms.items()}
    for kind in data.draw(st.lists(st.sampled_from(["g", "tau"]),
                                   max_size=2)):
        if kind == "g":
            obj = data.draw(st.sampled_from(cat.objects))
            d = g[obj].rows
            g[obj] = g[obj] + _sparse(data.draw, d, d, 2)
        else:
            name = data.draw(st.sampled_from(sorted(cat.morphisms)))
            tau[name] = _bumped(data.draw, tau[name])
    assert check_twisted_morphism(src, tgt, g, tau) == \
        oracle_check_morphism(src, tgt, g, tau)


@ORACLE
@given(st.data())
def test_deformation_equivalence_matches_the_oracle(data):
    a = data.draw(st.sampled_from(ALGEBRAS[1:]))
    d = a.dim
    m1 = _sparse(data.draw, d, d * d)
    g1 = _sparse(data.draw, d, d)
    if data.draw(st.booleans()):
        # m1' = m1 - d(g1): an equivalence whenever g1 is normalized
        g1_cochain = HCochain(a, FinBimodule.regular(a), 1, g1)
        m1_prime = m1 - d_hoch(g1_cochain).matrix
    else:
        m1_prime = _sparse(data.draw, d, d * d)
    assert algebra_deformation_equivalence(a, m1, m1_prime, g1) == \
        oracle_deformation_equivalence(a, m1, m1_prime, g1)


def test_the_oracles_see_failures_and_passes():
    # the properties above compare both kinds of answer, not only one
    p = presets.twisted_diamond()[0]
    assert p.check() == oracle_check(p) == []
    g = {o: RatMatrix.identity(a.dim) for o, a in p.algebras.items()}
    tau = {name: p.algebras[m.source].unit
           for name, m in p.category.morphisms.items()}
    assert check_twisted_morphism(p, p, g, tau) == []
    broken = FinAlgebra(2, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [0, 1],
                        check=False)
    assert broken.axiom_failures() == oracle_axiom_failures(broken) != []
    dn = presets.dual_numbers()
    g1 = RatMatrix.from_rows([[0, 0], [0, 1]])
    m1 = RatMatrix.zeros(2, 4)
    m1_prime = m1 - d_hoch(HCochain(dn, FinBimodule.regular(dn), 1,
                                    g1)).matrix
    assert algebra_deformation_equivalence(dn, m1, m1_prime, g1) == \
        oracle_deformation_equivalence(dn, m1, m1_prime, g1) == (True, True)
