import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from gscohom.algebra import FinAlgebra, InvalidStructure
from gscohom.linalg import RatMatrix, VerificationFailed
from gscohom.gs import GSComplex
from gscohom.presheaf import TwistedPresheaf
from gscohom.deform import (deform, NotACocycle, CandidateTriple,
                            TwistedDeformation,
                            EquivalencePair, equivalence, cochain_failures,
                            opposite_deformation, central_underlying,
                            deformation_from_cochain, bidirectional_verdicts)
from gscohom import presets
from conftest import random_matrix


@pytest.fixture(scope="module")
def setup():
    p = presets.v_poset_commutative()
    return p, GSComplex(p)


def random_equivalence_pair(rng, presheaf):
    """A normalized reduced degree-1 pair (unit column of g1 zero, tau1
    vanishing on identities)."""
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
    tau1 = {}
    for name, m in cat.morphisms.items():
        if not cat.is_identity(name):
            d = presheaf.algebras[m.source].dim
            tau1[name] = tuple(F(rng.randint(-2, 2)) for _ in range(d))
    return EquivalencePair(presheaf, g1, tau1)


def test_trivial_deformation(setup):
    p, gs = setup
    defn = deform(p, gs=gs)
    assert defn.twisted.is_valid()
    defn.reduction_mod_eps()


def test_deform_checks_the_reduction_mod_eps(setup, monkeypatch):
    p, gs = setup
    reduced = []
    monkeypatch.setattr(TwistedDeformation, "reduction_mod_eps",
                        lambda defn: reduced.append(defn))
    defn = deform(p, gs=gs)
    assert reduced == [defn]


@pytest.mark.parametrize("block", ["product", "restriction", "twist"])
def test_reduction_mod_eps_compares_every_block(setup, block):
    # a doubled presheaf whose top block differs from the base at one
    # product, restriction or twist does not reduce to the base
    p, gs = setup
    twisted = deform(p, gs=gs).twisted
    cat = p.category
    algebras, restrictions = dict(twisted.algebras), \
        dict(twisted.restrictions)
    twists = dict(twisted.twists)
    if block == "product":
        doubled = twisted.algebras["U0"]
        algebras["U0"] = FinAlgebra(
            doubled.dim, [[tuple(2 * x for x in v) for v in row]
                          for row in doubled.mult], doubled.unit, check=False)
    elif block == "restriction":
        name = "U01->U0"
        restrictions[name] = restrictions[name].scale(2)
    else:
        u, v = next(pair for pair in cat.composable_pairs()
                    if not cat.is_identity(pair[1]))
        twists[(u, v)] = tuple(2 * x for x in twisted.twist(u, v))
    bad = TwistedDeformation(p, CandidateTriple(p), TwistedPresheaf(
        cat, algebras, restrictions, twists))
    with pytest.raises(VerificationFailed, match="reduction mod eps: %ss "
                       "differ" % block):
        bad.reduction_mod_eps()


def test_representatives_deform(setup):
    p, gs = setup
    betti, reps = gs.cohomology(2, "normalized_reduced")
    assert betti >= 1
    for rep in reps:
        triple = deformation_from_cochain(p, rep)
        defn = deform(p, triple, gs=gs)
        assert defn.twisted.is_valid()
        defn.reduction_mod_eps()


def test_coboundaries_deform_and_are_trivial(setup, rng):
    p, gs = setup
    trivial = deform(p, gs=gs)
    for _ in range(4):
        pair = random_equivalence_pair(rng, p)
        boundary = gs.d(pair.as_cochain(gs))
        triple = deformation_from_cochain(p, boundary)
        defn = deform(p, triple, gs=gs)
        report = equivalence(defn, trivial, pair, gs=gs)
        assert report["isomorphism"]


def test_not_a_cocycle_names_component(setup):
    p, gs = setup
    m1 = {"U0": RatMatrix(2, 4, {(0, 3): F(1)})}   # m1(x, x) = 1 at U0 only
    with pytest.raises(NotACocycle) as err:
        deform(p, m1, gs=gs)
    assert any("d_simp(m1) - d_Hoch(f1)" in f for f in err.value.failures)
    # a non-normalized candidate names the normalization defect
    m1_bad = {"U0": RatMatrix(2, 4, {(1, 0): F(1)})}   # m1(1, 1) = x
    with pytest.raises(NotACocycle) as err2:
        deform(p, m1_bad, gs=gs)
    assert any("not normalized" in f for f in err2.value.failures)


def test_bidirectional_agreement_on_random_candidates(setup, rng):
    p, gs = setup
    cat = p.category
    disagreements = 0
    for _ in range(20):
        m1 = {o: random_matrix(rng, p.algebras[o].dim,
                               p.algebras[o].dim ** 2, span=1)
              for o in cat.objects}
        f1 = {}
        for name, m in cat.morphisms.items():
            f1[name] = random_matrix(rng, p.algebras[m.source].dim,
                                     p.algebras[m.target].dim, span=1)
        c1 = {}
        for sigma in cat.nerve(2):
            dom = p.algebras[sigma.domain]
            c1[sigma.arrows] = tuple(F(rng.randint(-1, 1))
                                     for _ in range(dom.dim))
        triple = CandidateTriple(p, m1, f1, c1)
        axiom_ok, cochain_ok, _, _ = bidirectional_verdicts(p, triple, gs=gs)
        if axiom_ok != cochain_ok:
            disagreements += 1
    assert disagreements == 0


def test_identity_equivalence(setup):
    p, gs = setup
    _, reps = gs.cohomology(2, "normalized_reduced")
    defn = deform(p, deformation_from_cochain(p, reps[0]), gs=gs)
    report = equivalence(defn, defn, EquivalencePair(p), gs=gs)
    assert report["isomorphism"]


def test_distinct_classes_not_equivalent(setup, rng):
    p, gs = setup
    betti, reps = gs.cohomology(2, "normalized_reduced")
    assert betti >= 2
    d_a = deform(p, deformation_from_cochain(p, reps[0]), gs=gs)
    d_b = deform(p, deformation_from_cochain(p, reps[1]), gs=gs)
    for _ in range(3):
        pair = random_equivalence_pair(rng, p)
        assert not equivalence(d_a, d_b, pair, gs=gs)["isomorphism"]


def test_class_separation_by_exact_solve(setup, rng):
    # distinct classes: the gauge equation d(xi) = phi_a - phi_b has no
    # solution at all in the normalized reduced degree-1 space, decided by
    # one exact linear solve (not merely by failing sampled gauges)
    from gscohom.linalg import submatrix
    p, gs = setup
    betti, reps = gs.cohomology(2, "normalized_reduced")
    keep1 = gs.kept_coordinates("normalized_reduced", 1)
    keep2 = gs.kept_coordinates("normalized_reduced", 2)
    d1 = submatrix(gs.differential(1), keep2, keep1)

    def restricted(theta):
        vec = gs.flatten_cochain(theta)
        return tuple(vec[i] for i in keep2)

    assert d1.solve(restricted(reps[0] - reps[1])) is None
    # while a coboundary-shifted copy of the same class is reachable
    pair = random_equivalence_pair(rng, p)
    shifted = reps[0] + gs.d(pair.as_cochain(gs))
    assert d1.solve(restricted(reps[0] - shifted)) is not None


def test_equivalence_is_equivalence_relation(setup, rng):
    p, gs = setup
    trivial = deform(p, gs=gs)
    pair = random_equivalence_pair(rng, p)
    boundary = gs.d(pair.as_cochain(gs))
    defn = deform(p, deformation_from_cochain(p, boundary), gs=gs)
    # reflexive
    assert equivalence(defn, defn, EquivalencePair(p), gs=gs)["isomorphism"]
    # symmetric: the inverse gauge (1 - g1 eps, 1 - tau1 eps): at first
    # order the inverse pair is just the negation
    neg = EquivalencePair(
        p, {o: -m for o, m in pair.g1.items()},
        {u: tuple(-x for x in v) for u, v in pair.tau1.items()})
    assert equivalence(trivial, defn, neg, gs=gs)["isomorphism"]
    # transitive: gauges compose by adding their first-order parts
    pair2 = random_equivalence_pair(rng, p)
    boundary2 = gs.d(pair2.as_cochain(gs)) + gs.d(pair.as_cochain(gs))
    defn2 = deform(p, deformation_from_cochain(p, boundary2), gs=gs)
    assert equivalence(defn2, defn, pair2, gs=gs)["isomorphism"]
    summed = EquivalencePair(
        p,
        {o: pair.g1_at(o) + pair2.g1_at(o) for o in p.category.objects},
        {u: tuple(a + b for a, b in zip(pair.tau1_at(u), pair2.tau1_at(u)))
         for u in p.category.morphisms})
    assert equivalence(defn2, trivial, summed, gs=gs)["isomorphism"]


def test_opposite_deformation_sign_pattern(setup):
    p, gs = setup
    _, reps = gs.cohomology(2, "normalized_reduced")
    for rep in reps:
        defn = deform(p, deformation_from_cochain(p, rep), gs=gs)
        opp = opposite_deformation(defn)
        # c1 flips sign, f1 is carried over
        for key, vec in defn.triple.c1.items():
            assert opp.triple.c1[key] == tuple(-x for x in vec)
        for name, mat in defn.triple.f1.items():
            assert opp.triple.f1[name] == mat


def test_opposite_deformation_trivial_case(setup):
    p, gs = setup
    defn = deform(p, gs=gs)
    opp = opposite_deformation(defn)
    assert all(m.is_zero() for m in opp.triple.m1.values())
    assert all(m.is_zero() for m in opp.triple.f1.values())
    assert all(all(x == 0 for x in v) for v in opp.triple.c1.values())
    assert not opp.twisted.twists


def test_self_opposite_for_symmetric_m1(setup):
    p, gs = setup
    # m1(x, x) = x on both wings, restricted compatibly: built by hand
    m1 = {"U0": RatMatrix(2, 4, {(1, 3): F(1)}),
          "U1": RatMatrix(2, 4, {(1, 3): F(1)})}
    triple = CandidateTriple(p, m1, {}, {})
    axiom_ok, cochain_ok, _, _ = bidirectional_verdicts(p, triple, gs=gs)
    assert axiom_ok and cochain_ok
    defn = deform(p, triple, gs=gs)
    opp = opposite_deformation(defn)
    for obj, mat in defn.triple.m1.items():
        assert opp.triple.m1[obj] == mat      # symmetric cochain


def test_central_underlying(setup):
    p, gs = setup
    _, reps = gs.cohomology(2, "normalized_reduced")
    for rep in reps:
        defn = deform(p, deformation_from_cochain(p, rep), gs=gs)
        assert defn.twisted.has_central_twists()
        underlying = central_underlying(defn, gs=gs)
        assert underlying.twisted.is_strict()
        # matches the Hodge r >= 1 projection of the cocycle
        theta = defn.triple.as_cochain(gs)
        parts = gs.hodge_split(theta)
        acc = parts[1]
        for r in range(2, 3):
            acc = acc + parts[r]
        assert acc == underlying.triple.as_cochain(gs)


def test_opposite_of_a_coboundary_on_a_noncommutative_presheaf(rng):
    # the opposite deformation is checked in the complex of the opposite
    # presheaf; the base's complex, once accepted here, made the cochain
    # side disagree with the axioms on this coboundary
    p = presets.v_poset_triangular()
    gs = GSComplex(p)
    pair = random_equivalence_pair(rng, p)
    defn = deform(p, deformation_from_cochain(p, gs.d(pair.as_cochain(gs))),
                  gs=gs)
    opp = opposite_deformation(defn)
    assert opp.base.category is p.category
    op_gs = GSComplex(opp.base)
    assert opp.triple.as_cochain(op_gs) == \
        gs.op_cochain(defn.triple.as_cochain(gs))
    with pytest.raises(InvalidStructure):
        deform(opp.base, opp.triple, gs=gs)


def test_a_complex_of_another_presheaf_is_refused(setup):
    p, gs = setup
    defn = deform(p, gs=gs)
    tri = presets.v_poset_triangular()
    other = GSComplex(presets.diamond_mixed())
    with pytest.raises(InvalidStructure):
        deform(tri, gs=other)
    with pytest.raises(InvalidStructure):
        cochain_failures(tri, CandidateTriple(tri), gs=other)
    # an equal presheaf is still another object
    with pytest.raises(InvalidStructure):
        equivalence(defn, defn, EquivalencePair(p),
                    gs=GSComplex(presets.v_poset_commutative()))
    with pytest.raises(InvalidStructure):
        central_underlying(defn, gs=other)
    with pytest.raises(InvalidStructure):
        CandidateTriple(tri).as_cochain(gs)


def test_noncommutative_deformation_round_trip():
    p = presets.v_poset_triangular()
    gs = GSComplex(p)
    betti, reps = gs.cohomology(2, "normalized_reduced")
    for rep in reps:
        defn = deform(p, deformation_from_cochain(p, rep), gs=gs)
        assert defn.twisted.is_valid()


_HEADLINE_CHECKS_SCRIPT = r'''
import importlib
from gscohom import presets
from gscohom.algebra import FinAlgebra, FinModule, InvalidStructure
from gscohom.descent import DescentMachine, QPresheafObject
from gscohom.fincat import poset_category
from gscohom.linalg import RatMatrix, VerificationFailed
from gscohom.presheaf import strict_presheaf
from gscohom.simplicial import ModPresheaf
from oracles import PresheafComplex
deform_module = importlib.import_module("gscohom.deform")


def outcome(run):
    try:
        run()
    except (InvalidStructure, VerificationFailed) as exc:
        return type(exc).__name__
    return "passed"


base = presets.v_poset_commutative()
cat = base.category
# a module presheaf whose identity restriction at U0 is 2
maps = {name: RatMatrix.identity(1) for name in cat.morphisms}
maps[cat.identity("U0")] = RatMatrix.from_rows([[2]])
print(outcome(lambda: ModPresheaf(cat, {o: 1 for o in cat.objects}, maps)))
# a restriction that is not unital
zeroed = dict(base.restrictions)
zeroed["U01->U0"] = RatMatrix.zeros(zeroed["U01->U0"].rows,
                                   zeroed["U01->U0"].cols)
print(outcome(lambda: strict_presheaf(cat, base.algebras, zeroed)))
# deform on a presheaf with a nontrivial twist
twisted, _ = presets.twisted_diamond()
print(outcome(lambda: deform_module.deform(twisted)))
# an equivalence between deformations of two equal but distinct bases
other = presets.v_poset_commutative()
print(outcome(lambda: deform_module.equivalence(
    deform_module.deform(base), deform_module.deform(other),
    deform_module.EquivalencePair(base))))
# cochain conditions on Q x Q with the unit (1, 1), not a basis vector
qq = FinAlgebra(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])
pt = poset_category(["pt"], [])
on_qq = strict_presheaf(pt, {"pt": qq}, {"pt->pt": RatMatrix.identity(2)})
print(outcome(lambda: deform_module.cochain_failures(
    on_qq, deform_module.CandidateTriple(on_qq))))
# the axiom checker and the cochain conditions made to disagree
deform_module.bidirectional_verdicts = \
    lambda presheaf, triple, gs=None: (True, False, None, ["forced"])
print(outcome(lambda: deform_module.deform(base)))
# a slice complex with the all-ones matrix as phi^1 at U0: phi^1 phi^0 != 0
slices = PresheafComplex(base, 2)
phi1 = slices.phi[1]["U0"]
slices.phi[1]["U0"] = RatMatrix.from_rows([[1] * phi1.cols] * phi1.rows)
print(outcome(slices.check_complex))
# the slice complex of a presheaf with a nontrivial twist
print(outcome(lambda: PresheafComplex(twisted, 1)))
# a comparison-functor presheaf whose identity transition is zero
q = QPresheafObject(DescentMachine(base), "U0",
                    FinModule.free(presets.dual_numbers()))
ident = q.slice.identity(q.slice.objects[0])
q.transitions[ident] = q.transitions[ident].scale(0)
print(outcome(q._check_functorial))
'''


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_headline_checks_raise_under_python_O(flags):
    # functoriality of module presheaves and of strict_presheaf, the
    # preconditions of deform, equivalence and cochain_failures, the
    # axiom-vs-cocycle agreement of deform, the slice complex and its
    # strictness precondition, and the comparison functor's presheaf: typed
    # errors that -O does not strip; the slice complex is a test oracle,
    # imported from this directory
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(here, "..", "src"), here]))
    done = subprocess.run([sys.executable, *flags, "-c",
                           _HEADLINE_CHECKS_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["InvalidStructure", "InvalidStructure",
                                   "NotStrict", "InvalidStructure",
                                   "InvalidStructure", "VerificationFailed",
                                   "VerificationFailed", "InvalidStructure",
                                   "VerificationFailed"]
