"""Golden guard for the cochain side of `gscohom.deform`.

`tests/golden/deform_failures.json` holds, for seeded candidates on the four
standard fixtures:

  * the `cochain_failures` list of every candidate triple, in order: sparse
    random triples (identity arrows and degenerate 2-simplices included),
    and normalized reduced cocycles pushed off by one or two entries (a unit
    column of m1 or f1, an identity f1, a degenerate c1, any coordinate);
  * the `equivalence` report of seeded gauge pairs: coboundary gauges, the
    same gauges made non-normalized or non-reduced, wrong gauges, and
    gauges between deformations by cohomology representatives.

A change to how the conditions are evaluated must leave every message and
its order as it is.  Regenerate the file on purpose (and say why in
CHANGES.md) with

    PYTHONPATH=src python tests/test_deform_golden.py
"""

import json
import os
import random
from fractions import Fraction

from gscohom import presets
from gscohom.deform import (CandidateTriple, EquivalencePair,
                            cochain_failures, deform, deformation_from_cochain,
                            equivalence)
from gscohom.gs import GSComplex
from gscohom.linalg import RatMatrix

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "deform_failures.json")
TRIPLES = 60            # per fixture
PAIRS = 6               # per fixture
DEFECTS = ("none", "m1_unit", "f1_unit", "f1_identity", "c1_degenerate",
           "any")


def _value(rng):
    return Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 2]))


def _sparse(rng, rows, cols, density):
    return RatMatrix(rows, cols, {(i, j): _value(rng) for i in range(rows)
                                  for j in range(cols)
                                  if rng.random() < density})


def _entry(rows, cols, i, j, value):
    return RatMatrix(rows, cols, {(i, j): value})


def random_triple(rng, p):
    """Sparse m1, f1 and c1 on random objects, arrows and 2-simplices."""
    cat = p.category
    m1, f1, c1 = {}, {}, {}
    for obj in cat.objects:
        d = p.algebras[obj].dim
        if rng.random() < 0.5:
            m1[obj] = _sparse(rng, d, d * d, 0.2)
    for name in sorted(cat.morphisms):
        m = cat.morphisms[name]
        if rng.random() < 0.4:
            f1[name] = _sparse(rng, p.algebras[m.source].dim,
                               p.algebras[m.target].dim, 0.3)
    for sigma in cat.nerve(2):
        if rng.random() < 0.3:
            c1[sigma.arrows] = tuple(
                _value(rng) if rng.random() < 0.5 else Fraction(0)
                for _ in range(p.algebras[sigma.domain].dim))
    return CandidateTriple(p, m1, f1, c1)


def random_pair(rng, p, density=0.5):
    """A sparse normalized reduced degree-1 pair: g1 vanishes on the unit,
    tau1 on identities."""
    cat = p.category
    g1, tau1 = {}, {}
    for obj in cat.objects:
        a = p.algebras[obj]
        g1[obj] = RatMatrix(a.dim, a.dim, {
            (i, j): _value(rng) for i in range(a.dim) for j in range(a.dim)
            if j != a.unit_index() and rng.random() < density})
    for name in sorted(cat.morphisms):
        if not cat.is_identity(name):
            d = p.algebras[cat.source(name)].dim
            tau1[name] = tuple(_value(rng) if rng.random() < density
                               else Fraction(0) for _ in range(d))
    return EquivalencePair(p, g1, tau1)


def random_cocycle(rng, p, gs, reps):
    """A rational combination of the H^2 representatives plus the
    coboundary of a random pair, as a triple with every block present."""
    theta = gs.d(random_pair(rng, p).as_cochain(gs))
    for rep in reps:
        theta = theta + rep.scale(_value(rng))
    return deformation_from_cochain(p, theta)


def push_off(rng, p, triple, defect):
    """The triple with one entry added where `defect` says."""
    cat = p.category
    m1, f1, c1 = dict(triple.m1), dict(triple.f1), dict(triple.c1)
    if defect == "any":
        defect = rng.choice(["m1", "f1", "c1"])
    if defect in ("m1", "m1_unit"):
        obj = rng.choice(list(cat.objects))
        a = p.algebras[obj]
        i, j = rng.randrange(a.dim), rng.randrange(a.dim)
        if defect == "m1_unit":
            j = a.unit_index()
            i, j = rng.choice([(i, j), (j, i)])
        col = i * a.dim + j
        m1[obj] = triple.m1_at(obj) + _entry(
            a.dim, a.dim ** 2, rng.randrange(a.dim), col, _value(rng))
    elif defect in ("f1", "f1_unit", "f1_identity"):
        names = sorted(cat.morphisms)
        if defect == "f1_identity":
            names = [n for n in names if cat.is_identity(n)]
        name = rng.choice(names)
        m = cat.morphisms[name]
        rows = p.algebras[m.source].dim
        cols = p.algebras[m.target].dim
        j = p.algebras[m.target].unit_index() if defect == "f1_unit" \
            else rng.randrange(cols)
        f1[name] = triple.f1_at(name) + _entry(rows, cols,
                                               rng.randrange(rows), j,
                                               _value(rng))
    elif defect in ("c1", "c1_degenerate"):
        simplices = [s for s in cat.nerve(2)
                     if defect == "c1" or s.is_degenerate()]
        sigma = rng.choice(simplices)
        vec = list(triple.c1_at(sigma.arrows))
        vec[rng.randrange(len(vec))] += _value(rng)
        c1[sigma.arrows] = tuple(vec)
    return CandidateTriple(p, m1, f1, c1)


def _report(run):
    try:
        report = run()
    except Exception as exc:      # recorded, so a change of outcome shows
        return {"raises": type(exc).__name__}
    return {"isomorphism": report["isomorphism"],
            "cochain_equation_holds": report["cochain_equation_holds"],
            "axiom_failures": [list(f) for f in report["axiom_failures"]]}


def failure_cases(name, p, gs):
    rng = random.Random("failures:" + name)
    reps = gs.cohomology(2, "normalized_reduced")[1]
    out = []
    for k in range(TRIPLES):
        if k % 3 == 0:
            triple = random_triple(rng, p)
        else:
            triple = random_cocycle(rng, p, gs, reps)
            for _ in range(k % 3):
                triple = push_off(rng, p, triple,
                                  DEFECTS[(k // 3 + len(out)) % len(DEFECTS)])
        out.append(cochain_failures(p, triple, gs=gs))
    return out


def equivalence_cases(name, p, gs):
    rng = random.Random("equivalence:" + name)
    cat = p.category
    reps = gs.cohomology(2, "normalized_reduced")[1]
    trivial = deform(p, gs=gs)
    out = []
    for k in range(PAIRS):
        pair = random_pair(rng, p)
        boundary = gs.d(pair.as_cochain(gs))
        defn = deform(p, deformation_from_cochain(p, boundary), gs=gs)
        g1, tau1 = dict(pair.g1), dict(pair.tau1)
        if k == 1:                # g1(1) != 0
            obj = rng.choice(list(cat.objects))
            a = p.algebras[obj]
            g1[obj] = pair.g1_at(obj) + _entry(
                a.dim, a.dim, rng.randrange(a.dim), a.unit_index(),
                _value(rng))
        elif k == 2:              # tau1 nonzero on an identity
            name_id = rng.choice(sorted(n for n in cat.morphisms
                                        if cat.is_identity(n)))
            tau1[name_id] = tuple(_value(rng) for _ in pair.tau1_at(name_id))
        elif k == 3:              # another gauge
            other = random_pair(rng, p)
            g1, tau1 = other.g1, other.tau1
        gauge = EquivalencePair(p, g1, tau1)
        if k < 4:
            out.append(_report(lambda: equivalence(defn, trivial, gauge,
                                                   gs=gs)))
            continue
        rep = reps[0] if reps else boundary
        def_b = deform(p, deformation_from_cochain(p, rep), gs=gs)
        def_a = deform(p, deformation_from_cochain(p, rep + boundary), gs=gs)
        if k == 5:                # distinct classes, or a wrong gauge
            def_b = deform(p, deformation_from_cochain(p, reps[-1]), gs=gs) \
                if len(reps) > 1 else trivial
        out.append(_report(lambda: equivalence(def_a, def_b, gauge, gs=gs)))
    return out


def record():
    failures, verdicts = {}, {}
    for name, p in sorted(presets.standard_fixtures().items()):
        gs = GSComplex(p)
        failures[name] = failure_cases(name, p, gs)
        verdicts[name] = equivalence_cases(name, p, gs)
    return {"cochain_failures": failures, "equivalence": verdicts}


def dumps(data):
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_deform_failures_match_golden():
    with open(GOLDEN) as fh:
        expected = fh.read()
    assert dumps(record()) == expected


def test_golden_covers_every_outcome():
    data = json.loads(open(GOLDEN).read())
    lists = [f for cases in data["cochain_failures"].values() for f in cases]
    reports = [r for cases in data["equivalence"].values() for r in cases]
    messages = [m for f in lists for m in f]
    assert len(lists) >= 200 and len(reports) >= 20
    assert any(not f for f in lists)
    for word in ("associativity", "restriction-hom", "twist-conjugation",
                 "twist-cocycle", "m1 not normalized", "f1 not normalized",
                 "f1 not reduced", "c1 not reduced"):
        assert any(word in m for m in messages), word
    assert {r.get("isomorphism") for r in reports} >= {True, False}


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        fh.write(dumps(record()))
