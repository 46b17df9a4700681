"""Command-line interface.

Every command loads a single self-contained JSON project file, dispatches
to the library, and prints one deterministic JSON report on stdout.  Exit
codes: 0 success, 1 verification failure, 2 schema/usage error (a bad
project, a negative --degree, a --kind the complex does not have, or a
malformed GSD_IDEMPOTENT_BOUND), always reported as JSON.  Progress
notes go to stderr unless --quiet is given.  GSD_IDEMPOTENT_BOUND bounds
the symmetric-group degree used by Hodge computations (default 6).
"""

import argparse
import json
import os
import sys

from .simplicial import PairComplex, ModPresheaf
from .cech import CechComplex, compare_simp_cech
from .hochschild import hh_algebra, regular_bimodule
from .gs import GSComplex, KINDS, factor_through_restrictions
from .deform import (deform, NotACocycle, CandidateTriple, EquivalencePair,
                     equivalence)
from .descent import (DescentMachine, canonical_free_datum, check_descent,
                      PreDescentDatum)
from .project import (load_project, SchemaError, matrix_json, vector_json,
                      parse_matrix, parse_vector, SCHEMA)

from .shuffles import ACTION_CONVENTION

IDEMPOTENT_CONSTRUCTION = ("lagrange-interpolation/total-signed-shuffle;"
                           + ACTION_CONVENTION)


def _meta():
    return {"schema": SCHEMA, "idempotents": IDEMPOTENT_CONSTRUCTION}


def _emit(payload, code):
    payload = dict(payload)
    payload["meta"] = _meta()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return code


def _progress(args, msg):
    if not args.quiet:
        print(msg, file=sys.stderr)


def _idempotent_bound():
    raw = os.environ.get("GSD_IDEMPOTENT_BOUND", "6")
    try:
        return int(raw)
    except ValueError:
        raise SchemaError("GSD_IDEMPOTENT_BOUND=%s: expected an integer"
                          % raw) from None


def _check_usage(args):
    """Reject a negative degree, and a --kind the chosen complex lacks."""
    if getattr(args, "degree", 0) < 0:
        raise SchemaError("--degree %d: expected a degree >= 0" % args.degree)
    if args.command == "cohomology" and args.kind is not None:
        kinds = {"hoch": ("full", "normalized"), "simp": ("full", "reduced"),
                 "cech": ("full", "alternating"), "gs": KINDS}[args.complex]
        if args.kind not in kinds:
            raise SchemaError("--kind %s: expected one of %s for --complex %s"
                              % (args.kind, ", ".join(kinds), args.complex))


def _simplex_label(key):
    if len(key) == 1:
        return key[0]
    return ";".join(key[1:])


def _cochain_json(theta):
    out = {}
    for (p, q), blocks in sorted(theta.components.items()):
        comp = {}
        for key, mat in sorted(blocks.items()):
            if not mat.is_zero():
                comp[_simplex_label(key)] = matrix_json(mat)
        out["(%d,%d)" % (p, q)] = comp
    return out


def _get_triple(project, name):
    if name not in project.cochains:
        raise SchemaError("/cochains/%s: not present" % name)
    block = project.cochains[name]
    if block["kind"] != "triple":
        raise SchemaError("/cochains/%s: expected an (m1, f1, c1) block" % name)
    return CandidateTriple(project.presheaf, block["m1"], block["f1"],
                           block["c1"])


def _get_pair(project, name):
    if name not in project.cochains:
        raise SchemaError("/cochains/%s: not present" % name)
    block = project.cochains[name]
    if block["kind"] != "pair":
        raise SchemaError("/cochains/%s: expected a (g1, tau1) block" % name)
    return EquivalencePair(project.presheaf, block["g1"], block["tau1"])


def cmd_check(project, args):
    failures = project.presheaf.check()
    payload = {"valid": not failures,
               "failures": [list(f) for f in failures]}
    return _emit(payload, 0 if not failures else 1)


def cmd_cohomology(project, args):
    presheaf = project.presheaf
    if args.complex == "hoch":
        obj = args.object or presheaf.category.objects[0]
        if obj not in presheaf.category.objects:
            raise SchemaError("--object %s: unknown object" % obj)
        algebra = presheaf.algebras[obj]
        normalized = args.kind == "normalized"
        betti, reps = hh_algebra(algebra, regular_bimodule(algebra),
                                 args.degree, normalized=normalized)
        payload = {"complex": "hoch", "object": obj, "degree": args.degree,
                   "betti": betti,
                   "representatives": [matrix_json(r.matrix) for r in reps]}
        return _emit(payload, 0)
    if args.complex == "simp":
        cx = PairComplex(ModPresheaf.constant(presheaf.category),
                         ModPresheaf.of_algebras(presheaf))
        betti, reps = cx.cohomology(args.degree,
                                    reduced=(args.kind == "reduced"))
        payload = {"complex": "simp", "degree": args.degree, "betti": betti,
                   "representatives": [vector_json(r) for r in reps]}
        return _emit(payload, 0)
    if args.complex == "cech":
        if project.poset is None:
            raise SchemaError("/category: the Cech complex needs a poset "
                              "with binary meets")
        cx = CechComplex(ModPresheaf.of_algebras(presheaf), project.poset,
                         alternating=(args.kind != "full"))
        betti, reps = cx.cohomology(args.degree)
        payload = {"complex": "cech", "degree": args.degree, "betti": betti,
                   "alternating": args.kind != "full",
                   "representatives": [vector_json(r) for r in reps]}
        return _emit(payload, 0)
    # gs
    if not presheaf.is_strict():
        raise SchemaError("/presheaf: the total complex needs a strict "
                          "presheaf (no twists)")
    kind = args.kind or "full"
    gs = GSComplex(presheaf)
    _progress(args, "assembling total complex through degree %d"
              % (args.degree + 1))
    betti, reps = gs.cohomology(args.degree, kind)
    payload = {"complex": "gs", "degree": args.degree, "kind": kind,
               "betti": betti,
               "representatives": [_cochain_json(r) for r in reps]}
    return _emit(payload, 0)


def cmd_hodge(project, args):
    presheaf = project.presheaf
    if not presheaf.is_strict():
        raise SchemaError("/presheaf: Hodge splitting needs a strict presheaf")
    bound = _idempotent_bound()
    if args.degree > bound:
        raise SchemaError("--degree %d exceeds the symmetric-group bound %d "
                          "(set GSD_IDEMPOTENT_BOUND)" % (args.degree, bound))
    gs = GSComplex(presheaf)
    gs.require_commutative()
    components = {}
    stable = True
    for r in range(args.degree + 1):
        ok = gs.check_hodge_stability(args.degree, r)
        stable = stable and ok
        components[str(r)] = {
            "betti": gs.hodge_cohomology(args.degree, r),
            "stable": ok,
        }
    total = gs.cohomology(args.degree, "full")[0]
    summed = sum(v["betti"] for v in components.values())
    payload = {"degree": args.degree, "total_betti": total,
               "components": components, "betti_additivity": summed == total}
    ok = stable and summed == total
    return _emit(payload, 0 if ok else 1)


def cmd_deform(project, args):
    triple = _get_triple(project, args.cocycle)
    try:
        defn = deform(project.presheaf, triple)
    except NotACocycle as exc:
        return _emit({"valid": False, "failures": list(exc.failures)}, 1)
    twisted = defn.twisted
    deformation = {
        "algebras": {},
        "restrictions": {name: matrix_json(mat)
                         for name, mat in twisted.restrictions.items()},
        "twists": {"%s;%s" % key: vector_json(val)
                   for key, val in twisted.twists.items()},
    }
    for obj in twisted.category.objects:
        alg = twisted.algebras[obj]
        mult = []
        for i in range(alg.dim):
            for j in range(alg.dim):
                if any(alg.mult[i][j]):
                    mult.append([i, j, vector_json(alg.mult[i][j])])
        deformation["algebras"][obj] = {"dim": alg.dim, "mult": mult,
                                        "unit": vector_json(alg.unit)}
    return _emit({"valid": True, "failures": [],
                  "deformation": deformation}, 0)


def cmd_equiv(project, args):
    triple_a = _get_triple(project, args.defA)
    triple_b = _get_triple(project, args.defB)
    pair = _get_pair(project, args.cochain)
    gs = GSComplex(project.presheaf)
    try:
        def_a = deform(project.presheaf, triple_a, gs=gs)
        def_b = deform(project.presheaf, triple_b, gs=gs)
    except NotACocycle as exc:
        return _emit({"isomorphism": False,
                      "failures": ["input is not a deformation: %s" % exc]}, 1)
    report = equivalence(def_a, def_b, pair, gs=gs)
    payload = {"isomorphism": report["isomorphism"],
               "axiom_failures": [list(f) for f in report["axiom_failures"]],
               "cochain_equation_holds": report["cochain_equation_holds"]}
    return _emit(payload, 0 if report["isomorphism"] else 1)


def cmd_compare_cech(project, args):
    if project.poset is None:
        raise SchemaError("/category: comparison needs a poset with meets")
    f_presheaf = ModPresheaf.of_algebras(project.presheaf)
    report = compare_simp_cech(f_presheaf, project.poset, args.degree)
    ok = (report["simp_betti"] == report["cech_betti"] and
          report["pi_iota_identity"] and report["homotopy_identity"])
    payload = dict(report)
    payload["pi_iota_identity"] = "pass" if report["pi_iota_identity"] else "fail"
    payload["homotopy_identity"] = "pass" if report["homotopy_identity"] else "fail"
    return _emit(payload, 0 if ok else 1)


def _parse_datum(project, name):
    if name not in project.data:
        raise SchemaError("/data/%s: not present" % name)
    block = project.data[name]
    machine = DescentMachine(project.presheaf)
    chg_inv = {obj: project.basis_changes[obj].inverse()
               for obj in project.category.objects}
    if block.get("type") == "free":
        trivialization = {}
        for mname, coeffs in block.get("trivialization", {}).items():
            src = project.category.source(mname)
            trivialization[mname] = chg_inv[src].apply(
                parse_vector(coeffs, "/data/%s/trivialization" % name))
        return machine, canonical_free_datum(machine, trivialization)
    modules = {}
    for obj in project.category.objects:
        mod_name = block["modules"].get(obj)
        if mod_name is None or mod_name not in project.modules:
            raise SchemaError("/data/%s/modules/%s: unknown module"
                              % (name, obj))
        mobj, module = project.modules[mod_name]
        if mobj != obj:
            raise SchemaError("/data/%s/modules/%s: module lives at %s"
                              % (name, obj, mobj))
        modules[obj] = module
    maps = {}
    for mname in project.category.morphisms:
        rows = block["maps"].get(mname)
        if rows is None:
            raise SchemaError("/data/%s/maps/%s: missing" % (name, mname))
        maps[mname] = parse_matrix(rows, "/data/%s/maps/%s" % (name, mname))
    return machine, PreDescentDatum(machine, modules, maps)


def cmd_descent_check(project, args):
    machine, datum = _parse_datum(project, args.datum)
    report = check_descent(datum)
    payload = {"classification": report["classification"],
               "failures": [list(f) for f in report["failures"]],
               "note": "verified on the finite-dimensional sample only"}
    return _emit(payload, 0 if report["classification"] != "invalid" else 1)


def cmd_factor(project, args):
    presheaf = project.presheaf
    triple = _get_triple(project, args.cocycle)
    gs = GSComplex(presheaf)
    gs.require_commutative()
    bound = _idempotent_bound()
    theta = triple.as_cochain(gs)
    parts = gs.hodge_split(theta)
    payload = {"degree": 2, "components": {}}
    ok = True
    for r in range(1, 3):
        if r > bound:
            raise SchemaError("component %d exceeds GSD_IDEMPOTENT_BOUND" % r)
        comp = parts[r].component(2 - r, r)
        result = factor_through_restrictions(gs, 2 - r, r, comp)
        lifts = {_simplex_label(k): {"matrix": matrix_json(v["matrix"]),
                                     "unique": v["unique"]}
                 for k, v in sorted(result["lifts"].items())}
        payload["components"][str(r)] = {"lifts": lifts,
                                         "failures": result["failures"]}
        ok = ok and not result["failures"]
    return _emit(payload, 0 if ok else 1)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gscohom",
        description="Exact cohomology and first-order deformations of "
                    "(twisted) presheaves of algebras on finite categories.")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--project", required=True,
                       help="path to the JSON project file")

    p = sub.add_parser("check", help="verify the (twisted) presheaf axioms")
    common(p)
    p = sub.add_parser("cohomology", help="Betti numbers and representatives")
    common(p)
    p.add_argument("--complex", choices=("hoch", "simp", "cech", "gs"),
                   required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--kind", default=None,
                   help="subcomplex selection, default the full complex "
                        "(alternating for cech): hoch: full, normalized; "
                        "simp: full, reduced; cech: full, alternating; "
                        "gs: %s" % ", ".join(KINDS))
    p.add_argument("--object", default=None,
                   help="object whose algebra to use (hoch only)")
    p = sub.add_parser("hodge", help="Hodge components of the total complex")
    common(p)
    p.add_argument("--degree", type=int, required=True)
    p = sub.add_parser("deform", help="build and verify a twisted deformation")
    common(p)
    p.add_argument("--cocycle", required=True)
    p = sub.add_parser("equiv", help="decide equivalence of two deformations")
    common(p)
    p.add_argument("--defA", required=True)
    p.add_argument("--defB", required=True)
    p.add_argument("--cochain", required=True)
    p = sub.add_parser("compare-cech",
                       help="simplicial vs Cech cohomology with homotopy check")
    common(p)
    p.add_argument("--degree", type=int, required=True)
    p = sub.add_parser("descent-check", help="classify a descent datum")
    common(p)
    p.add_argument("--datum", required=True)
    p = sub.add_parser("factor",
                       help="lift Hodge components through restriction maps")
    common(p)
    p.add_argument("--cocycle", required=True)
    return parser


COMMANDS = {
    "check": cmd_check,
    "cohomology": cmd_cohomology,
    "hodge": cmd_hodge,
    "deform": cmd_deform,
    "equiv": cmd_equiv,
    "compare-cech": cmd_compare_cech,
    "descent-check": cmd_descent_check,
    "factor": cmd_factor,
}


def _usage_error(message):
    print(json.dumps({"error": message, "meta": _meta()}, indent=2,
                     sort_keys=True))
    return 2


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_usage(args)
        project = load_project(args.project)
    except SchemaError as exc:
        return _usage_error(str(exc))
    except (OSError, json.JSONDecodeError) as exc:
        return _usage_error("cannot read project: %s" % exc)
    try:
        return COMMANDS[args.command](project, args)
    except SchemaError as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
