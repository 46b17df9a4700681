"""Command-line interface.

Every command loads a single self-contained JSON project file, dispatches
to the library, and prints one deterministic JSON report on stdout.  This
module parses the arguments, checks --degree, --kind and --object, calls
the library and emits the report; `project` reads, checks and writes every
block of the file.  Exit
codes: 0 success, 1 verification failure (including an exact check of the
library that fails, reported with the name of its exception), 2
schema/usage error (a bad project, a negative --degree, a --kind the
complex does not have, a command on the total complex (`cohomology
--complex gs`, `hodge`, `deform`, `equiv`, `factor`) for a presheaf with
twists, or a Hodge command on an algebra that is not commutative), always
reported as JSON.  A reader that closes stdout early (`| head`) ends the
command without a traceback and with exit code 141, as SIGPIPE would.
Progress notes go to stderr unless --quiet is given.  Hodge degree n acts
by the total shuffle operators of QS_q for q <= n + 1, whose eigenspaces
are the Hodge summands; no Eulerian idempotent is built.
"""

import argparse
import json
import os
import sys

# only what every command needs; each command imports the modules it runs,
# so that a process loads and compiles no more than its command uses
from .linalg import (ACTION_CONVENTION, COMPLEX_KINDS, ComplexViolation,
                     NotASubcomplex, UsageError, VerificationFailed)
from .fincat import simplex_label
from .project import (load_project, SchemaError, SCHEMA, cochain_json,
                      deformation_json, matrix_json, vector_json)

IDEMPOTENT_CONSTRUCTION = ("lagrange-interpolation/total-signed-shuffle;"
                           + ACTION_CONVENTION)


def _emit(payload, code):
    payload = dict(payload)
    payload["meta"] = {"schema": SCHEMA,
                       "idempotents": IDEMPOTENT_CONSTRUCTION}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return code


def _progress(args, msg):
    if not args.quiet:
        print(msg, file=sys.stderr)


def _check_usage(args):
    """Reject a negative degree, and a --kind the chosen complex lacks."""
    if getattr(args, "degree", 0) < 0:
        raise SchemaError("--degree %d: expected a degree >= 0" % args.degree)
    if args.command == "cohomology" and args.kind is not None:
        kinds = COMPLEX_KINDS[args.complex]
        if args.kind not in kinds:
            raise SchemaError("--kind %s: expected one of %s for --complex %s"
                              % (args.kind, ", ".join(kinds), args.complex))


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
        from .hochschild import hh_algebra, regular_bimodule
        algebra = presheaf.algebras[obj]
        normalized = args.kind == "normalized"
        betti, reps = hh_algebra(algebra, regular_bimodule(algebra),
                                 args.degree, normalized=normalized)
        payload = {"complex": "hoch", "object": obj, "degree": args.degree,
                   "betti": betti,
                   "representatives": [matrix_json(r.matrix) for r in reps]}
        return _emit(payload, 0)
    if args.complex == "simp":
        from .simplicial import ModPresheaf, presheaf_cohomology
        betti, reps = presheaf_cohomology(ModPresheaf.of_algebras(presheaf),
                                          args.degree,
                                          reduced=(args.kind == "reduced"))
        payload = {"complex": "simp", "degree": args.degree, "betti": betti,
                   "representatives": [vector_json(r) for r in reps]}
        return _emit(payload, 0)
    if args.complex == "cech":
        poset = project.meet_poset()
        from .cech import CechComplex
        from .simplicial import ModPresheaf
        cx = CechComplex(ModPresheaf.of_algebras(presheaf), poset,
                         alternating=(args.kind != "full"))
        betti, reps = cx.cohomology(args.degree)
        payload = {"complex": "cech", "degree": args.degree, "betti": betti,
                   "alternating": args.kind != "full",
                   "representatives": [vector_json(r) for r in reps]}
        return _emit(payload, 0)
    # gs
    from .gs import GSComplex
    kind = args.kind or "full"
    gs = GSComplex(presheaf)
    _progress(args, "assembling total complex through degree %d"
              % (args.degree + 1))
    betti, reps = gs.cohomology(args.degree, kind)
    payload = {"complex": "gs", "degree": args.degree, "kind": kind,
               "betti": betti,
               "representatives": [cochain_json(r) for r in reps]}
    return _emit(payload, 0)


def cmd_hodge(project, args):
    from .gs import GSComplex
    gs = GSComplex(project.presheaf)
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
    triple = project.cochain(args.cocycle, "triple")
    from .deform import NotACocycle, deform
    try:
        defn = deform(project.presheaf, triple)
    except NotACocycle as exc:
        return _emit({"valid": False, "failures": list(exc.failures)}, 1)
    return _emit({"valid": True, "failures": [],
                  "deformation": deformation_json(defn.twisted)}, 0)


def cmd_equiv(project, args):
    triple_a = project.cochain(args.defA, "triple")
    triple_b = project.cochain(args.defB, "triple")
    pair = project.cochain(args.cochain, "pair")
    from .deform import NotACocycle, deform, equivalence
    from .gs import GSComplex
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
    poset = project.meet_poset()
    from .cech import compare_simp_cech
    from .simplicial import ModPresheaf
    f_presheaf = ModPresheaf.of_algebras(project.presheaf)
    report = compare_simp_cech(f_presheaf, poset, args.degree)
    ok = (report["simp_betti"] == report["cech_betti"] and
          report["pi_iota_identity"] and report["homotopy_identity"])
    payload = dict(report)
    payload["pi_iota_identity"] = "pass" if report["pi_iota_identity"] else "fail"
    payload["homotopy_identity"] = "pass" if report["homotopy_identity"] else "fail"
    return _emit(payload, 0 if ok else 1)


def cmd_descent_check(project, args):
    datum = project.datum(args.datum)
    from .descent import check_descent
    report = check_descent(datum)
    payload = {"classification": report["classification"],
               "failures": [list(f) for f in report["failures"]],
               "note": "verified on the finite-dimensional sample only"}
    return _emit(payload, 0 if report["classification"] != "invalid" else 1)


def cmd_factor(project, args):
    presheaf = project.presheaf
    triple = project.cochain(args.cocycle, "triple")
    from .gs import GSComplex, factor_through_restrictions
    gs = GSComplex(presheaf)
    gs.require_commutative()
    theta = triple.as_cochain(gs)
    parts = gs.hodge_split(theta)
    payload = {"degree": 2, "components": {}}
    ok = True
    for r in range(1, 3):
        comp = parts[r].component(2 - r, r)
        result = factor_through_restrictions(gs, 2 - r, r, comp)
        lifts = {simplex_label(k): {"matrix": matrix_json(v["matrix"]),
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
    p.add_argument("--complex", choices=tuple(COMPLEX_KINDS), required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--kind", default=None,
                   help="subcomplex selection, default the full complex "
                        "(alternating for cech): " + "; ".join(
                            "%s: %s" % (name, ", ".join(kinds))
                            for name, kinds in COMPLEX_KINDS.items()))
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


def main(argv=None):
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`gscohom ... | head`): nobody is
        # left to read a report.  Point stdout at the null device so that
        # the interpreter's final flush does not fail again, and exit as a
        # process killed by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13
    return code


def _run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_usage(args)
        project = load_project(args.project)
    except SchemaError as exc:
        return _emit({"error": str(exc)}, 2)
    except (OSError, json.JSONDecodeError) as exc:
        return _emit({"error": "cannot read project: %s" % exc}, 2)
    try:
        return COMMANDS[args.command](project, args)
    except (SchemaError, UsageError) as exc:
        return _emit({"error": str(exc)}, 2)
    except (VerificationFailed, ComplexViolation, NotASubcomplex) as exc:
        return _emit({"error": str(exc),
                      "failed_check": type(exc).__name__}, 1)


if __name__ == "__main__":
    sys.exit(main())
