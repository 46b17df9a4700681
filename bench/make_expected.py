"""Write bench/expected.json and cross-check it outside the timed path.

The values come from closed forms and hand-derived tables, not from the
code the benchmark measures:

  * diamond_mixed: the diamond has a top element T, so the GS complex of a
    presheaf on it computes HH^*(A(T)) = HH^*(Q[x]/(x^2)) = (2, 1, 1, ...);
  * v_poset_triangular: (1, 0, 0, 0);
  * the height-3 chain also has a top element with A = Q[x]/(x^2), so its
    normalized reduced H^0..H^2 is (2, 1, 1);
  * HH^3(Q[x]/(x^2)) = 1 for the one-object project;
  * the Cech comparison on the diamond: the poset has a terminal object, so
    presheaf cohomology is A(T) in degree 0 and vanishes above: (2, 0, 0);
  * Hodge at degree 4 on v_poset_commutative: components (0, 0, 2, 0, 0);
  * Hom_A(M, N) over A = Q[x]/(x^2) for M, N among A, the simple module Q,
    Q^2 with x acting by 0, and 0.

Every Betti number is then recomputed once with sympy's Matrix.rank, which
shares no elimination code with gscohom: b_n = dim C^n - rank d^n -
rank d^{n-1}, and a Hodge component is rank P_n - rank d P_n -
rank d P_{n-1} for the library's projector P.  The ladder is checked on
the presets and on a basis permuted by seed 1, which must leave every
Betti number unchanged.  Run from the repository root:

    python3 bench/make_expected.py
"""

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import sympy                                                    # noqa: E402

import workloads                                                # noqa: E402
from gscohom import presets                                     # noqa: E402
from gscohom.gs import GSComplex                                # noqa: E402

HOM_DIMS = {
    "free": {"free": 2, "triv": 1, "two": 2, "zero": 0},
    "triv": {"free": 1, "triv": 1, "two": 2, "zero": 0},
    "two": {"free": 2, "triv": 2, "two": 4, "zero": 0},
    "zero": {"free": 0, "triv": 0, "two": 0, "zero": 0},
}

EXPECTED = {
    "gs_ladder": {
        "v_poset_triangular": [1, 0, 0, 0],
        "diamond_mixed": [2, 1, 1, 1, 1, 1],
    },
    "hodge": {
        "degree": 4,
        "max_n": 5,
        "components": [0, 0, 2, 0, 0],
        "total": 2,
        "h2_normalized_reduced": 2,
    },
    "descent_deform": {
        "chain_normalized_reduced": [2, 1, 1],
        "chain_gauge_twists": 2,
        "cover_morphisms": 6,
        "candidates": 12,
        "hom_dims": HOM_DIMS,
    },
    "cli_demo": {
        "check": {"exit": 0, "fields": {"valid": True}},
        "gs_h2_nr": {"exit": 0, "fields": {"betti": 2}},
        "hoch_h3": {"exit": 0, "fields": {"betti": 1}},
        "hodge_2": {"exit": 0, "fields": {"total_betti": 2,
                                          "betti_additivity": True}},
        "hodge_3": {"exit": 0, "fields": {"betti_additivity": True}},
        "deform_rep": {"exit": 0, "fields": {"valid": True}},
        "deform_perturbed": {"exit": 1, "fields": {"valid": False}},
        "equiv": {"exit": 0, "fields": {"isomorphism": True}},
        "compare_cech": {"exit": 0, "fields": {
            "simp_betti": [2, 0, 0], "cech_betti": [2, 0, 0],
            "pi_iota_identity": "pass", "homotopy_identity": "pass"}},
        "descent_structure": {"exit": 0,
                              "fields": {"classification": "descent"}},
        "descent_naive": {"exit": 1,
                          "fields": {"classification": "invalid"}},
        "factor": {"exit": 0, "present": ["components"]},
        "gs_h4_diamond": {"exit": 0, "fields": {"betti": 1}},
        "schema_error": {"exit": 2, "present": ["error"]},
    },
}


def sym(mat):
    out = sympy.zeros(mat.rows, mat.cols)
    for (i, j), v in mat.items():
        out[i, j] = sympy.Rational(v.numerator, v.denominator)
    return out


def rank(mat):
    return sym(mat).rank() if mat.rows and mat.cols else 0


def betti_numbers(presheaf, top):
    gs = GSComplex(presheaf)
    ranks = [rank(gs.differential(n)) for n in range(top + 1)]
    return [gs.dim(n) - ranks[n] - (ranks[n - 1] if n else 0)
            for n in range(top + 1)]


def hodge_components(presheaf, deg):
    gs = GSComplex(presheaf)
    out = []
    for r in range(deg + 1):
        p_n = gs.hodge_projector(deg, r)
        image = rank(gs.differential(deg - 1) @ gs.hodge_projector(deg - 1, r))
        out.append(rank(p_n) - rank(gs.differential(deg) @ p_n) - image)
    return out


def check(what, got, expected):
    status = "ok" if got == expected else "MISMATCH"
    print(f"{status:8} {what}: sympy {got}, expected {expected}", flush=True)
    if got != expected:
        raise SystemExit(1)


def main():
    exp = EXPECTED
    for name, betti in exp["gs_ladder"].items():
        base = getattr(presets, name)()
        check(f"{name} H^0..", betti_numbers(base, len(betti) - 1), betti)
        shuffled = workloads.permuted(base, random.Random(1))
        check(f"{name} H^0.. (permuted basis)",
              betti_numbers(shuffled, len(betti) - 1), betti)
    vpc = presets.v_poset_commutative()
    h = exp["hodge"]
    check("v_poset_commutative H^2, H^4",
          [betti_numbers(vpc, 4)[n] for n in (2, 4)],
          [h["h2_normalized_reduced"], h["total"]])
    check("Hodge components at degree 4", hodge_components(vpc, 4),
          h["components"])
    check("chain H^0..H^2", betti_numbers(workloads.chain_presheaf(), 2),
          exp["descent_deform"]["chain_normalized_reduced"])
    cli = exp["cli_demo"]
    hodge2 = hodge_components(vpc, 2)
    hodge3 = hodge_components(vpc, 3)
    total3 = betti_numbers(vpc, 3)[3]
    check("Hodge components at degree 2 sum to H^2", sum(hodge2),
          cli["hodge_2"]["fields"]["total_betti"])
    check("Hodge components at degree 3 sum to H^3", sum(hodge3), total3)
    cli["hodge_2"]["fields"]["components"] = hodge2
    cli["hodge_3"]["fields"]["components"] = hodge3
    cli["hodge_3"]["fields"]["total_betti"] = total3
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(exp, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
