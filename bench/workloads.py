"""The benchmark's four workloads.

Each workload builds its inputs once from the seed (that is the set-up the
benchmark times), then hands out a fresh, fixed list of jobs for every pass.
A job is one call into gscohom's public API, or one `python -m gscohom.cli`
subprocess, together with a check of its output that runs after the job's
timer stops.  Checks compare invariants (Betti numbers, Hodge components,
verdicts, classifications) with bench/expected.json and test
representatives by property: each is a cocycle, and together they are
independent modulo the image.  Representatives are never compared byte for
byte, so a change of pivot order stays legal.

Why each workload exists is recorded in bench/NOTES.md.
"""

import functools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
PROJECTS = ROOT / "demos" / "projects"
EXPECTED_PATH = BENCH / "expected.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from gscohom import presets                                     # noqa: E402
from gscohom.algebra import FinAlgebra, FinModule               # noqa: E402
from gscohom.deform import (NotACocycle, EquivalencePair,       # noqa: E402
                            deform, deformation_from_cochain)
from gscohom.descent import (DescentMachine, canonical_free_datum,  # noqa: E402
                             check_descent, pointwise_cokernel,
                             pointwise_kernel, q_functor_hom_check,
                             verify_pseudonatural)
from gscohom.fincat import poset_category                       # noqa: E402
from gscohom.gs import GSComplex, factor_through_restrictions   # noqa: E402
from gscohom.linalg import RatMatrix                            # noqa: E402
from gscohom.presheaf import strict_presheaf                    # noqa: E402
from gscohom.shuffles import GroupAlgebraElement, eulerian_idempotents  # noqa: E402

NAMES = ("gs_ladder", "hodge", "descent_deform", "cli_demo")

# a 61-bit prime for the independence certificate of representatives
PRIME = 2 ** 61 - 1


class CheckFailed(Exception):
    """A job returned a wrong invariant."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


class Job:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def load_expected(path=EXPECTED_PATH):
    with open(path) as fh:
        return json.load(fh)


# -- seeded inputs


def permute_algebra(a, pi):
    """The same algebra on the reordered basis e'_i = e_{pi[i]}."""
    def re(vec):
        return [vec[pi[k]] for k in range(a.dim)]
    mult = [[re(a.mult[pi[i]][pi[j]]) for j in range(a.dim)]
            for i in range(a.dim)]
    return FinAlgebra(a.dim, mult, re(a.unit), name=a.name)


def permuted(presheaf, rng):
    """A strict presheaf isomorphic to `presheaf`, each algebra's basis
    reordered by a permutation drawn from rng.  Betti numbers are invariant;
    pivot order and fill-in are not."""
    perms, mats = {}, {}
    for obj in presheaf.category.objects:
        dim = presheaf.algebras[obj].dim
        perms[obj] = rng.sample(range(dim), dim)
        mats[obj] = RatMatrix(dim, dim, {(k, perms[obj][k]): 1
                                         for k in range(dim)})
    algebras = {o: permute_algebra(a, perms[o])
                for o, a in presheaf.algebras.items()}
    restrictions = {}
    for name, m in presheaf.category.morphisms.items():
        restrictions[name] = (mats[m.source] @ presheaf.restrictions[name]
                              @ mats[m.target].transpose())
    return strict_presheaf(presheaf.category, algebras, restrictions)


def chain_presheaf():
    """The height-3 chain c0 < c1 < c2 < c3: Q at the bottom, Q[x]/(x^2)
    above, restrictions the quotient and identities."""
    cat = poset_category(["c0", "c1", "c2", "c3"],
                         [("c0", "c1"), ("c1", "c2"), ("c2", "c3")])
    dn, q = presets.dual_numbers(), presets.rationals()
    algebras = {"c0": q, "c1": dn, "c2": dn, "c3": dn}
    restr = {}
    for name, m in cat.morphisms.items():
        if m.source == m.target:
            restr[name] = RatMatrix.identity(algebras[m.source].dim)
        elif algebras[m.source].dim == 1:
            restr[name] = RatMatrix.from_rows([[1, 0]])
        else:
            restr[name] = RatMatrix.identity(2)
    return strict_presheaf(cat, algebras, restr)


def two_point_cover():
    """Q x Q on the wings of the V poset, restricting to Q by the value at
    the second point."""
    cat = presets.v_poset().category
    qq, q = presets.two_points(), presets.rationals()
    algebras = {"U0": qq, "U1": qq, "U01": q}
    restr = {name: RatMatrix.identity(algebras[m.source].dim)
             if m.source == m.target else RatMatrix.from_rows([[1, 1]])
             for name, m in cat.morphisms.items()}
    return strict_presheaf(cat, algebras, restr)


# -- independent output checks


def _mod_p(x):
    return x.numerator * pow(x.denominator, -1, PRIME) % PRIME


def rank_mod_p(columns):
    """Rank over GF(PRIME) of the given sparse columns ({row: Fraction})."""
    basis = {}
    for col in columns:
        v = {i: _mod_p(x) for i, x in col.items() if x}
        v = {i: x for i, x in v.items() if x}
        while v:
            piv = min(v)
            if piv not in basis:
                inv = pow(v[piv], -1, PRIME)
                basis[piv] = {i: x * inv % PRIME for i, x in v.items()}
                break
            f = v[piv]
            for i, x in basis[piv].items():
                y = (v.get(i, 0) - f * x) % PRIME
                if y:
                    v[i] = y
                else:
                    v.pop(i, None)
    return len(basis)


def check_representatives(gs, n, reps):
    """Each representative is a cocycle of the full complex (exactly), and
    they are independent modulo the image of d^{n-1} (by rank over a large
    prime field)."""
    vecs = [gs.flatten_cochain(r) for r in reps]
    d_out = gs.differential(n)
    for v in vecs:
        acc = {}
        for (i, j), x in d_out.items():
            if v[j]:
                acc[i] = acc.get(i, 0) + x * v[j]
        require(not any(acc.values()), f"H^{n} representative is no cocycle")
    image = []
    if n >= 1:
        cols = {}
        for (i, j), x in gs.differential(n - 1).items():
            cols.setdefault(j, {})[i] = x
        image = list(cols.values())
    rep_cols = [{i: x for i, x in enumerate(v) if x} for v in vecs]
    require(rank_mod_p(image + rep_cols) == rank_mod_p(image) + len(reps),
            f"H^{n} representatives are dependent modulo the image")


def check_cohomology(gs, n, betti, result):
    got, reps = result
    require(got == betti, f"H^{n} betti {got}, expected {betti}")
    require(len(reps) == betti, f"H^{n}: {len(reps)} representatives")
    check_representatives(gs, n, reps)


def check_equal(expected, what, result):
    require(result == expected, f"{what}: {result!r}, expected {expected!r}")


# -- workloads


class GSLadder:
    """Full-kind GS cohomology sweeps on one GSComplex per fixture, plus the
    normalized reduced kind at each top degree."""

    def __init__(self, seed, expected):
        rng = random.Random(seed)
        self.expected = expected["gs_ladder"]
        self.fixtures = [(name, permuted(getattr(presets, name)(), rng))
                         for name in ("v_poset_triangular", "diamond_mixed")]

    def reset(self):
        pass

    def jobs(self, traced):
        out = []
        for name, presheaf in self.fixtures:
            gs = GSComplex(presheaf)
            betti = self.expected[name]
            top = len(betti) - 1
            for n in range(top + 1):
                out.append(Job(f"{name}.H{n}",
                               functools.partial(gs.cohomology, n),
                               functools.partial(check_cohomology, gs, n,
                                                 betti[n])))
            out.append(Job(f"{name}.H{top}.normalized_reduced",
                           functools.partial(gs.cohomology, top,
                                             "normalized_reduced"),
                           functools.partial(check_cohomology, gs, top,
                                             betti[top])))
        return out


def clear_idempotent_cache():
    """Make every pass build the Eulerian idempotents cold, as a fresh
    process does."""
    from gscohom import shuffles
    shuffles._idempotent_cache.clear()


class Hodge:
    """`hodge --degree 4` on v_poset_commutative, and `factor` on every
    normalized reduced H^2 representative."""

    def __init__(self, seed, expected):
        rng = random.Random(seed)
        self.expected = expected["hodge"]
        self.presheaf = permuted(presets.v_poset_commutative(), rng)

    def reset(self):
        clear_idempotent_cache()

    def jobs(self, traced):
        exp = self.expected
        deg = exp["degree"]
        gs = GSComplex(self.presheaf)
        state = {}

        def idempotents():
            return [eulerian_idempotents(n) for n in range(1, exp["max_n"] + 1)]

        def check_idempotents(families):
            for n, family in enumerate(families, start=1):
                require(len(family) == n, f"{len(family)} idempotents in QS_{n}")
                total = GroupAlgebraElement.zero(n)
                for e in family:
                    total = total + e
                require(total == GroupAlgebraElement.one(n),
                        f"idempotents of QS_{n} do not sum to 1")

        def check_total(total):
            check_equal(exp["total"], f"total H^{deg}", total)

        def nr2():
            state["reps"] = gs.cohomology(2, "normalized_reduced")
            return state["reps"]

        def factor(k):
            rep = state["reps"][1][k]
            parts = gs.hodge_split(rep)
            return [factor_through_restrictions(gs, 2 - r, r,
                                                parts[r].component(2 - r, r))
                    for r in (1, 2)]

        def check_factor(results):
            for res in results:
                require(not res["failures"], f"factor: {res['failures']}")

        out = [Job("idempotents", idempotents, check_idempotents)]
        for r in range(deg + 1):
            out.append(Job(f"stability.r{r}",
                           functools.partial(gs.check_hodge_stability, deg, r),
                           functools.partial(check_equal, True,
                                             f"stability r={r}")))
            out.append(Job(f"betti.r{r}",
                           functools.partial(gs.hodge_cohomology, deg, r),
                           functools.partial(check_equal,
                                             exp["components"][r],
                                             f"Hodge component r={r}")))
        out.append(Job(f"total.H{deg}",
                       lambda: gs.cohomology(deg, "full")[0], check_total))
        out.append(Job("H2.normalized_reduced", nr2,
                       functools.partial(check_cohomology, gs, 2,
                                         exp["h2_normalized_reduced"])))
        for k in range(exp["h2_normalized_reduced"]):
            out.append(Job(f"factor.{k}", functools.partial(factor, k),
                           check_factor))
        return out


def _dual_number_modules():
    dn = presets.dual_numbers()
    return dn, {
        "free": FinModule.free(dn),
        "triv": FinModule(dn, 1, [RatMatrix.identity(1), RatMatrix.zeros(1, 1)]),
        "two": FinModule(dn, 2, [RatMatrix.identity(2), RatMatrix.zeros(2, 2)]),
        "zero": FinModule.zero(dn),
    }


class DescentDeform:
    """The descent and deformation pipeline on small algebras: thousands
    of tiny eliminations and many repeated tensor quotients."""

    def __init__(self, seed, expected):
        rng = random.Random(seed)
        self.expected = expected["descent_deform"]
        exp = self.expected
        self.chain = chain_presheaf()
        self.fixtures = presets.standard_fixtures()
        self.twisted, self.twist_x = presets.twisted_diamond()
        self.cover = two_point_cover()
        self.v_poset = presets.v_poset_commutative()
        # morphisms over the cover: multiplication by a matching family of
        # sections, values (s0, t) on U0 and (s1, t) on U1
        self.sections = [tuple(F(rng.randint(-2, 2)) for _ in range(3))
                         for _ in range(exp["cover_morphisms"])]
        # candidate triples: rational combinations of the H^2
        # representatives, half of them pushed off the cocycle space along a
        # normalized reduced coordinate that d^2 does not kill
        gs = GSComplex(self.v_poset)
        _, reps = gs.cohomology(2, "normalized_reduced")
        rep_vecs = [gs.flatten_cochain(r) for r in reps]
        d2 = gs.differential(2)
        live = sorted({j for (_, j), _ in d2.items()}
                      & set(gs.kept_coordinates("normalized_reduced", 2)))
        flags = [k % 2 == 0 for k in range(exp["candidates"])]
        rng.shuffle(flags)
        self.candidates = []
        for perturbed in flags:
            vec = [F(0)] * gs.dim(2)
            for rv in rep_vecs:
                c = F(rng.randint(-3, 3), rng.randint(1, 3))
                vec = [a + c * b for a, b in zip(vec, rv)]
            if perturbed:
                vec[rng.choice(live)] += F(rng.choice([-2, -1, 1, 2]),
                                           rng.randint(1, 3))
            triple = deformation_from_cochain(
                self.v_poset, gs.unflatten_cochain(2, tuple(vec)))
            self.candidates.append((triple, perturbed))

    def reset(self):
        pass

    def jobs(self, traced):
        exp = self.expected
        out = []
        out.extend(self._chain_jobs())
        for name, p in sorted(self.fixtures.items()):
            out.append(Job(f"free_datum.{name}",
                           functools.partial(self._classify, p, None),
                           functools.partial(check_equal, "descent",
                                             f"free datum on {name}")))
        out.append(Job("free_datum.twisted_diamond",
                       functools.partial(self._classify, self.twisted,
                                         self.twist_x),
                       functools.partial(check_equal, "descent",
                                         "corrected twisted free datum")))
        out.append(Job("naive_datum.twisted_diamond",
                       functools.partial(self._classify, self.twisted, None),
                       functools.partial(check_equal, "invalid",
                                         "naive twisted free datum")))
        cover_machine = DescentMachine(self.cover)
        cover_free = canonical_free_datum(cover_machine)
        for k, values in enumerate(self.sections):
            out.append(Job(f"cover.{k}",
                           functools.partial(self._kernel_cokernel,
                                             cover_free, values),
                           functools.partial(self._check_kernel_cokernel,
                                             values)))
        machine = DescentMachine(self.v_poset)
        _, modules = _dual_number_modules()
        for a in modules:
            out.append(Job(f"q_hom.{a}",
                           functools.partial(self._q_hom, machine, modules, a),
                           functools.partial(check_equal, exp["hom_dims"][a],
                                             f"hom dimensions from {a}")))
        out.append(Job("pseudonatural.strict", self._pseudo_strict,
                       self._check_pseudo))
        out.append(Job("pseudonatural.twisted", self._pseudo_twisted,
                       self._check_pseudo))
        gs = GSComplex(self.v_poset)
        for k, (triple, perturbed) in enumerate(self.candidates):
            out.append(Job(f"candidate.{k}",
                           functools.partial(self._verdict, triple, gs),
                           functools.partial(check_equal,
                                             "rejected" if perturbed
                                             else "deformation",
                                             f"candidate {k}")))
        return out

    # chain pipeline: one GSComplex shared by its jobs, as a user would
    def _chain_jobs(self):
        p = self.chain
        gs = GSComplex(p)
        nr = self.expected["chain_normalized_reduced"]
        state = {}

        def cohomology(n):
            state[n] = gs.cohomology(n, "normalized_reduced")
            return state[n]

        def deform_rep(k):
            rep = state[2][1][k]
            return deform(p, deformation_from_cochain(p, rep), gs=gs)

        def gauge():
            algebras = p.algebras
            cat = p.category
            x1 = {name: (F(0),) * algebras[m.source].dim
                  for name, m in cat.morphisms.items()}
            x1["c1->c2"] = (F(1), F(0))
            pair = EquivalencePair(p, {}, {u: tuple(-c for c in v)
                                           for u, v in x1.items()})
            theta = gs.d(pair.as_cochain(gs))
            state["gauge"] = deform(p, deformation_from_cochain(p, theta),
                                    gs=gs)
            state["triv"] = {name: tuple(algebras[m.source].unit) + x1[name]
                             for name, m in cat.morphisms.items()}
            return len(state["gauge"].twisted.twists)

        def free_datum():
            machine = DescentMachine(state["gauge"].twisted)
            datum = canonical_free_datum(machine, trivialization=state["triv"])
            return check_descent(datum)["classification"]

        def pseudo():
            twisted = state["gauge"].twisted
            samples = {o: [FinModule.free(twisted.algebras[o])]
                       for o in p.category.objects}
            return verify_pseudonatural(DescentMachine(twisted), samples)

        out = [Job(f"chain.H{n}.normalized_reduced",
                   functools.partial(cohomology, n),
                   functools.partial(check_cohomology, gs, n, nr[n]))
               for n in range(len(nr))]
        out += [Job(f"chain.deform.{k}", functools.partial(deform_rep, k),
                    lambda d: require(d.twisted is not None, "no deformation"))
                for k in range(nr[2])]
        out.append(Job("chain.gauge", gauge,
                       functools.partial(check_equal,
                                         self.expected["chain_gauge_twists"],
                                         "gauge twists")))
        out.append(Job("chain.free_datum", free_datum,
                       functools.partial(check_equal, "descent",
                                         "chain free datum")))
        out.append(Job("chain.pseudonatural", pseudo, self._check_pseudo))
        return out

    @staticmethod
    def _classify(presheaf, trivialization):
        machine = DescentMachine(presheaf)
        datum = canonical_free_datum(machine, trivialization=trivialization)
        return check_descent(datum)["classification"]

    def _kernel_cokernel(self, free, values):
        cover = self.cover
        s0, s1, t = values
        a0, a1 = (s0, t - s0), (s1, t - s1)
        comps = {
            "U0": cover.algebras["U0"].left_mult_matrix(a0),
            "U1": cover.algebras["U1"].left_mult_matrix(a1),
            "U01": cover.algebras["U01"].left_mult_matrix(
                cover.restrictions["U01->U0"].apply(a0)),
        }
        ker = pointwise_kernel(free, free, comps)
        cok = pointwise_cokernel(free, free, comps)
        return [(check_descent(d)["classification"],
                 {o: m.dim for o, m in d.modules.items()}) for d in (ker, cok)]

    @staticmethod
    def _check_kernel_cokernel(values, result):
        # multiplication by a section of Q x Q is diagonal in the point
        # values: its kernel and cokernel have one dimension per zero value
        s0, s1, t = values
        dims = {"U0": (s0 == 0) + (t == 0), "U1": (s1 == 0) + (t == 0),
                "U01": int(t == 0)}
        for classification, got in result:
            require(classification == "descent", classification)
            require(got == dims, f"kernel/cokernel dims {got}, expected {dims}")

    @staticmethod
    def _q_hom(machine, modules, a):
        out = {}
        for b, mod_b in modules.items():
            presheaf_dim, module_dim = q_functor_hom_check(
                machine, "U0", modules[a], mod_b)
            require(presheaf_dim == module_dim,
                    f"Q-functor hom {a}->{b}: {presheaf_dim} != {module_dim}")
            out[b] = module_dim
        return out

    def _pseudo_strict(self):
        p = self.v_poset
        dn = p.algebras["U0"]
        samples = {
            "U0": [FinModule.free(dn),
                   FinModule(dn, 1, [RatMatrix.identity(1),
                                     RatMatrix.zeros(1, 1)])],
            "U1": [FinModule.free(dn)],
            "U01": [FinModule.free(p.algebras["U01"])],
        }
        return verify_pseudonatural(DescentMachine(p), samples)

    def _pseudo_twisted(self):
        samples = {o: [FinModule.free(self.twisted.algebras[o])]
                   for o in self.twisted.category.objects}
        return verify_pseudonatural(DescentMachine(self.twisted), samples)

    @staticmethod
    def _check_pseudo(report):
        require(report["checked"] > 0 and not report["failures"],
                f"pseudonaturality: {report['checked']} checked, "
                f"failures {report['failures'][:3]}")

    def _verdict(self, triple, gs):
        try:
            deform(self.v_poset, triple, gs=gs)
        except NotACocycle:
            return "rejected"
        return "deformation"


# every CLI command in the README, plus the heavier demo commands;
# (name, arguments after --quiet)
CLI_COMMANDS = [
    ("check", ["check", "--project", "v_poset.json"]),
    ("gs_h2_nr", ["cohomology", "--project", "v_poset.json", "--complex", "gs",
                  "--degree", "2", "--kind", "normalized_reduced"]),
    ("hoch_h3", ["cohomology", "--project", "one_object.json",
                 "--complex", "hoch", "--degree", "3"]),
    ("hodge_2", ["hodge", "--project", "v_poset.json", "--degree", "2"]),
    ("hodge_3", ["hodge", "--project", "v_poset.json", "--degree", "3"]),
    ("deform_rep", ["deform", "--project", "v_poset.json",
                    "--cocycle", "rep_cocycle"]),
    ("deform_perturbed", ["deform", "--project", "v_poset.json",
                          "--cocycle", "perturbed"]),
    ("equiv", ["equiv", "--project", "v_poset.json", "--defA", "rep_cocycle",
               "--defB", "rep_cocycle", "--cochain", "gauge"]),
    ("compare_cech", ["compare-cech", "--project", "diamond.json",
                      "--degree", "2"]),
    ("descent_structure", ["descent-check", "--project",
                           "twisted_diamond.json", "--datum", "structure"]),
    ("descent_naive", ["descent-check", "--project", "twisted_diamond.json",
                       "--datum", "naive"]),
    ("factor", ["factor", "--project", "v_poset.json",
                "--cocycle", "rep_cocycle"]),
    ("gs_h4_diamond", ["cohomology", "--project", "diamond.json",
                       "--complex", "gs", "--degree", "4"]),
    ("schema_error", ["deform", "--project", "one_object.json",
                      "--cocycle", "no_such_cocycle"]),
]

TRACED_CLI = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
              "import tracer; sys.exit(tracer.main_cli())")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("GSD_IDEMPOTENT_BOUND", None)
    return env


class CliDemo:
    """Every README command as its own `python -m gscohom.cli --quiet`
    process; the seed fixes the order of the commands."""

    def __init__(self, seed, expected):
        self.expected = expected["cli_demo"]
        self.commands = []
        for name, args in CLI_COMMANDS:
            args = [str(PROJECTS / a) if a.endswith(".json") else a
                    for a in args]
            self.commands.append((name, args))
        for _, args in self.commands:
            path = args[args.index("--project") + 1]
            with open(path) as fh:
                json.load(fh)
        random.Random(seed).shuffle(self.commands)
        self.env = child_env()
        self.summaries = []

    def reset(self):
        self.summaries = []

    def jobs(self, traced):
        return [Job(name, functools.partial(self._run, args, traced),
                    functools.partial(self._check, name))
                for name, args in self.commands]

    def _run(self, args, traced):
        if traced:
            cmd = [sys.executable, "-c", TRACED_CLI, str(BENCH), "--quiet"]
        else:
            cmd = [sys.executable, "-m", "gscohom.cli", "--quiet"]
        proc = subprocess.run(cmd + args, cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)
        if traced and proc.stderr.strip():
            self.summaries.append(
                json.loads(proc.stderr.strip().splitlines()[-1]))
        return proc.returncode, proc.stdout

    def _check(self, name, result):
        code, stdout = result
        exp = self.expected[name]
        require(code == exp["exit"], f"{name}: exit {code}, expected "
                f"{exp['exit']}")
        payload = json.loads(stdout)
        for key, value in exp.get("fields", {}).items():
            got = payload.get(key)
            if key == "components":
                got = [got[str(r)]["betti"] for r in range(len(got))]
                require(all(c["stable"] for c in payload[key].values()),
                        f"{name}: unstable Hodge component")
            require(got == value, f"{name}: {key} = {got!r}, expected {value!r}")
        for key in exp.get("present", []):
            require(key in payload, f"{name}: no {key} in the report")


WORKLOADS = {"gs_ladder": GSLadder, "hodge": Hodge,
             "descent_deform": DescentDeform, "cli_demo": CliDemo}


def build(name, seed, expected=None):
    """Generate one workload's inputs from the seed."""
    return WORKLOADS[name](seed, expected or load_expected())


def probe_main():
    """Set-up probe: build the inputs, say so, exit."""
    build(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
