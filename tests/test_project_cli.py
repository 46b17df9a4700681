import ast
import json
import os
import subprocess
import sys

import pytest

from gscohom.project import (load_project, SchemaError, SCHEMA, parse_rat,
                             rat_str, algebra_json)
from gscohom.cli import main as cli_main
from gscohom import presets
from oracles import project_json

HERE = os.path.dirname(os.path.abspath(__file__))
PROJECTS = os.path.join(HERE, "..", "demos", "projects")


def project_path(name):
    return os.path.join(PROJECTS, name)


def minimal_project():
    p = presets.v_poset_commutative()
    return project_json(
        {"objects": ["U0", "U1", "U01"],
         "relations": [["U01", "U0"], ["U01", "U1"]]},
        {"dn": presets.dual_numbers(), "q": presets.rationals()},
        p, {"U0": "dn", "U1": "dn", "U01": "q"})


def test_rational_round_trip():
    assert parse_rat("3/4") == parse_rat("6/8")
    assert rat_str(parse_rat("-3/4")) == "-3/4"
    assert rat_str(parse_rat("5")) == "5"
    with pytest.raises(SchemaError):
        parse_rat("x", "/here")
    with pytest.raises(SchemaError):
        parse_rat("1/0")


def test_load_minimal_project():
    proj = load_project(minimal_project())
    assert proj.presheaf.is_valid()
    assert proj.poset is not None
    assert proj.poset.meet("U0", "U1") == "U01"


def test_schema_violations():
    raw = minimal_project()
    raw.pop("presheaf")
    with pytest.raises(SchemaError):
        load_project(raw)
    raw = minimal_project()
    raw["schema"] = "something-else"
    with pytest.raises(SchemaError):
        load_project(raw)
    raw = minimal_project()
    raw["presheaf"]["restrictions"]["U01->U0"] = [["1"]]  # wrong shape
    with pytest.raises(SchemaError):
        load_project(raw)
    raw = minimal_project()
    raw["algebras"]["dn"]["mult"].append([0, 0, ["1", "0"]])  # duplicate
    with pytest.raises(SchemaError):
        load_project(raw)


def test_explicit_category_block():
    # a category given by an explicit composition table (not a poset)
    raw = {
        "schema": SCHEMA,
        "category": {
            "objects": ["pt"],
            "morphisms": [{"name": "id", "source": "pt", "target": "pt"}],
            "composition": {"id;id": "id"},
            "identities": {"pt": "id"},
        },
        "algebras": {"dn": algebra_json(presets.dual_numbers(), ["1", "x"])},
        "presheaf": {"algebras": {"pt": "dn"},
                     "restrictions": {"id": [["1", "0"], ["0", "1"]]}},
    }
    proj = load_project(raw)
    assert proj.presheaf.is_valid()
    assert proj.poset is None


def test_twist_key_spellings():
    # both "u;v" and "(u,v)" name a composable pair
    raw = minimal_project()
    ident = "U01->U01"
    raw["presheaf"]["twists"] = {"(%s,%s)" % (ident, ident): ["1"]}
    proj = load_project(raw)
    assert proj.presheaf.twists[(ident, ident)] == (parse_rat("1"),)


def test_loader_rebases_units():
    # Q x Q presented with the idempotent basis: unit (1, 1)
    raw = minimal_project()
    raw["algebras"]["qq"] = {
        "basis": ["p1", "p2"],
        "mult": [[0, 0, ["1", "0"]], [1, 1, ["0", "1"]]],
        "unit": ["1", "1"],
    }
    raw["presheaf"]["algebras"]["U0"] = "qq"
    raw["presheaf"]["restrictions"]["U01->U0"] = [["1", "0"]]  # first point
    proj = load_project(raw)
    assert proj.presheaf.is_valid()
    assert proj.presheaf.algebras["U0"].unit_index() is not None


def run_cli(args):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(args)
    return code, buf.getvalue()


def test_cli_check_ok():
    code, out = run_cli(["check", "--project", project_path("v_poset.json")])
    payload = json.loads(out)
    assert code == 0 and payload["valid"]
    assert payload["meta"]["schema"] == SCHEMA
    assert "idempotents" in payload["meta"]


def test_cli_schema_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope"}))
    code, out = run_cli(["check", "--project", str(bad)])
    assert code == 2
    assert "error" in json.loads(out)
    code2, _ = run_cli(["check", "--project", str(tmp_path / "absent.json")])
    assert code2 == 2


@pytest.mark.parametrize("args", [
    ["check"], ["cohomology", "--complex", "simp", "--degree", "0"]])
def test_cli_repeated_object_is_a_schema_error(tmp_path, args):
    # listed twice, U0 would be a second 0-simplex: H^0 would read 5, not 3
    with open(project_path("v_poset.json")) as fh:
        raw = json.load(fh)
    raw["category"]["objects"].append("U0")
    bad = tmp_path / "repeated.json"
    bad.write_text(json.dumps(raw))
    code, out = run_cli(args + ["--project", str(bad)])
    assert code == 2
    assert json.loads(out)["error"] == \
        "/category/objects/3: 'U0' is listed twice"
    code, out = run_cli(["cohomology", "--complex", "simp", "--degree", "0",
                         "--project", project_path("v_poset.json")])
    assert code == 0 and json.loads(out)["betti"] == 3


def test_cli_deterministic_output():
    args = ["--quiet", "cohomology", "--project", project_path("v_poset.json"),
            "--complex", "gs", "--degree", "2", "--kind",
            "normalized_reduced"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_subprocess_byte_identical():
    cmd = [sys.executable, "-m", "gscohom.cli", "--quiet", "cohomology",
           "--project", project_path("v_poset.json"),
           "--complex", "hoch", "--degree", "2"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(HERE, "..", "src")
    a = subprocess.run(cmd, capture_output=True, env=env)
    b = subprocess.run(cmd, capture_output=True, env=env)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_cli_deform_verdicts():
    code, out = run_cli(["deform", "--project", project_path("v_poset.json"),
                         "--cocycle", "rep_cocycle"])
    payload = json.loads(out)
    assert code == 0 and payload["valid"]
    assert "deformation" in payload
    code, out = run_cli(["deform", "--project", project_path("v_poset.json"),
                         "--cocycle", "perturbed"])
    payload = json.loads(out)
    assert code == 1 and not payload["valid"]
    assert payload["failures"]


def test_cli_deform_refuses_a_twist_at_arrows_that_do_not_compose(
        tmp_path):
    # U01->U0 ends at U0 and U01->U1 starts at U01: no 2-simplex, so the
    # block is a schema error, not a twist the deformation ignores
    with open(project_path("v_poset.json")) as fh:
        raw = json.load(fh)
    raw["cochains"]["rep_cocycle"]["c1"] = {"U01->U0;U01->U1": ["5"]}
    project = tmp_path / "project.json"
    project.write_text(json.dumps(raw))
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, "..", "src"))
    done = subprocess.run([sys.executable, "-m", "gscohom.cli", "deform",
                           "--project", str(project), "--cocycle",
                           "rep_cocycle"], capture_output=True, text=True,
                          env=env)
    assert done.returncode == 2, done.stderr
    assert json.loads(done.stdout)["error"].startswith(
        "/cochains/rep_cocycle/c1/U01->U0;U01->U1: ")
    assert done.stderr == ""


def test_cli_equiv():
    code, out = run_cli(["equiv", "--project", project_path("v_poset.json"),
                         "--defA", "rep_cocycle", "--defB", "rep_cocycle",
                         "--cochain", "gauge"])
    payload = json.loads(out)
    assert code == 0 and payload["isomorphism"]


def test_cli_compare_cech():
    code, out = run_cli(["compare-cech", "--project",
                         project_path("diamond.json"), "--degree", "2"])
    payload = json.loads(out)
    assert code == 0
    assert payload["simp_betti"] == payload["cech_betti"]
    assert payload["homotopy_identity"] == "pass"


def test_cli_descent_check():
    code, out = run_cli(["descent-check", "--project",
                         project_path("twisted_diamond.json"),
                         "--datum", "structure"])
    assert code == 0
    assert json.loads(out)["classification"] == "descent"
    code, out = run_cli(["descent-check", "--project",
                         project_path("twisted_diamond.json"),
                         "--datum", "naive"])
    assert code == 1
    assert json.loads(out)["classification"] == "invalid"


def test_cli_hodge_and_bound():
    # no Hodge degree is bounded: degree 7 runs as degree 2 does
    for degree in (2, 7):
        code, out = run_cli(["hodge", "--project",
                             project_path("v_poset.json"), "--degree",
                             str(degree)])
        payload = json.loads(out)
        assert code == 0 and payload["betti_additivity"], degree


def test_cli_factor():
    code, out = run_cli(["factor", "--project", project_path("v_poset.json"),
                         "--cocycle", "rep_cocycle"])
    payload = json.loads(out)
    assert code == 0
    assert set(payload["components"]) == {"1", "2"}


def test_cli_explicit_modules_block():
    code, out = run_cli(["descent-check", "--project",
                         project_path("v_poset.json"), "--datum", "structure"])
    assert code == 0


def test_cli_gs_betti_matches_library():
    from gscohom.gs import GSComplex
    proj_path = project_path("v_poset.json")
    code, out = run_cli(["--quiet", "cohomology", "--project", proj_path,
                         "--complex", "gs", "--degree", "2",
                         "--kind", "normalized_reduced"])
    assert code == 0
    cli_betti = json.loads(out)["betti"]
    from gscohom.project import load_project
    gs = GSComplex(load_project(proj_path).presheaf)
    assert cli_betti == gs.cohomology(2, "normalized_reduced")[0]


def test_cli_cech_full_kind():
    code, out = run_cli(["cohomology", "--project",
                         project_path("v_poset.json"),
                         "--complex", "cech", "--degree", "0",
                         "--kind", "full"])
    payload = json.loads(out)
    assert code == 0 and payload["alternating"] is False
    code2, out2 = run_cli(["cohomology", "--project",
                           project_path("v_poset.json"),
                           "--complex", "cech", "--degree", "0"])
    assert json.loads(out2)["betti"] == payload["betti"]


@pytest.mark.parametrize("args, env", [
    (["cohomology", "--complex", "hoch", "--degree", "-1"], {}),
    (["cohomology", "--complex", "simp", "--degree", "-1"], {}),
    (["cohomology", "--complex", "cech", "--degree", "-1"], {}),
    (["cohomology", "--complex", "gs", "--degree", "-1"], {}),
    (["hodge", "--degree", "-1"], {}),
    (["compare-cech", "--degree", "-1"], {}),
    (["factor", "--cocycle", "gauge"], {}),
    (["equiv", "--defA", "rep_cocycle", "--defB", "rep_cocycle",
      "--cochain", "rep_cocycle"], {}),
])
def test_cli_bad_input_exit_2(monkeypatch, args, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out = run_cli(args[:1] + ["--project", project_path("v_poset.json")]
                        + args[1:])
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("complex_, kind, ok", [
    ("hoch", "full", True), ("hoch", "normalized", True),
    ("hoch", "reduced", False), ("hoch", "alternating", False),
    ("simp", "full", True), ("simp", "reduced", True),
    ("simp", "normalized", False), ("simp", "truncated", False),
    ("cech", "full", True), ("cech", "alternating", True),
    ("cech", "reduced", False),
    ("gs", "truncated", True), ("gs", "reduced", False),
    ("gs", "alternating", False),
])
def test_cli_kind_is_checked_per_complex(complex_, kind, ok):
    code, out = run_cli(["cohomology", "--project",
                         project_path("v_poset.json"), "--complex", complex_,
                         "--degree", "1", "--kind", kind])
    assert code == (0 if ok else 2)
    assert ("error" in json.loads(out)) != ok


def _with_zero_cochains(raw):
    raw["cochains"] = {"zero": {"m1": {}, "f1": {}, "c1": {}},
                       "gauge": {"g1": {}, "tau1": {}}}


def _with_an_unused_zero_algebra(raw):
    raw["algebras"]["zero"] = {"basis": [], "mult": [], "unit": []}


def _with_the_twist_key_reversed(raw):
    # A->T;AB->A names c^{A->T, AB->A} at the composite A->T o AB->A; in
    # the other order AB->A ends at A, where A->T does not start
    raw["presheaf"]["twists"] = {"AB->A;A->T": ["2"]}


def _without_meets(raw):
    # U0 and U1 have no common lower bound; the cochains name the arrows
    # that are gone
    raw["category"]["relations"] = []
    del raw["cochains"]


def _with_a_misplaced_module(raw):
    raw["data"]["glued"] = {"type": "explicit", "maps": {}, "modules": {
        obj: "free_U0" for obj in raw["category"]["objects"]}}


def _as_is(raw):
    pass


@pytest.mark.parametrize("project, edit, args, message", [
    ("twisted_diamond", _with_zero_cochains,
     ["cohomology", "--complex", "gs", "--degree", "1"], "strict presheaf"),
    ("twisted_diamond", _with_zero_cochains, ["hodge", "--degree", "1"],
     "strict presheaf"),
    ("twisted_diamond", _with_zero_cochains, ["deform", "--cocycle", "zero"],
     "strict presheaf"),
    ("twisted_diamond", _with_zero_cochains,
     ["equiv", "--defA", "zero", "--defB", "zero", "--cochain", "gauge"],
     "strict presheaf"),
    ("twisted_diamond", _with_zero_cochains, ["factor", "--cocycle", "zero"],
     "strict presheaf"),
    ("v_poset", _with_an_unused_zero_algebra, ["check"],
     "/algebras/zero/basis"),
    ("twisted_diamond", _with_the_twist_key_reversed, ["check"],
     "/presheaf/twists/AB->A;A->T: "),
    ("twisted_diamond", _with_the_twist_key_reversed,
     ["cohomology", "--complex", "gs", "--degree", "1"],
     "/presheaf/twists/AB->A;A->T: "),
    ("v_poset", _without_meets,
     ["cohomology", "--complex", "cech", "--degree", "0"],
     "/category: the Cech complex needs a poset with binary meets"),
    ("v_poset", _without_meets, ["compare-cech", "--degree", "0"],
     "/category: the Cech complex needs a poset with binary meets"),
    ("v_poset", _as_is, ["cohomology", "--complex", "hoch", "--degree", "-1"],
     "--degree -1: "),
    ("v_poset", _as_is,
     ["cohomology", "--complex", "simp", "--degree", "1", "--kind",
      "normalized"], "--kind normalized: "),
    ("v_poset", _as_is,
     ["cohomology", "--complex", "hoch", "--degree", "1", "--object",
      "nowhere"], "--object nowhere: "),
    ("v_poset", _as_is, ["deform", "--cocycle", "nowhere"],
     "/cochains/nowhere: not present"),
    ("v_poset", _as_is, ["factor", "--cocycle", "gauge"],
     "/cochains/gauge: expected an (m1, f1, c1) block"),
    ("v_poset", _as_is, ["descent-check", "--datum", "nowhere"],
     "/data/nowhere: not present"),
    ("v_poset", _with_a_misplaced_module, ["descent-check", "--datum", "glued"],
     "/data/glued/modules/U01: module lives at U0"),
], ids=["gs-twisted", "hodge-twisted", "deform-twisted", "equiv-twisted",
        "factor-twisted", "zero-dimensional-algebra", "twist-key-reversed",
        "gs-twist-key-reversed", "cech-without-meets",
        "compare-cech-without-meets", "negative-degree", "kind-of-another",
        "unknown-object", "cocycle-not-present", "factor-of-a-pair",
        "datum-not-present", "module-elsewhere"])
def test_cli_usage_error_is_json_with_an_empty_stderr(tmp_path, project,
                                                      edit, args, message):
    # the total complex needs a strict presheaf, an algebra needs a basis
    # element to be its unit, whether or not an object uses it, a twist
    # sits at arrows that compose, the Cech complex needs meets, and each
    # argument must name what the project has
    with open(project_path(project + ".json")) as fh:
        raw = json.load(fh)
    edit(raw)
    path = tmp_path / "project.json"
    path.write_text(json.dumps(raw))
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, "..", "src"))
    done = subprocess.run([sys.executable, "-m", "gscohom.cli", args[0],
                           "--project", str(path), *args[1:]],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2, done.stderr
    assert message in json.loads(done.stdout)["error"]
    assert done.stderr == ""


def test_no_module_reads_the_environment():
    # every setting of the library and the CLI comes from their arguments
    src = os.path.join(HERE, "..", "src", "gscohom")
    names = {"environ", "environb", "getenv", "getenvb"}
    readers = []
    for module in sorted(os.listdir(src)):
        if not module.endswith(".py"):
            continue
        with open(os.path.join(src, module)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in names or \
                    isinstance(node, ast.ImportFrom) and \
                    node.module == "os" and \
                    names.intersection(a.name for a in node.names):
                readers.append((module, node.lineno))
    assert readers == []


def test_cli_reads_the_project_only_through_project_py():
    # cli.py imports only public names of the library, and the only input
    # it checks itself is its arguments: every SchemaError about the file
    # is raised in project.py
    with open(os.path.join(HERE, "..", "src", "gscohom", "cli.py")) as fh:
        tree = ast.parse(fh.read())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (
                   node.level == 1 or node.module.startswith("gscohom"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
    checked = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                and getattr(node.exc.func, "id", None) == "SchemaError":
            message = node.exc.args[0]
            while isinstance(message, ast.BinOp):
                message = message.left
            checked.append(message.value.split(" ", 1)[0])
    assert sorted(checked) == ["--degree", "--kind", "--object"]


def _upper_triangular_project(tmp_path):
    """A one-object project holding the (non-commutative) 2x2
    upper-triangular algebra."""
    from gscohom.fincat import poset_category
    from gscohom.linalg import RatMatrix
    from gscohom.presheaf import strict_presheaf
    presheaf = strict_presheaf(poset_category(["pt"], []),
                               {"pt": presets.upper_triangular()},
                               {"pt->pt": RatMatrix.identity(3)})
    path = tmp_path / "ut2.json"
    path.write_text(json.dumps(project_json(
        {"objects": ["pt"], "relations": []},
        {"ut2": presets.upper_triangular()}, presheaf, {"pt": "ut2"})))
    return str(path)


def test_cli_hodge_noncommutative_exit_2(tmp_path):
    cmd = [sys.executable, "-m", "gscohom.cli", "--quiet", "hodge",
           "--project", _upper_triangular_project(tmp_path), "--degree", "1"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(HERE, "..", "src")
    done = subprocess.run(cmd, capture_output=True, env=env)
    assert done.returncode == 2
    assert "not commutative" in json.loads(done.stdout)["error"]
    assert b"Traceback" not in done.stderr


def test_cli_closed_stdout_ends_without_traceback():
    # the reader of the pipe is gone before the report is written, as with
    # `gscohom hodge ... | head -c 50` when head exits first
    read_end, write_end = os.pipe()
    os.close(read_end)
    cmd = [sys.executable, "-m", "gscohom.cli", "hodge",
           "--project", project_path("v_poset.json"), "--degree", "2"]
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, "..", "src"))
    try:
        done = subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE,
                              env=env)
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == b""


@pytest.mark.parametrize("exc_name", ["VerificationFailed",
                                      "ComplexViolation", "NotASubcomplex"])
def test_cli_failed_check_is_a_json_report(monkeypatch, exc_name):
    from gscohom import cli, linalg

    def failing(project, args):
        raise getattr(linalg, exc_name)("an exact identity does not hold")
    monkeypatch.setitem(cli.COMMANDS, "check", failing)
    code, out = run_cli(["check", "--project", project_path("v_poset.json")])
    payload = json.loads(out)
    assert code == 1 and payload["failed_check"] == exc_name
    assert payload["error"] == "an exact identity does not hold"


def test_cli_hodge_builds_no_projector_and_each_eigendata_once(monkeypatch):
    from gscohom import gs as gs_module
    from gscohom.gs import GSComplex
    projectors, built = [], []
    real = GSComplex.hodge_eigendata.__wrapped__

    def counting(self, q, a_dim):
        built.append((q, a_dim))
        return real(self, q, a_dim)
    monkeypatch.setattr(GSComplex, "hodge_projector",
                        lambda self, n, r: projectors.append((n, r)))
    monkeypatch.setattr(GSComplex, "hodge_eigendata",
                        gs_module.memo()(counting))
    code, _ = run_cli(["hodge", "--project", project_path("v_poset.json"),
                       "--degree", "2"])
    assert code == 0
    assert projectors == []
    # the stability checks at degree 2 reach the cells of degree 3; the
    # summands of degrees 1 to 3 need the cells with q >= r >= 1, and the
    # bottom row; v_poset's algebras have dimensions 1 and 2
    assert len(built) == len(set(built))
    assert set(built) == {(q, a) for q in range(4) for a in (1, 2)}


# -- each command loads only the modules it runs

# what `check` loads: the modules of every command
_BASE_MODULES = {"gscohom", "gscohom.cli", "gscohom.project",
                 "gscohom.linalg", "gscohom.fincat", "gscohom.algebra",
                 "gscohom.presheaf"}
_GS_MODULES = {"gscohom.gs", "gscohom.hochschild", "gscohom.simplicial",
               "gscohom.shuffles"}


@pytest.mark.parametrize("args, extra", [
    (["check", "--project", "v_poset.json"], set()),
    (["deform", "--project", "one_object.json", "--cocycle", "nope"], set()),
    (["cohomology", "--project", "one_object.json", "--complex", "hoch",
      "--degree", "3"], {"gscohom.hochschild", "gscohom.shuffles"}),
    (["cohomology", "--project", "v_poset.json", "--complex", "gs",
      "--degree", "2"], _GS_MODULES),
    (["deform", "--project", "v_poset.json", "--cocycle", "rep_cocycle"],
     _GS_MODULES | {"gscohom.deform"}),
    (["compare-cech", "--project", "diamond.json", "--degree", "2"],
     {"gscohom.cech", "gscohom.simplicial", "gscohom.shuffles"}),
    (["descent-check", "--project", "twisted_diamond.json", "--datum",
      "naive"], {"gscohom.descent", "gscohom.simplicial"}),
], ids=["check", "deform-schema-error", "hoch", "gs", "deform", "cech",
        "descent"])
def test_cli_command_imports_only_what_it_runs(args, extra):
    # -X importtime lists on stderr every module the process imports; a
    # module imported at the top of cli.py or of the package would show up
    # in every command.  The process starts as the `gscohom` script does.
    args = [project_path(a) if a.endswith(".json") else a for a in args]
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, "..", "src"))
    done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import sys; from gscohom.cli import main; "
                           "sys.exit(main())", "--quiet", *args],
                          capture_output=True, text=True, env=env)
    assert done.returncode in (0, 1, 2) and json.loads(done.stdout)
    imported = {line.rsplit("|", 1)[1].strip()
                for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert sorted(m for m in imported if m.startswith("gscohom")) == \
        sorted(_BASE_MODULES | extra)
    assert "dataclasses" not in imported


# -- input validation survives python -O

def _cli_plain_and_optimized(args):
    """The same CLI run without and with python -O."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(HERE, "..", "src")
    return [subprocess.run([sys.executable, *flags, "-m", "gscohom.cli",
                            "--quiet", *args], capture_output=True, env=env)
            for flags in ([], ["-O"])]


def _write_project(tmp_path, category, algebras, assignment):
    path = tmp_path / "project.json"
    path.write_text(json.dumps({
        "schema": SCHEMA, "category": category,
        "algebras": {name: algebra_json(a) for name, a in algebras.items()},
        "presheaf": {"algebras": assignment, "restrictions": {}}}))
    return str(path)


@pytest.mark.parametrize("args", [
    ["check"], ["cohomology", "--complex", "hoch", "--degree", "1"]])
def test_non_associative_algebra_is_a_schema_error_under_python_O(
        tmp_path, args):
    from gscohom.algebra import FinAlgebra
    # (e1 e1) e1 = e2 e1 = 0 but e1 (e1 e1) = e1 e2 = e0: not associative
    broken = FinAlgebra(3, [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ], [1, 0, 0], check=False)
    path = _write_project(tmp_path, {"objects": ["pt"], "relations": []},
                          {"bad": broken}, {"pt": "bad"})
    plain, optimized = _cli_plain_and_optimized(args + ["--project", path])
    assert plain.returncode == 2
    assert "algebra axioms fail" in json.loads(plain.stdout)["error"]
    assert optimized.returncode == plain.returncode
    assert optimized.stdout == plain.stdout
    assert plain.stderr == optimized.stderr == b""


# one object with two endomorphisms "1" and "e"; g o f = g is associative,
# but the declared identity e is not a unit (e o 1 = e, not 1)
def _left_zero_category(drop=None):
    table = {"1;1": "1", "1;e": "1", "e;1": "e", "e;e": "e"}
    category = {
        "objects": ["pt"],
        "morphisms": [{"name": name, "source": "pt", "target": "pt"}
                      for name in ("1", "e")],
        "composition": {key: val for key, val in table.items()
                        if key != drop},
        "identities": {"pt": "e"}}
    category.pop(drop, None)
    return category


@pytest.mark.parametrize("category, message", [
    (_left_zero_category(), "/category: the unit law fails at 1"),
    (_left_zero_category(drop="e;1"),
     "/category: the composite e o 1 is missing or has the wrong ends"),
    (_left_zero_category(drop="identities"), "/category/identities: missing"),
    ({"relations": []}, "/category/objects: missing"),
], ids=["identity-not-a-unit", "missing-composite", "missing-identities",
        "poset-without-objects"])
def test_invalid_explicit_category_is_a_schema_error_under_python_O(
        tmp_path, category, message):
    with open(project_path("one_object.json")) as fh:
        raw = json.load(fh)
    raw["category"] = category
    one = [["1", "0"], ["0", "1"]]
    raw["presheaf"]["restrictions"] = {"1": one, "e": one}
    path = tmp_path / "project.json"
    path.write_text(json.dumps(raw))
    plain, optimized = _cli_plain_and_optimized(["check", "--project",
                                                 str(path)])
    assert plain.returncode == 2
    assert json.loads(plain.stdout)["error"] == message
    assert optimized.returncode == plain.returncode
    assert optimized.stdout == plain.stdout
    assert plain.stderr == optimized.stderr == b""


def test_poset_without_meets_loads_under_python_O(tmp_path):
    # A and B have no common lower bound, so the project has no meet-poset
    # view, but it is a valid project on the category of the poset
    path = _write_project(tmp_path, {"objects": ["A", "B"], "relations": []},
                          {"q": presets.rationals()}, {"A": "q", "B": "q"})
    plain, optimized = _cli_plain_and_optimized(["check", "--project", path])
    assert plain.returncode == 0 and json.loads(plain.stdout)["valid"]
    assert optimized.returncode == plain.returncode
    assert optimized.stdout == plain.stdout
    assert b"Traceback" not in optimized.stderr


def _same_schema_error_with_and_without_O(args, path_prefix):
    plain, optimized = _cli_plain_and_optimized(args)
    assert plain.returncode == 2
    assert json.loads(plain.stdout)["error"].startswith(path_prefix)
    assert optimized.returncode == plain.returncode
    assert optimized.stdout == plain.stdout
    assert plain.stderr == optimized.stderr == b""


def test_cyclic_relations_are_a_schema_error_under_python_O(tmp_path):
    # A <= B and B <= A: not a poset
    path = _write_project(tmp_path, {"objects": ["A", "B"],
                                     "relations": [["A", "B"], ["B", "A"]]},
                          {"q": presets.rationals()}, {"A": "q", "B": "q"})
    _same_schema_error_with_and_without_O(["check", "--project", path],
                                          "/category/relations: ")


def _set_dim(value):
    def edit(module):
        module["dim"] = value
    return edit


def _widen_first_action(module):
    module["action"][0] = [row + ["0"] for row in module["action"][0]]


def _make_first_action_ragged(module):
    module["action"][0][0].append("0")


@pytest.mark.parametrize("edit, path_prefix", [
    (_set_dim(1), "/modules/free_U0/action/0: "),
    (_set_dim(-1), "/modules/free_U0/dim: "),
    (_set_dim("2"), "/modules/free_U0/dim: "),
    (_widen_first_action, "/modules/free_U0/action/0: "),
    (_make_first_action_ragged, "/modules/free_U0/action/0: "),
], ids=["dim-1", "dim-negative", "dim-string", "action-2x3", "action-ragged"])
def test_module_shapes_are_a_schema_error_under_python_O(
        tmp_path, edit, path_prefix):
    with open(project_path("v_poset.json")) as fh:
        raw = json.load(fh)
    edit(raw["modules"]["free_U0"])
    path = tmp_path / "project.json"
    path.write_text(json.dumps(raw))
    _same_schema_error_with_and_without_O(["check", "--project", str(path)],
                                          path_prefix)


@pytest.mark.parametrize("key", ["dim", "object", "action"])
def test_missing_module_key_is_a_schema_error_under_python_O(tmp_path, key):
    with open(project_path("v_poset.json")) as fh:
        raw = json.load(fh)
    del raw["modules"]["free_U0"][key]
    path = tmp_path / "project.json"
    path.write_text(json.dumps(raw))
    _same_schema_error_with_and_without_O(
        ["check", "--project", str(path)],
        "/modules/free_U0/%s: missing" % key)


def test_relation_with_unknown_object_is_a_schema_error_under_python_O(
        tmp_path):
    with open(project_path("v_poset.json")) as fh:
        raw = json.load(fh)
    raw["category"]["relations"].append(["U0", "nowhere"])
    path = tmp_path / "project.json"
    path.write_text(json.dumps(raw))
    _same_schema_error_with_and_without_O(["check", "--project", str(path)],
                                          "/category/relations: ")


def test_cech_tuple_bound_is_a_usage_error_under_python_O():
    # H^7 of the full Cech complex of the 4-object diamond needs the 4^9
    # tuples of degree 8, more than cech.TUPLE_BOUND; without the typed
    # error -O dropped the bound and the run went on for many seconds
    _same_schema_error_with_and_without_O(
        ["cohomology", "--complex", "cech", "--kind", "full", "--degree", "7",
         "--project", project_path("diamond.json")],
        "the full Cech complex has 262144 tuples in degree 8")


def test_parse_rat_accepts_only_exact_values():
    from fractions import Fraction
    assert parse_rat(3) == parse_rat("3") == parse_rat(Fraction(6, 2))
    for value in (0.1, 1.0, True, None, [1], {"p": 1}):
        with pytest.raises(SchemaError, match="/here: cannot parse"):
            parse_rat(value, "/here")


def _dual_numbers(raw):
    return raw["algebras"]["dual_numbers"]


class _Document(list):
    """What an edit returns to replace the whole project document."""


@pytest.mark.parametrize("edit, path", [
    (lambda raw: _dual_numbers(raw).pop("unit"),
     "/algebras/dual_numbers/unit"),
    (lambda raw: _dual_numbers(raw).pop("basis"),
     "/algebras/dual_numbers/basis"),
    (lambda raw: _dual_numbers(raw)["mult"].append([0, 0]),
     "/algebras/dual_numbers/mult"),
    (lambda raw: _dual_numbers(raw).update(unit=None),
     "/algebras/dual_numbers/unit"),
    (lambda raw: raw["presheaf"].pop("restrictions"),
     "/presheaf/restrictions"),
    (lambda raw: raw["presheaf"].pop("algebras"), "/presheaf/algebras"),
    (lambda raw: raw["cochains"]["perturbed"].update(f1={"nope": [["1"]]}),
     "/cochains/perturbed/f1/nope"),
    (lambda raw: raw["cochains"]["perturbed"].update(
        c1={"U01->U0": ["1"]}), "/cochains/perturbed/c1/U01->U0"),
    (lambda raw: raw["category"]["relations"].append(["U0"]),
     "/category/relations/2"),
    (lambda raw: raw["presheaf"]["restrictions"].update(
        {"U01->U0": [[None, "0"]]}), "/presheaf/restrictions/U01->U0"),
    (lambda raw: raw["presheaf"]["restrictions"].update(
        {"U01->U0": [[[1], "0"]]}), "/presheaf/restrictions/U01->U0"),
    (lambda raw: raw["presheaf"]["restrictions"].update(
        {"U01->U0": [[1.0, "0"]]}), "/presheaf/restrictions/U01->U0"),
    (lambda raw: raw["modules"]["free_U0"].update(action=5),
     "/modules/free_U0/action"),
    (lambda raw: raw["cochains"]["perturbed"].update(m1=[]),
     "/cochains/perturbed/m1"),
    (lambda raw: raw["cochains"]["perturbed"].update(f1=[]),
     "/cochains/perturbed/f1"),
    (lambda raw: raw["cochains"]["perturbed"].update(c1=[]),
     "/cochains/perturbed/c1"),
    (lambda raw: raw["cochains"]["gauge"].update(g1=[]),
     "/cochains/gauge/g1"),
    (lambda raw: raw["cochains"]["gauge"].update(tau1=[]),
     "/cochains/gauge/tau1"),
    (lambda raw: raw.update(algebras=list(raw["algebras"].values())),
     "/algebras: expected an object"),
    (lambda raw: raw.update(cochains=[]), "/cochains: expected an object"),
    (lambda raw: raw.update(modules=[]), "/modules: expected an object"),
    (lambda raw: raw.update(data=[]), "/data: expected an object"),
    (lambda raw: raw["presheaf"].update(twists=[]),
     "/presheaf/twists: expected an object"),
    (lambda raw: raw["presheaf"].update(z=1),
     "/presheaf/z: expected an object"),
    (lambda raw: _Document([raw]), "/: expected an object"),
    (lambda raw: raw["presheaf"].update(algebras=list(
        raw["presheaf"]["algebras"])),
     "/presheaf/algebras: expected an object"),
    (lambda raw: raw["presheaf"].update(restrictions=list(
        raw["presheaf"]["restrictions"])),
     "/presheaf/restrictions: expected an object"),
    (lambda raw: raw["cochains"]["rep_cocycle"]["f1"].update(
        {"U01->U0": [["1"]]}), "/cochains/rep_cocycle/f1/U01->U0"),
    (lambda raw: raw["cochains"]["gauge"]["g1"].update(U0=[["1"]]),
     "/cochains/gauge/g1/U0"),
    (lambda raw: raw["cochains"]["rep_cocycle"]["c1"].update(
        {"U01->U0;U01->U01": ["1", "0", "0"]}),
     "/cochains/rep_cocycle/c1/U01->U0;U01->U01"),
    (lambda raw: raw["cochains"]["gauge"]["tau1"].update(
        {"U01->U0": ["1", "0", "0"]}), "/cochains/gauge/tau1/U01->U0"),
    (lambda raw: raw["presheaf"].update(z={"U0": ["1"]}), "/presheaf/z/U0"),
    (lambda raw: raw["presheaf"].update(z={"nowhere": ["1"]}),
     "/presheaf/z/nowhere"),
    (lambda raw: raw["presheaf"].update(
        twists={"U01->U0;U01->U01": ["1", "0"]}),
     "/presheaf/twists/U01->U0;U01->U01"),
    (lambda raw: raw["presheaf"]["restrictions"].update({"U01->U0": []}),
     "/presheaf/restrictions/U01->U0: matrix must be a nonempty list"),
    (lambda raw: _dual_numbers(raw)["mult"].append([0, 0, ["1", "0"]]),
     "/algebras/dual_numbers/mult: duplicate pair (0, 0)"),
    (lambda raw: raw.update(schema="gscohom-project/0"), "/schema: expected"),
    (lambda raw: raw.pop("presheaf"), "/presheaf: missing block"),
    (lambda raw: raw["presheaf"]["algebras"].update(U0="nowhere"),
     "/presheaf/algebras/U0: unknown algebra 'nowhere'"),
    (lambda raw: raw["presheaf"]["restrictions"].pop("U01->U0"),
     "/presheaf/restrictions/U01->U0: missing"),
    (lambda raw: raw["modules"]["free_U0"].update(object="nowhere"),
     "/modules/free_U0/object: unknown 'nowhere'"),
    (lambda raw: raw["modules"]["free_U0"]["action"].pop(),
     "/modules/free_U0/action: need one matrix per basis element"),
    (lambda raw: raw["modules"]["free_U0"]["action"].reverse(),
     "/modules/free_U0: not a module"),
    (lambda raw: raw["cochains"].update(empty={}),
     "/cochains/empty: expected (m1, f1, c1) or (g1, tau1)"),
], ids=["no-unit", "no-basis", "mult-pair", "unit-null", "no-restrictions",
        "no-presheaf-algebras", "f1-unknown-morphism", "c1-without-semicolon",
        "one-object-relation", "entry-null", "entry-list", "entry-float",
        "action-not-a-list", "m1-list", "f1-list", "c1-list", "g1-list",
        "tau1-list", "algebras-list", "cochains-list", "modules-list",
        "data-list", "twists-list", "z-number", "document-list",
        "presheaf-algebras-list", "restrictions-list", "f1-shape",
        "g1-shape", "c1-length", "tau1-length", "z-length",
        "z-unknown-object", "twist-length", "restriction-empty",
        "mult-duplicate", "schema-other", "no-presheaf", "algebra-unknown",
        "restriction-missing", "module-object-unknown", "action-count",
        "not-a-module", "cochain-empty"])
def test_malformed_project_is_a_schema_error_without_traceback(
        tmp_path, edit, path):
    with open(project_path("v_poset.json")) as fh:
        raw = json.load(fh)
    edited = edit(raw)
    project = tmp_path / "project.json"
    project.write_text(json.dumps(
        edited if isinstance(edited, _Document) else raw))
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, "..", "src"))
    done = subprocess.run([sys.executable, "-m", "gscohom.cli", "check",
                           "--project", str(project)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2, done.stderr
    assert path in json.loads(done.stdout)["error"]
    assert done.stderr == ""


def _explicit_point(**changes):
    """The one-object category with only its identity, as an explicit
    block, with the given keys replaced."""
    block = {"objects": ["pt"],
             "morphisms": [{"name": "id", "source": "pt", "target": "pt"}],
             "composition": {"id;id": "id"}, "identities": {"pt": "id"}}
    block.update(changes)
    return block


def _on_the_point(category):
    def edit(raw):
        raw["category"] = category
        raw["presheaf"]["restrictions"] = {"id": [["1", "0"], ["0", "1"]]}
    return edit


@pytest.mark.parametrize("project, edit, message", [
    ("one_object", _on_the_point(_explicit_point(
        morphisms=[{"name": "id", "target": "pt"}])),
     "/category/morphisms/0/source: missing"),
    ("one_object", _on_the_point(_explicit_point(morphisms=5)),
     "/category/morphisms: expected a list"),
    ("one_object", _on_the_point(_explicit_point(composition=["id;id"])),
     "/category/composition: expected an object"),
    ("one_object", _on_the_point(_explicit_point(identities=["id"])),
     "/category/identities: expected an object"),
    ("v_poset", lambda raw: raw["category"].update(relations=5),
     "/category/relations: expected a list"),
    ("v_poset", lambda raw: raw["algebras"]["rationals"].update(mult=5),
     "/algebras/rationals/mult: expected a list"),
    ("v_poset", lambda raw: raw["presheaf"]["algebras"].update(
        U0=["dual_numbers"]),
     "/presheaf/algebras/U0: expected a name, got ['dual_numbers']"),
    ("one_object", _on_the_point(_explicit_point(
        composition={"id;id": ["id"]})),
     "/category/composition/id;id: expected a name, got ['id']"),
    ("one_object", _on_the_point(_explicit_point(identities={"pt": 1})),
     "/category/identities/pt: expected a name, got 1"),
    ("v_poset", lambda raw: raw["category"].update(objects="U0"),
     "/category/objects: expected a list"),
    ("v_poset", lambda raw: raw["category"]["objects"].append(1),
     "/category/objects/3: expected a name, got 1"),
    ("v_poset", lambda raw: raw["algebras"].update(rationals=1),
     "/algebras/rationals: expected an object"),
    ("v_poset", lambda raw: raw["category"]["objects"].append("U0"),
     "/category/objects/3: 'U0' is listed twice"),
], ids=["morphism-without-source", "morphisms-number", "composition-list",
        "identities-list", "relations-number", "mult-number",
        "presheaf-algebra-list", "composite-list", "identity-number",
        "objects-string", "object-number", "algebra-number", "object-twice"])
def test_malformed_category_or_algebra_is_a_schema_error(
        tmp_path, project, edit, message):
    with open(project_path(project + ".json")) as fh:
        raw = json.load(fh)
    edit(raw)
    path = tmp_path / "project.json"
    path.write_text(json.dumps(raw))
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, "..", "src"))
    done = subprocess.run([sys.executable, "-m", "gscohom.cli", "check",
                           "--project", str(path)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2, done.stderr
    assert json.loads(done.stdout)["error"] == message
    assert done.stderr == ""


@pytest.mark.parametrize("block, path", [
    ({"type": "explicit"}, "/data/structure/modules: missing"),
    ({"type": "explicit", "modules": {"pt": "free_pt"}},
     "/data/structure/maps: missing"),
    ({"type": "explicit", "modules": [], "maps": {}},
     "/data/structure/modules: expected an object"),
    ({"type": "explicit", "modules": {"pt": "free_pt"}, "maps": []},
     "/data/structure/maps: expected an object"),
    ({"type": "free", "trivialization": []},
     "/data/structure/trivialization: expected an object"),
    ([], "/data/structure: expected an object"),
    ({"type": "free", "trivialization": {"pt->pt": ["1", "0", "0"]}},
     "/data/structure/trivialization/pt->pt: expected 2 entries"),
    ({"type": "free", "trivialization": {"nope": ["1"]}},
     "/data/structure/trivialization/nope: unknown"),
    ({"type": "explicit", "modules": {"pt": "free_pt"},
      "maps": {"pt->pt": [["1"]]}},
     "/data/structure/maps/pt->pt: expected a 2 x 2 matrix, got 1 x 1"),
    ({"type": "explicit", "modules": {"pt": ["free_pt"]}, "maps": {}},
     "/data/structure/modules/pt: expected a name, got ['free_pt']"),
], ids=["no-modules", "no-maps", "modules-list", "maps-list",
        "trivialization-list", "datum-list", "trivialization-length",
        "trivialization-unknown-morphism", "map-shape", "module-name-list"])
def test_malformed_datum_is_a_schema_error_without_traceback(
        tmp_path, block, path):
    with open(project_path("one_object.json")) as fh:
        raw = json.load(fh)
    # the free module over the dual numbers at the one object
    raw["modules"] = {"free_pt": {"object": "pt", "dim": 2, "action": [
        [["1", "0"], ["0", "1"]], [["0", "0"], ["1", "0"]]]}}
    raw["data"] = {"structure": block}
    project = tmp_path / "project.json"
    project.write_text(json.dumps(raw))
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, "..", "src"))
    done = subprocess.run([sys.executable, "-m", "gscohom.cli",
                           "descent-check", "--project", str(project),
                           "--datum", "structure"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2, done.stderr
    assert path in json.loads(done.stdout)["error"]
    assert done.stderr == ""


COHOMOLOGY_HELP = """\
usage: gscohom cohomology [-h] --project PROJECT --complex {hoch,simp,cech,gs}
                          --degree DEGREE [--kind KIND] [--object OBJECT]

options:
  -h, --help            show this help message and exit
  --project PROJECT     path to the JSON project file
  --complex {hoch,simp,cech,gs}
  --degree DEGREE
  --kind KIND           subcomplex selection, default the full complex
                        (alternating for cech): hoch: full, normalized; simp:
                        full, reduced; cech: full, alternating; gs: full,
                        normalized, normalized_reduced, truncated,
                        truncated_normalized_reduced
  --object OBJECT       object whose algebra to use (hoch only)
"""


def test_cohomology_help_is_unchanged(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        cli_main(["cohomology", "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out == COHOMOLOGY_HELP
