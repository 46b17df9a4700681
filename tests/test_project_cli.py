import json
import os
import subprocess
import sys

import pytest

from gscohom.project import (load_project, SchemaError, SCHEMA, parse_rat,
                             rat_str, project_json, algebra_json)
from gscohom.cli import main as cli_main
from gscohom import presets

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


def test_cli_hodge_and_bound(monkeypatch):
    code, out = run_cli(["hodge", "--project", project_path("v_poset.json"),
                         "--degree", "2"])
    payload = json.loads(out)
    assert code == 0 and payload["betti_additivity"]
    monkeypatch.setenv("GSD_IDEMPOTENT_BOUND", "1")
    code, out = run_cli(["hodge", "--project", project_path("v_poset.json"),
                         "--degree", "2"])
    assert code == 2


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
    (["hodge", "--degree", "2"], {"GSD_IDEMPOTENT_BOUND": "abc"}),
    (["factor", "--cocycle", "rep_cocycle"], {"GSD_IDEMPOTENT_BOUND": "abc"}),
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
