"""Golden guard for the command line: stdout bytes and exit codes.

Each command runs as `python -m gscohom.cli --quiet ...` in a subprocess
from the repository root, and its stdout and exit code must equal the
committed files under tests/golden/: `<name>.out` holds stdout and
`exit_codes.json` maps each name to its exit code.  A change that alters
any Betti number, representative or verdict fails here.

Regenerate the files on purpose (and say why in CHANGES.md) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                     ".."))
GOLDEN = os.path.join(ROOT, "tests", "golden")
P = "demos/projects/"

COMMANDS = {
    # the commands of the README
    "check_v_poset": ["check", "--project", P + "v_poset.json"],
    "gs_h2_normalized_reduced": ["cohomology", "--project", P + "v_poset.json",
                                 "--complex", "gs", "--degree", "2",
                                 "--kind", "normalized_reduced"],
    "hoch_h3_one_object": ["cohomology", "--project", P + "one_object.json",
                           "--complex", "hoch", "--degree", "3"],
    "hodge_2": ["hodge", "--project", P + "v_poset.json", "--degree", "2"],
    # reaches the q = 4 Hodge blocks; hodge_2 stops at q = 3
    "hodge_4": ["hodge", "--project", P + "v_poset.json", "--degree", "4"],
    # the top of the default degree bound; reaches the q = 7 eigendata
    "hodge_6": ["hodge", "--project", P + "v_poset.json", "--degree", "6"],
    "deform_rep_cocycle": ["deform", "--project", P + "v_poset.json",
                           "--cocycle", "rep_cocycle"],
    "deform_perturbed": ["deform", "--project", P + "v_poset.json",
                         "--cocycle", "perturbed"],
    "equiv_gauge": ["equiv", "--project", P + "v_poset.json",
                    "--defA", "rep_cocycle", "--defB", "rep_cocycle",
                    "--cochain", "gauge"],
    "compare_cech_2": ["compare-cech", "--project", P + "diamond.json",
                       "--degree", "2"],
    "descent_structure": ["descent-check", "--project",
                          P + "twisted_diamond.json", "--datum", "structure"],
    "factor_rep_cocycle": ["factor", "--project", P + "v_poset.json",
                           "--cocycle", "rep_cocycle"],
    # one subcomplex of each of the other complexes
    "hoch_h2_normalized": ["cohomology", "--project", P + "v_poset.json",
                           "--complex", "hoch", "--kind", "normalized",
                           "--degree", "2"],
    "simp_h0_reduced": ["cohomology", "--project", P + "diamond.json",
                        "--complex", "simp", "--kind", "reduced",
                        "--degree", "0"],
    "cech_h0": ["cohomology", "--project", P + "diamond.json",
                "--complex", "cech", "--degree", "0"],
}


def run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return subprocess.run([sys.executable, "-m", "gscohom.cli", "--quiet"]
                          + args, capture_output=True, cwd=ROOT, env=env)


def exit_codes():
    with open(os.path.join(GOLDEN, "exit_codes.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_matches_golden(name):
    result = run(COMMANDS[name])
    with open(os.path.join(GOLDEN, name + ".out"), "rb") as fh:
        expected = fh.read()
    assert result.returncode == exit_codes()[name], result.stderr.decode()
    assert result.stdout == expected


def regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    for name, args in sorted(COMMANDS.items()):
        result = run(args)
        codes[name] = result.returncode
        with open(os.path.join(GOLDEN, name + ".out"), "wb") as fh:
            fh.write(result.stdout)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
