"""Golden guard for the demo scripts: each `demos/0*.py` prints exactly the
committed `tests/golden/demo_<script name>.out`.

The demos walk through every layer of the library (Hochschild, GS, Hodge,
deformations, Čech, descent), so a change that moves any number or verdict
they print fails here.  Each script runs as its own `python` process from
the repository root.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                     ".."))
GOLDEN = os.path.join(ROOT, "tests", "golden")
DEMOS = sorted(os.path.basename(path)[:-3] for path in
               glob.glob(os.path.join(ROOT, "demos", "0*.py")))


def test_every_demo_is_pinned():
    assert len(DEMOS) == 6
    for name in DEMOS:
        assert os.path.exists(os.path.join(GOLDEN, "demo_%s.out" % name))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_matches_golden(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run([sys.executable,
                             os.path.join(ROOT, "demos", name + ".py")],
                            capture_output=True, cwd=ROOT, env=env)
    assert result.returncode == 0, result.stderr.decode()
    with open(os.path.join(GOLDEN, "demo_%s.out" % name), "rb") as fh:
        assert result.stdout == fh.read()
