import random
from fractions import Fraction

import pytest
from hypothesis import settings

from gscohom import presets
from gscohom.fincat import FiniteCategory, Morphism
from gscohom.linalg import RatMatrix
from gscohom.presheaf import strict_presheaf

# derandomised and small, so the suite stays deterministic and quick
ORACLE = settings(derandomize=True, max_examples=60, deadline=None,
                  database=None)


@pytest.fixture
def rng():
    return random.Random(20240311)


@pytest.fixture(scope="session")
def fixtures():
    return presets.standard_fixtures()


def random_matrix(rng, rows, cols, span=3, density=0.7):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[(i, j)] = Fraction(rng.randint(-span, span))
    return RatMatrix(rows, cols, entries)



# Z/2 acting on Q[x]/(x^2) by x -> -x, and on Q x Q by the swap, which
# fixes 1 and sends e2 to e1 = 1 - e2
INVOLUTIONS = {
    "dual-numbers": (presets.dual_numbers, [[1, 0], [0, -1]]),
    "two-points": (presets.two_points, [[1, 1], [0, -1]]),
}


def involution_presheaf(name):
    """The presheaf on the one-object category {1, s} with s o s = 1 (the
    group Z/2) that puts the algebra of INVOLUTIONS[name] at its object and
    restricts along s by the involution there."""
    algebra, s = INVOLUTIONS[name]
    algebra = algebra()
    cat = FiniteCategory(
        ["pt"], [Morphism("1", "pt", "pt"), Morphism("s", "pt", "pt")],
        {("1", "1"): "1", ("1", "s"): "s", ("s", "1"): "s", ("s", "s"): "1"},
        {"pt": "1"})
    return strict_presheaf(cat, {"pt": algebra},
                           {"1": RatMatrix.identity(algebra.dim),
                            "s": RatMatrix.from_rows(s)})
