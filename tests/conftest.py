import random
from fractions import Fraction

import pytest
from hypothesis import settings

from gscohom import presets
from gscohom.linalg import RatMatrix

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
