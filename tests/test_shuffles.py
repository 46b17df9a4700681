import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from gscohom.hochschild import words, word_index
from gscohom.linalg import RatMatrix, VerificationFailed
from gscohom.shuffles import (GroupAlgebraElement, eulerian_idempotents,
                              total_shuffle_operator, riffle_shuffles,
                              element_action_matrix, perm_action_matrix,
                              certify_eulerian_family, descents, perm_sign)
from oracles import element_difference, element_is_zero, eulerian_idempotent

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

# derandomised and small, like the oracle tests of test_linalg
ORACLE = settings(derandomize=True, max_examples=60, deadline=None,
                  database=None)


def test_riffle_shuffles_count():
    # C(n, i) shuffles of type (i, n-i)
    assert len(riffle_shuffles(4, 1)) == 4
    assert len(riffle_shuffles(4, 2)) == 6
    for perm in riffle_shuffles(5, 2):
        assert list(perm[:2]) == sorted(perm[:2])
        assert list(perm[2:]) == sorted(perm[2:])


def test_degree_one_is_identity():
    (e,) = eulerian_idempotents(1)
    assert e == GroupAlgebraElement.one(1)


def test_degree_two_symmetrizers():
    e1, e2 = eulerian_idempotents(2)
    assert e1.terms == {(0, 1): F(1, 2), (1, 0): F(1, 2)}
    assert e2.terms == {(0, 1): F(1, 2), (1, 0): F(-1, 2)}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_family_is_verified(n):
    es = eulerian_idempotents(n)
    assert len(es) == n
    total = GroupAlgebraElement.zero(n)
    for e in es:
        total = total + e
        assert e * e == e
    assert total == GroupAlgebraElement.one(n)
    for a in range(n):
        for b in range(n):
            if a != b:
                assert element_is_zero(es[a] * es[b])


def test_boundary_conventions():
    assert eulerian_idempotent(0, 0) == GroupAlgebraElement.one(0)
    assert element_is_zero(eulerian_idempotent(3, 0))
    assert element_is_zero(eulerian_idempotent(3, 4))


def test_shuffle_operator_spectrum():
    # the minimal polynomial of s_n divides prod (x - (2^r - 2))
    for n in (2, 3, 4):
        s = total_shuffle_operator(n)
        acc = GroupAlgebraElement.one(n)
        for r in range(1, n + 1):
            lam = F(2 ** r - 2)
            acc = acc * element_difference(
                s, GroupAlgebraElement.one(n).scale(lam))
        assert element_is_zero(acc)


def test_action_matrix_antisymmetrizes():
    e = element_action_matrix(eulerian_idempotent(2, 2), 2, 2)
    phi = RatMatrix.from_rows([[1, 2, 3, 4], [5, 6, 7, 8]])
    from gscohom.linalg import flatten, unflatten
    out = unflatten(e.apply(flatten(phi)), 2, 4)
    # antisymmetrization: (phi(a,b) - phi(b,a)) / 2; symmetric words die
    assert out.column(0) == (F(0), F(0))
    assert out.column(3) == (F(0), F(0))
    assert out.column(1) == tuple((a - b) / 2
                                  for a, b in zip(phi.column(1), phi.column(2)))
    # a symmetric cochain is killed entirely (Harrison side survives)
    sym = RatMatrix.from_rows([[1, 2, 2, 4], [0, 3, 3, 1]])
    assert e.apply(flatten(sym)) == tuple(F(0) for _ in range(8))


def test_action_matrices_are_orthogonal_projectors():
    m_dim, a_dim, q = 2, 2, 3
    mats = [element_action_matrix(eulerian_idempotent(q, r), m_dim, a_dim)
            for r in range(1, q + 1)]
    total = RatMatrix.zeros(mats[0].rows, mats[0].cols)
    for i, e in enumerate(mats):
        assert e @ e == e
        total = total + e
        for j, f in enumerate(mats):
            if i != j:
                assert (e @ f).is_zero()
    assert total == RatMatrix.identity(m_dim * a_dim ** q)


# -- the closed form against independent oracles

def _lagrange_family(n):
    """The Lagrange interpolants prod_{j != r} (s_n - lambda_j) /
    (lambda_r - lambda_j), from the powers of s_n: the construction the
    closed form replaced, kept as its reference."""
    lambdas = [F(2 ** r - 2) for r in range(1, n + 1)]
    s = total_shuffle_operator(n)
    powers = [GroupAlgebraElement.one(n)]
    for _ in range(n - 1):
        powers.append(powers[-1] * s)
    family = []
    for r in range(n):
        coeffs = [F(1)]            # of prod_{j != r} (x - lambda_j)
        denom = F(1)
        for j in range(n):
            if j == r:
                continue
            new = [F(0)] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                new[k + 1] += c
                new[k] -= c * lambdas[j]
            coeffs = new
            denom *= lambdas[r] - lambdas[j]
        elt = GroupAlgebraElement.zero(n)
        for k, c in enumerate(coeffs):
            elt = elt + powers[k].scale(c / denom)
        family.append(elt)
    return tuple(family)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closed_form_equals_lagrange_family(n):
    assert eulerian_idempotents(n) == _lagrange_family(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_first_idempotent_closed_form(n):
    # e_n(1) = sum_sigma sgn(sigma) (-1)^d(sigma) / (n C(n-1, d(sigma)))
    expected = GroupAlgebraElement(n, {
        perm: F(perm_sign(perm) * (-1) ** descents(perm),
                n * comb(n - 1, descents(perm)))
        for perm in permutations(range(n))})
    assert eulerian_idempotent(n, 1) == expected


def test_integral_coefficients_are_ints():
    e = GroupAlgebraElement(2, {(0, 1): F(4, 2), (1, 0): F(1, 2)})
    assert type(e.terms[(0, 1)]) is int and type(e.terms[(1, 0)]) is F
    assert e == GroupAlgebraElement(2, {(0, 1): F(2), (1, 0): F(1, 2)})
    assert e.scale(2).terms == {(0, 1): 4, (1, 0): 1}
    assert all(type(c) is int for c in e.scale(2).terms.values())


# -- the certificate rejects what is not the Lagrange family

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_certificate_rejects_one_changed_coefficient(n):
    family = [e.scale(factorial(n)) for e in eulerian_idempotents(n)]
    for r in range(n):
        for perm in (tuple(range(n)), tuple(reversed(range(n)))):
            tampered = list(family)
            terms = dict(family[r].terms)
            terms[perm] = terms.get(perm, 0) + F(1, 7)
            tampered[r] = GroupAlgebraElement(n, terms)
            with pytest.raises(VerificationFailed):
                certify_eulerian_family(tampered)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_certificate_rejects_swapped_members(n):
    family = [e.scale(factorial(n)) for e in eulerian_idempotents(n)]
    for a in range(n):
        for b in range(a + 1, n):
            swapped = list(family)
            swapped[a], swapped[b] = family[b], family[a]
            # the sum is still n!; the eigenvalue identity must catch it
            with pytest.raises(VerificationFailed, match="s_%d" % n):
                certify_eulerian_family(swapped)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_certificate_rejects_a_permutation_moved_to_another_class(n):
    # give one non-identity permutation the coefficients of another
    # descent number with its sign: every class but one keeps its members,
    # the sum is still n!, and only the eigenvalue identity can object
    scaled = [eulerian_idempotent(n, r).scale(factorial(n))
              for r in range(1, n + 1)]
    certify_eulerian_family(scaled)
    perm = (1, 0) + tuple(range(2, n))              # one descent
    other = (2, 1, 0) + tuple(range(3, n))          # two descents
    assert descents(perm) != descents(other)
    assert perm_sign(perm) == perm_sign(other)
    moved = [GroupAlgebraElement(n, {**e.terms, perm: e.terms.get(other, 0)})
             for e in scaled]
    assert moved != scaled
    with pytest.raises(VerificationFailed, match="s_%d" % n):
        certify_eulerian_family(moved)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certificate_rejects_a_scaled_family(n):
    # 2 n! e_r satisfies every eigenvalue identity; only the sum can object
    scaled = [eulerian_idempotent(n, r).scale(factorial(n))
              for r in range(1, n + 1)]
    with pytest.raises(VerificationFailed, match="sum to 1"):
        certify_eulerian_family([e.scale(2) for e in scaled])


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_scaled_family_is_integral_and_n_factorial_times_the_family(n):
    # n! e_n(r) has integer coefficients, also at the boundary conventions
    for r in range(n + 2):
        scaled = eulerian_idempotent(n, r).scale(factorial(n))
        assert all(type(c) is int for c in scaled.terms.values())


def test_certificate_rejects_wrong_sizes():
    with pytest.raises(VerificationFailed):
        certify_eulerian_family(eulerian_idempotents(3)[:2])
    with pytest.raises(VerificationFailed):
        certify_eulerian_family(())


_BAD_DEGREE_SCRIPT = '''
from gscohom.shuffles import eulerian_idempotents
for n in (0, -1):
    try:
        eulerian_idempotents(n)
    except ValueError:
        print("ValueError")
'''


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_degree_below_one_raises_value_error_under_python_O(flags):
    done = subprocess.run([sys.executable, *flags, "-c", _BAD_DEGREE_SCRIPT],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ValueError", "ValueError"]


# -- the one-pass action against the sum of single-permutation actions

def _reference_perm_action(perm, m_dim, a_dim):
    """One permutation's action built entry by entry from the permuted
    word: (phi . perm)(a_1..a_q) = phi(a_{perm^-1(1)}..a_{perm^-1(q)})."""
    q = len(perm)
    inv = [0] * q
    for i, v in enumerate(perm):
        inv[v] = i
    entries = {}
    for w in words(a_dim, q):
        src = word_index(tuple(w[inv[t]] for t in range(q)), a_dim)
        dst = word_index(w, a_dim)
        for k in range(m_dim):
            entries[(dst * m_dim + k, src * m_dim + k)] = F(1)
    size = m_dim * a_dim ** q
    return RatMatrix(size, size, entries)


@st.composite
def _elements(draw):
    q = draw(st.integers(0, 4))
    perms = list(permutations(range(q)))
    chosen = draw(st.lists(st.sampled_from(perms), max_size=len(perms),
                           unique=True))
    coeffs = draw(st.lists(st.fractions(min_value=-3, max_value=3,
                                        max_denominator=4),
                           min_size=len(chosen), max_size=len(chosen)))
    return GroupAlgebraElement(q, dict(zip(chosen, coeffs)))


@ORACLE
@given(elt=_elements(), m_dim=st.integers(1, 3), a_dim=st.integers(1, 3))
@example(elt=GroupAlgebraElement.zero(3), m_dim=2, a_dim=2)
@example(elt=GroupAlgebraElement(3, {(2, 0, 1): F(-1, 2)}), m_dim=2, a_dim=3)
def test_action_is_sum_of_single_permutation_actions(elt, m_dim, a_dim):
    size = m_dim * a_dim ** elt.n
    expected = RatMatrix.from_blocks(size, size, [
        (0, 0, _reference_perm_action(perm, m_dim, a_dim).scale(c))
        for perm, c in elt.terms.items()])
    assert element_action_matrix(elt, m_dim, a_dim) == expected
    if len(elt.terms) == 1:
        ((perm, c),) = elt.terms.items()
        assert perm_action_matrix(perm, m_dim, a_dim).scale(c) == expected
