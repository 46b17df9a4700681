"""The rational symmetric-group algebra and its Eulerian idempotents.

The idempotents e_n(r), 1 <= r <= n, are built by Lagrange interpolation in
the total signed-shuffle operator s_n (the sum over i of all signed
(i, n-i)-riffle shuffles), whose spectrum is {2^r - 2 : r = 1..n}:

    e_n(r) = prod_{j != r} (s_n - lambda_j) / (lambda_r - lambda_j).

Every constructed family is verified before being returned: each e_n(r) is
idempotent, distinct ones multiply to zero, and they sum to the identity of
QS_n.  Permutations act on Hochschild cochains on the right by place
permutation of the tensor arguments; the shuffle signs live in the operator
itself.
"""

from fractions import Fraction
from itertools import combinations

from .linalg import RatMatrix
from .hochschild import words, word_index


class VerificationFailed(Exception):
    """An exact verification failed: the idempotent family's checks, or the
    agreement of quasi-isomorphic subcomplexes of the total complex."""


def identity_perm(n):
    return tuple(range(n))


def compose_perms(s, t):
    """(s o t)(i) = s(t(i))."""
    return tuple(s[t[i]] for i in range(len(t)))


def perm_sign(perm):
    inv = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inv += 1
    return -1 if inv % 2 else 1


class GroupAlgebraElement:
    """An element of QS_n as a mapping permutation -> coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {p: Fraction(c) for p, c in (terms or {}).items() if c != 0}

    @staticmethod
    def one(n):
        return GroupAlgebraElement(n, {identity_perm(n): Fraction(1)})

    @staticmethod
    def zero(n):
        return GroupAlgebraElement(n, {})

    def __add__(self, other):
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, Fraction(0)) + c
        return GroupAlgebraElement(self.n, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, Fraction(0)) - c
        return GroupAlgebraElement(self.n, out)

    def scale(self, a):
        a = Fraction(a)
        return GroupAlgebraElement(self.n, {p: a * c for p, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for p, c in self.terms.items():
            for q, d in other.terms.items():
                r = compose_perms(p, q)
                out[r] = out.get(r, Fraction(0)) + c * d
        return GroupAlgebraElement(self.n, out)

    def __eq__(self, other):
        return self.n == other.n and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return "GroupAlgebraElement(S_%d, %d terms)" % (self.n, len(self.terms))


def riffle_shuffles(n, i):
    """All (i, n-i)-shuffles: permutations increasing on the images of the
    first i positions and on the images of the rest."""
    out = []
    positions = range(n)
    for first in combinations(positions, i):
        rest = [x for x in positions if x not in first]
        perm = list(first) + rest
        out.append(tuple(perm))
    return out


def total_shuffle_operator(n):
    """s_n = sum_{i=1}^{n-1} sum over (i, n-i)-shuffles of sign * shuffle."""
    terms = {}
    for i in range(1, n):
        for perm in riffle_shuffles(n, i):
            terms[perm] = terms.get(perm, Fraction(0)) + perm_sign(perm)
    return GroupAlgebraElement(n, terms)


_idempotent_cache = {}


def eulerian_idempotents(n):
    """The family (e_n(1), ..., e_n(n)), verified exactly.

    Raises VerificationFailed if idempotency, pairwise orthogonality, or
    completeness fails (a construction-bug guard; the checks are exact
    group-algebra arithmetic)."""
    assert n >= 1
    if n in _idempotent_cache:
        return _idempotent_cache[n]
    lambdas = [Fraction(2 ** r - 2) for r in range(1, n + 1)]
    s = total_shuffle_operator(n)
    powers = [GroupAlgebraElement.one(n)]
    for _ in range(n - 1):
        powers.append(powers[-1] * s)
    idempotents = []
    for r in range(1, n + 1):
        # coefficients of prod_{j != r} (x - lambda_j)
        coeffs = [Fraction(1)]
        for j in range(n):
            if j == r - 1:
                continue
            new = [Fraction(0)] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                new[k + 1] += c
                new[k] -= c * lambdas[j]
            coeffs = new
        denom = Fraction(1)
        for j in range(n):
            if j != r - 1:
                denom *= lambdas[r - 1] - lambdas[j]
        elt = GroupAlgebraElement.zero(n)
        for k, c in enumerate(coeffs):
            elt = elt + powers[k].scale(c / denom)
        idempotents.append(elt)
    total = GroupAlgebraElement.zero(n)
    for e in idempotents:
        total = total + e
    if total != GroupAlgebraElement.one(n):
        raise VerificationFailed("idempotents do not sum to 1 in QS_%d" % n)
    for a in range(n):
        for b in range(a, n):
            prod = idempotents[a] * idempotents[b]
            expected = idempotents[a] if a == b else GroupAlgebraElement.zero(n)
            if prod != expected:
                raise VerificationFailed(
                    "orthogonality/idempotency fails for (e_%d(%d), e_%d(%d))"
                    % (n, a + 1, n, b + 1))
    _idempotent_cache[n] = tuple(idempotents)
    return _idempotent_cache[n]


def eulerian_idempotent(n, r):
    """e_n(r) with the boundary conventions e_n(0) = 0 for n >= 1,
    e_n(r) = 0 for r > n, and e_0(0) = 1."""
    if n == 0:
        return GroupAlgebraElement.one(0) if r == 0 else GroupAlgebraElement.zero(0)
    if r < 1 or r > n:
        return GroupAlgebraElement.zero(n)
    return eulerian_idempotents(n)[r - 1]


ACTION_CONVENTION = "inverse-place-permutation/signs-in-operator"


def perm_action_matrix(perm, m_dim, a_dim):
    """The right place-permutation action of `perm` on cochain matrices
    Hom(A^{(x) q}, M), on the column-major flat coordinates:

        (phi . perm)(a_1, ..., a_q) = phi(a_{perm^{-1}(1)}, ..., a_{perm^{-1}(q)}).

    This is the action dual to the signed shuffle product on tensors (the
    signs stay inside the shuffle operator); with the direct rather than the
    inverse indexing, the Hochschild differential fails to preserve the
    components from tensor degree three on.
    """
    q = len(perm)
    size = m_dim * a_dim ** q
    entries = {}
    inv = [0] * q
    for i, v in enumerate(perm):
        inv[v] = i
    for w in words(a_dim, q):
        wp = tuple(w[inv[t]] for t in range(q))
        src = word_index(wp, a_dim)
        dst = word_index(w, a_dim)
        for k in range(m_dim):
            entries[(dst * m_dim + k, src * m_dim + k)] = Fraction(1)
    return RatMatrix(size, size, entries)


def element_action_matrix(elt, m_dim, a_dim):
    """The action matrix of a group-algebra element on flat cochains."""
    q = elt.n
    size = m_dim * a_dim ** q
    out = RatMatrix.zeros(size, size)
    for perm, c in sorted(elt.terms.items()):
        out = out + perm_action_matrix(perm, m_dim, a_dim).scale(c)
    return out
