"""The rational symmetric-group algebra and its Eulerian idempotents.

The idempotents e_n(r), 1 <= r <= n, are the Lagrange interpolants in the
total signed-shuffle operator s_n (the sum over i of all signed
(i, n-i)-riffle shuffles), whose spectrum is {lambda_r = 2^r - 2}:

    e_n(r) = prod_{j != r} (s_n - lambda_j) / (lambda_r - lambda_j).

They are built from their closed form (Loday, Cyclic Homology, 4.5;
Gerstenhaber-Schack, JPAA 1987): the coefficient of e_n(r) on sigma is

    sgn(sigma) [t^r] C(t - d(sigma) + n - 1, n),

where d(sigma) counts the descents of sigma, so n! e_n(r) has integer
coefficients.  Both families, e_n(r) and the integral n! e_n(r), are built
together, and the integral one is certified before either is returned: the
certificate (`certify_eulerian_family`) checks sum_r e_n(r) = 1 and
s_n e_n(r) = lambda_r e_n(r), which proves the family equal to the Lagrange
interpolants and hence idempotent and pairwise orthogonal.  Its cost is one
composition p o q per term p of s_n (2^n - n terms for n >= 2) and
permutation q, shared by all n identities: the permutations with equal
coefficient vectors (e_1[q], ..., e_n[q]) are composed with s_n together,
and the closed form has at most 2n such vectors, one per sign and descent
number.  The all-pairs check it replaced cost n(n+1)/2 products of n!-term
elements.

The Hodge layer (`gs`) does not act by the idempotents at all: on every
cochain space the image of e_n(r) is the lambda_r-eigenspace of the action
of s_n, which has 2^n - 2 terms against up to n! for e_n(r), and `gs`
certifies per cell that those eigenspaces fill the space
(`gs.GSComplex.hodge_eigendata`).  The idempotents are the test oracle of
that identity, and demo 04 prints them.

Coefficients are exact: an int where integral, else a Fraction
(`linalg.exact`; the two compare and hash equal).  Permutations act on
Hochschild cochains on the right by place permutation of the arguments,
with the shuffle signs in the operator (`linalg.ACTION_CONVENTION`).
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, lcm
from operator import add, itemgetter

from .linalg import RatMatrix, VerificationFailed, exact


def identity_perm(n):
    return tuple(range(n))


def compose_perms(s, t):
    """(s o t)(i) = s(t(i))."""
    return tuple(map(s.__getitem__, t))


def perm_sign(perm):
    inv = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inv += 1
    return -1 if inv % 2 else 1


def descents(perm):
    """The number of i with perm(i) > perm(i+1)."""
    return sum(a > b for a, b in zip(perm, perm[1:]))


class GroupAlgebraElement:
    """An element of QS_n as a mapping permutation -> coefficient (an int
    where integral, else a Fraction)."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {p: exact(c) for p, c in (terms or {}).items() if c != 0}

    @staticmethod
    def one(n):
        return GroupAlgebraElement(n, {identity_perm(n): 1})

    @staticmethod
    def zero(n):
        return GroupAlgebraElement(n, {})

    def __add__(self, other):
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, 0) + c
        return GroupAlgebraElement(self.n, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, 0) - c
        return GroupAlgebraElement(self.n, out)

    def scale(self, a):
        a = exact(a)
        return GroupAlgebraElement(self.n, {p: a * c for p, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for p, c in self.terms.items():
            for q, d in other.terms.items():
                r = compose_perms(p, q)
                out[r] = out.get(r, 0) + c * d
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


def shuffle_eigenvalue(r):
    """lambda_r = 2^r - 2, the eigenvalue of s_n on the image of e_n(r);
    lambda_0 = -1 is the value the Hodge layer gives s_0."""
    return 2 ** r - 2


def hodge_range(n):
    """The r with e_n(r) != 0: 1, ..., n, and 0 alone for n = 0."""
    return range(1, n + 1) if n else range(1)


def total_shuffle_operator(n):
    """s_n = sum_{i=1}^{n-1} sum over (i, n-i)-shuffles of sign * shuffle."""
    terms = {}
    for i in range(1, n):
        for perm in riffle_shuffles(n, i):
            terms[perm] = terms.get(perm, 0) + perm_sign(perm)
    return GroupAlgebraElement(n, terms)


def certify_eulerian_family(family):
    """Raise VerificationFailed unless `family` = (f_1, ..., f_n) is n! times
    the family (e_1, ..., e_n) of Eulerian idempotents of QS_n, the Lagrange
    interpolants L_r(s_n) of the total shuffle operator.  The integral
    multiples keep the check in int arithmetic.

    Certificate: sum_r f_r = n! and s_n f_r = lambda_r f_r for every r,
    where lambda_r = 2^r - 2.  Dividing by n!, these are exactly
    sum_r e_r = 1 and s_n e_r = lambda_r e_r for e_r = f_r / n!.
    Proof that those are as strong as checking e_r = L_r(s_n) and
    e_r e_t = delta_rt e_t for all pairs: let
    L_r(x) = prod_{j != r} (x - lambda_j) / (lambda_r - lambda_j), so that
    L_r(lambda_j) = delta_rj, the lambda_j being distinct.  From
    s_n e_j = lambda_j e_j, p(s_n) e_j = p(lambda_j) e_j for every
    polynomial p.  Hence

        L_r(s_n) = L_r(s_n) sum_j e_j = sum_j L_r(lambda_j) e_j = e_r,

    so the family is exactly the Lagrange family, and

        e_r e_t = L_r(s_n) e_t = L_r(lambda_t) e_t = delta_rt e_t.

    Conversely the Lagrange family passes: (s_n - lambda_r) L_r(s_n) is a
    multiple of prod_j (s_n - lambda_j) = 0.

    Each composition is computed once for all n products.  Group the
    permutations q by their coefficient vector v(q) = (f_1[q], ..., f_n[q])
    and let T_C = sum_{q in C} s_n q for each class C.  By linearity

        s_n f_r = sum_q f_r[q] s_n q = sum_C v_r(C) T_C,

    since f_r[q] = v_r(C) for every q in C.  So the right-hand side is
    s_n f_r itself, for any input family (the grouping reads the family; it
    does not assume the closed form), and comparing it with lambda_r f_r
    checks the same n identities.
    """
    n = len(family)
    if n < 1 or any(e.n != n for e in family):
        raise VerificationFailed("%d elements are not a family in QS_%d"
                                 % (n, n))
    classes = {}                        # v(q) -> the permutations q
    for q in set().union(*(e.terms for e in family)):
        vec = tuple(e.terms.get(q, 0) for e in family)
        classes.setdefault(vec, []).append(q)
    total = {q: sum(vec) for vec, qs in classes.items() for q in qs
             if sum(vec)}
    if total != {identity_perm(n): factorial(n)}:
        raise VerificationFailed("idempotents do not sum to 1 in QS_%d" % n)
    by_coeff = {}                       # coefficient of s_n -> its terms p
    for p, c in total_shuffle_operator(n).terms.items():
        by_coeff.setdefault(c, []).append(p)
    images = [Counter() for _ in family]        # s_n f_r
    for vec, qs in classes.items():
        t = Counter()                           # T_C
        for c, ps in by_coeff.items():
            hits = Counter()                    # p o q = q mapped through p
            for q in qs:
                hits.update(map(itemgetter(*q), ps))
            for x, k in hits.items():
                t[x] += c * k
        for v, image in zip(vec, images):
            if v:
                for x, k in t.items():
                    image[x] += v * k
    for r, (e, image) in enumerate(zip(family, images), start=1):
        lam = shuffle_eigenvalue(r)
        if {x: v for x, v in image.items() if v} != \
                {q: lam * c for q, c in e.terms.items() if lam}:
            raise VerificationFailed(
                "s_%d e_%d(%d) != %d e_%d(%d)" % (n, n, r, lam, n, r))


_idempotent_cache = {}


def eulerian_idempotents(n):
    """The family (e_n(1), ..., e_n(n)) from its closed form, kept per n.
    It is built as the integral family (n! e_n(1), ..., n! e_n(n)), which
    is certified exactly by `certify_eulerian_family` (VerificationFailed
    otherwise), and then divided by n!.  Raises ValueError for n < 1."""
    if n < 1:
        raise ValueError("Eulerian idempotents of QS_%d: expected n >= 1" % n)
    if n not in _idempotent_cache:
        scaled = _scaled_family(n)
        certify_eulerian_family(scaled)
        _idempotent_cache[n] = tuple(e.scale(Fraction(1, factorial(n)))
                                     for e in scaled)
    return _idempotent_cache[n]


def _scaled_family(n):
    """(n! e_n(1), ..., n! e_n(n)) from the closed form: the coefficient of
    n! e_n(r) on sigma is sgn(sigma) [t^r] n! C(t - d(sigma) + n - 1, n),
    an integer."""
    # n! C(t - d + n - 1, n) = prod_{j < n} (t - d + j), as coefficient
    # lists in t, one per descent number d
    polys = []
    for d in range(n):
        coeffs = [1]
        for j in range(n):
            shifted = [0] + coeffs
            for k, c in enumerate(coeffs):
                shifted[k] += (j - d) * c
            coeffs = shifted
        polys.append(coeffs)
    terms = [{} for _ in range(n)]
    for perm in permutations(range(n)):
        sign, coeffs = perm_sign(perm), polys[descents(perm)]
        for r in range(1, n + 1):
            if coeffs[r]:
                terms[r - 1][perm] = sign * coeffs[r]
    return tuple(GroupAlgebraElement(n, t) for t in terms)


def element_action_matrix(elt, m_dim, a_dim):
    """The right place-permutation action of elt = sum_sigma c_sigma sigma
    in QS_q on cochain matrices Hom(A^{(x) q}, M), on the column-major flat
    coordinates:

        (phi . sigma)(a_1, ..., a_q) = phi(a_{sigma^{-1}(1)}, ..., a_{sigma^{-1}(q)}),

    extended linearly.  This is the action dual to the signed shuffle
    product on tensors (the signs stay inside the shuffle operator); with
    the direct rather than the inverse indexing, the Hochschild
    differential fails to preserve the components from tensor degree three
    on.

    Built in one pass over (word, permutation): the word w reads its value
    at the word (w_{sigma^{-1}(1)}, ..., w_{sigma^{-1}(q)}), whose index is
    sum_i w_i a_dim^(q-1-sigma(i)).  For each sigma these source indices of
    all words, in word order, are built digit by digit; the (word, source)
    hits are counted per coefficient value, so the counting runs in
    `Counter`, and summed as integers over the common denominator of the
    coefficients; with integer coefficients (s_q, or the multiples
    q! e_q(r) of the idempotents) every entry is an int.  The action is the
    identity on M.
    """
    q = elt.n
    n_words = a_dim ** q
    den = lcm(*(c.denominator for c in elt.terms.values()))
    by_coeff = {}
    for perm, c in elt.terms.items():
        by_coeff.setdefault(c, []).append(perm)
    rows = range(0, n_words * n_words, n_words)     # dst * n_words, in order
    totals = Counter()                  # dst * n_words + src -> den * entry
    for c, perms in by_coeff.items():
        hits = Counter()
        for perm in perms:
            srcs = [0]
            for t in perm:
                weight = a_dim ** (q - 1 - t)
                srcs = [s + x * weight for s in srcs for x in range(a_dim)]
            hits.update(map(add, rows, srcs))
        num = c.numerator * (den // c.denominator)
        for key, k in hits.items():
            totals[key] += num * k
    entries = {}
    for key, v in totals.items():
        if v:
            dst, src = divmod(key, n_words)
            value = v if den == 1 else exact(Fraction(v, den))
            for i in range(m_dim):
                entries[(dst * m_dim + i, src * m_dim + i)] = value
    size = m_dim * n_words
    return RatMatrix._trusted(size, size, entries)


def perm_action_matrix(perm, m_dim, a_dim):
    """The action matrix of the single permutation `perm` (see
    `element_action_matrix`)."""
    return element_action_matrix(GroupAlgebraElement(len(perm), {perm: 1}),
                                 m_dim, a_dim)
