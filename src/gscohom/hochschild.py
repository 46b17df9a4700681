"""The Hochschild complex of an algebra with bimodule coefficients.

A degree-n cochain is a linear map A^{(x) n} -> M stored as an
(dim M) x (dim A)^n matrix.  Tensor words are indexed lexicographically:
the word (i_1, ..., i_n) has index sum i_t * dim^{n-t}.  The flattened
coordinate of a cochain is column-major, i.e. word index first.
"""

from fractions import Fraction
from functools import partial
from itertools import product

from .linalg import RatMatrix, subcomplex_cohomology, unit_vector
from .algebra import FinBimodule


def words(dim, n):
    return product(range(dim), repeat=n)

def word_index(w, dim):
    idx = 0
    for c in w:
        idx = idx * dim + c
    return idx


class HCochain:
    """A Hochschild n-cochain on algebra A with values in the bimodule M."""

    def __init__(self, algebra, bimodule, n, matrix):
        self.algebra = algebra
        self.bimodule = bimodule
        self.n = n
        self.matrix = matrix
        assert matrix.rows == bimodule.dim
        assert matrix.cols == algebra.dim ** n

    def __call__(self, word):
        return self.matrix.column(word_index(word, self.algebra.dim))

    def evaluate(self, vectors):
        """Evaluate on a tuple of algebra elements (multilinear extension)."""
        d = self.algebra.dim
        out = [Fraction(0)] * self.bimodule.dim
        for w in words(d, self.n):
            coeff = Fraction(1)
            for pos, i in enumerate(w):
                coeff *= vectors[pos][i]
                if not coeff:
                    break
            if coeff:
                col = self.matrix.column(word_index(w, d))
                for r, v in enumerate(col):
                    out[r] += coeff * v
        return tuple(out)

    def __add__(self, other):
        return HCochain(self.algebra, self.bimodule, self.n,
                        self.matrix + other.matrix)

    def __sub__(self, other):
        return HCochain(self.algebra, self.bimodule, self.n,
                        self.matrix - other.matrix)

    def is_zero(self):
        return self.matrix.is_zero()


def hoch_differential(algebra, bimodule, n):
    """The matrix of d: C^n(A, M) -> C^{n+1}(A, M) on flattened cochains.

    d(phi)(x_0, ..., x_n) = x_0 phi(x_1, ..., x_n)
                            + sum_{i=1}^{n} (-1)^i phi(..., x_{i-1} x_i, ...)
                            + (-1)^{n+1} phi(x_0, ..., x_{n-1}) x_n.
    """
    d = algebra.dim
    m = bimodule.dim
    src = m * d ** n
    tgt = m * d ** (n + 1)
    entries = {}

    def put(out_word, out_row, in_word, in_row, val):
        if val:
            key = (word_index(out_word, d) * m + out_row,
                   word_index(in_word, d) * m + in_row)
            entries[key] = entries.get(key, Fraction(0)) + val

    sign_last = Fraction(-1) if n % 2 == 0 else Fraction(1)
    for w in words(d, n):
        for k in range(m):
            # x_0 . phi(w)
            for a in range(d):
                col = bimodule.left[a].column(k)
                for r, v in enumerate(col):
                    put((a,) + w, r, w, k, v)
            # merged interior arguments
            sign = Fraction(-1)
            for i in range(1, n + 1):
                for p in range(d):
                    for q in range(d):
                        coeff = algebra.mult[p][q][w[i - 1]]
                        if coeff:
                            out_w = w[:i - 1] + (p, q) + w[i:]
                            put(out_w, k, w, k, sign * coeff)
                sign = -sign
            # phi(w) . x_n
            for a in range(d):
                col = bimodule.right[a].column(k)
                for r, v in enumerate(col):
                    put(w + (a,), r, w, k, sign_last * v)
    return RatMatrix(tgt, src, entries)


def d_hoch(phi):
    """The Hochschild differential of a cochain."""
    big = hoch_differential(phi.algebra, phi.bimodule, phi.n)
    d = phi.algebra.dim
    m = phi.bimodule.dim
    flat = flatten(phi.matrix)
    out = big.apply(flat)
    return HCochain(phi.algebra, phi.bimodule, phi.n + 1,
                    unflatten(out, m, d ** (phi.n + 1)))


def flatten(matrix):
    """Column-major flattening of a cochain matrix."""
    out = [Fraction(0)] * (matrix.rows * matrix.cols)
    for (i, j), v in matrix.items():
        out[j * matrix.rows + i] = v
    return tuple(out)


def unflatten(vec, rows, cols):
    entries = {}
    for idx, v in enumerate(vec):
        if v:
            entries[(idx % rows, idx // rows)] = v
    return RatMatrix(rows, cols, entries)


def is_normalized(phi):
    """True iff phi vanishes whenever some argument is the algebra unit."""
    a = phi.algebra
    d = a.dim
    u = a.unit_index()
    if u is not None:
        for w in words(d, phi.n):
            if u in w and any(phi(w)):
                return False
        return True
    # general unit: evaluate with the unit inserted in each slot
    for pos in range(phi.n):
        for w in words(d, phi.n - 1):
            vecs = [unit_vector(d, c) for c in w]
            vecs.insert(pos, a.unit)
            if any(phi.evaluate(vecs)):
                return False
    return True


def normalized_coordinates(algebra, m_dim, n):
    """Flat coordinates of C^n(A, M) spanning the normalized subcomplex.

    Requires the unit of A to be a basis vector so that normalization is a
    coordinate condition.
    """
    u = algebra.unit_index()
    assert u is not None, "rebase the algebra so its unit is a basis vector"
    d = algebra.dim
    keep = []
    for w in words(d, n):
        if u in w:
            continue
        base = word_index(w, d) * m_dim
        keep.extend(range(base, base + m_dim))
    return keep


def op_sign(n):
    """(-1)^{lambda(n)} with lambda(n) = (n-1)(n+2)/2."""
    lam = (n - 1) * (n + 2) // 2
    return Fraction(-1) if lam % 2 else Fraction(1)


def op_cochain(phi):
    """The opposite cochain over (A^op, M^op): reverse the arguments and
    multiply by the degree sign (identity in degree 1, swap in degree 2,
    negated reversal in degree 3, ...)."""
    a = phi.algebra
    d = a.dim
    sign = op_sign(phi.n)
    entries = {}
    for w in words(d, phi.n):
        col = phi(w)
        j = word_index(tuple(reversed(w)), d)
        for i, v in enumerate(col):
            if v:
                entries[(i, j)] = sign * v
    mat = RatMatrix(phi.bimodule.dim, d ** phi.n, entries)
    return HCochain(a.opposite(), phi.bimodule.opposite(), phi.n, mat)


def hh_algebra(algebra, bimodule, n, normalized=False):
    """Hochschild cohomology HH^n(A, M): (betti, representative cochains).

    With normalized=True the computation runs on the normalized subcomplex;
    the inclusion into the full complex is a quasi-isomorphism, so the two
    agree (asserted in the test suite).
    """
    m = bimodule.dim
    keep = partial(normalized_coordinates, algebra, m) if normalized else None
    betti, reps = subcomplex_cohomology(
        partial(hoch_differential, algebra, bimodule), n, keep)
    return betti, [HCochain(algebra, bimodule, n,
                            unflatten(v, m, algebra.dim ** n)) for v in reps]


def regular_bimodule(algebra):
    return FinBimodule.regular(algebra)


# -- first order deformations of a single algebra

def deformed_algebra(algebra, m1_matrix):
    """A[eps] with multiplication m + m1*eps, built from a 2-cochain matrix
    (not validated: associativity holds iff m1 is a Hochschild cocycle)."""
    d = algebra.dim
    m1 = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            m1[i][j] = m1_matrix.column(word_index((i, j), d))
    return algebra.dual_extension(m1)


def is_algebra_deformation(algebra, m1_matrix):
    """Axiom-level check that (A[eps], m + m1*eps) is an associative unital
    Q[eps]-algebra with the unit of A (no cochain conditions consulted)."""
    bar = deformed_algebra(algebra, m1_matrix)
    return not bar.axiom_failures()


def deformation_cocycle_check(algebra, m1_matrix):
    """Cochain-level counterpart: m1 normalized and d_Hoch(m1) = 0."""
    bim = FinBimodule.regular(algebra)
    phi = HCochain(algebra, bim, 2, m1_matrix)
    return is_normalized(phi) and d_hoch(phi).is_zero()


def algebra_deformation_equivalence(algebra, m1, m1_prime, g1_matrix):
    """Check that 1 + g1*eps is an isomorphism (A[eps], m + m1 eps) ->
    (A[eps], m + m1' eps), and the cochain identity d(g1) = m1 - m1' with
    g1 normalized; both verdicts are returned for cross-checking."""
    d = algebra.dim
    bar = deformed_algebra(algebra, m1)
    bar_p = deformed_algebra(algebra, m1_prime)
    z = RatMatrix.zeros(d, d)
    g_block = RatMatrix.block([[RatMatrix.identity(d), z],
                               [g1_matrix, RatMatrix.identity(d)]])
    mult_ok = True
    for i in range(2 * d):
        for j in range(2 * d):
            lhs = g_block.apply(bar.mult[i][j])
            rhs = bar_p.mul(g_block.column(i), g_block.column(j))
            if lhs != rhs:
                mult_ok = False
                break
        if not mult_ok:
            break
    unital_ok = g_block.apply(bar.unit) == bar_p.unit
    axiom_verdict = mult_ok and unital_ok

    bim = FinBimodule.regular(algebra)
    g1 = HCochain(algebra, bim, 1, g1_matrix)
    cochain_verdict = is_normalized(g1) and \
        d_hoch(g1).matrix == m1 - m1_prime
    return axiom_verdict, cochain_verdict
