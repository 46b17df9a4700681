"""The Hochschild complex of an algebra with bimodule coefficients.

A degree-n cochain is a linear map A^{(x) n} -> M stored as an
(dim M) x (dim A)^n matrix.  Tensor words are indexed lexicographically:
the word (i_1, ..., i_n) has index sum i_t * dim^{n-t}.  A cochain is
flattened by the column-major `linalg.flatten`, i.e. word index first:
entry (r, w) of the cochain matrix X sits at w * (dim M) + r.  For this
vec,

    vec(L X R) = (R^T (x) L) vec X,

so maps on flat cochains are Kronecker products.  `hoch_differential`
writes the entries of its Kronecker sum straight into its columns by the
word rule: the terms move the output of a word w to the words (a, w), to
the words that merge to w at one place, and to (w, a).  The GS complex (`gs`)
and the place-permutation actions (`shuffles`) use the same flattening, and
the opposite map is one such action (`op_matrix`).
`is_normalized` is one matrix identity for any unit; `normalized_coordinates`
and the subcomplex kinds built on it need the unit to be a basis vector.
"""

from functools import partial
from itertools import product

from .linalg import (RatMatrix, _tidy, flatten, subcomplex_cohomology,
                     unflatten)
from .algebra import FinBimodule, InvalidStructure
from .shuffles import perm_action_matrix


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
        shape = (bimodule.dim, algebra.dim ** n)
        if (matrix.rows, matrix.cols) != shape:
            raise InvalidStructure(
                "a Hochschild %d-cochain is a %d x %d matrix, got %d x %d"
                % ((n,) + shape + (matrix.rows, matrix.cols)))

    def is_zero(self):
        return self.matrix.is_zero()


def hoch_differential(algebra, bimodule, n):
    """The matrix of d: C^n(A, M) -> C^{n+1}(A, M) on flattened cochains.

    d(phi)(x_0, ..., x_n) = x_0 phi(x_1, ..., x_n)
                            + sum_{i=1}^{n} (-1)^i phi(..., x_{i-1} x_i, ...)
                            + (-1)^{n+1} phi(x_0, ..., x_{n-1}) x_n.

    Each term is written entry by entry into one dict per column, by the
    word rule: the output r of a word w sits at w * m + r (d = dim A,
    m = dim M, mu the d x d^2 multiplication matrix, L_a and R_a the
    actions of the basis element a on M), and column w * m + s holds what
    the coordinate s of phi(w) contributes.

        x_0 phi(...)              L_a from the word w to the word (a, w)
        phi(.., x_{i-1} x_i, ..)  (-1)^i mu[c, (a, b)] along the run of
                                  d^{n-i} m coordinates from (u, c) to
                                  (u, a, b), u a word of length i - 1
        phi(...) x_n              (-1)^{n+1} R_a from w to (w, a)

    Entry for entry this is the Kronecker sum vstack_a(1_{d^n} (x) L_a)
    + sum_i 1_{d^{i-1}} (x) (-1)^i mu^T (x) 1_{d^{n-i} m}
    + 1_{d^n} (x) (-1)^{n+1} vstack_a(R_a) of vec(L X R) = (R^T (x) L) vec X.
    """
    d, m = algebra.dim, bimodule.dim
    size = d ** n * m
    out = [{} for _ in range(size)]     # the columns, {row: value} each
    for a, left in enumerate(bimodule.left):
        # the first term writes distinct entries
        block = [(s, a * size + r, v) for s, col in left._c.items()
                 for r, v in col.items()]
        for base in range(0, size, m):
            for s, r, v in block:
                out[base + s][base + r] = v
    mu = [(c, ab, v) for ab, col in algebra.mult_matrix()._c.items()
          for c, v in col.items()]
    for i in range(1, n + 1):
        run = d ** (n - i) * m
        terms = [(ab * run, c * run, (-1) ** i * v) for c, ab, v in mu]
        for row0 in range(0, size * d, d * d * run):
            col0 = row0 // d
            for dr, dc, v in terms:
                first = row0 + dr
                for r, col in zip(range(first, first + run),
                                  out[col0 + dc:col0 + dc + run]):
                    col[r] = col.get(r, 0) + v
    sign = (-1) ** (n + 1)
    for a, right in enumerate(bimodule.right):
        block = [(s, a * m + r, sign * v) for s, col in right._c.items()
                 for r, v in col.items()]
        for base in range(0, size, m):
            for s, r, v in block:
                col = out[base + s]
                r += base * d
                col[r] = col.get(r, 0) + v
    for col in out:
        _tidy(col)
    return RatMatrix._from_column_list(size * d, out)


def d_hoch(phi):
    """The Hochschild differential of a cochain."""
    big = hoch_differential(phi.algebra, phi.bimodule, phi.n)
    d = phi.algebra.dim
    m = phi.bimodule.dim
    flat = flatten(phi.matrix)
    out = big.apply(flat)
    return HCochain(phi.algebra, phi.bimodule, phi.n + 1,
                    unflatten(out, m, d ** (phi.n + 1)))


def is_normalized(phi):
    """True iff phi vanishes whenever some argument is the unit u, for any
    unit: phi.matrix @ (1_{d^i} (x) u (x) 1_{d^{n-1-i}}) = 0 for each slot
    i < n, d = dim A.  Proof: words put the first letter most significant,
    as `RatMatrix.kron` does its left factor, so that product is the map
    A^{(x)(n-1)} -> A^{(x) n} inserting u in slot i, and phi composed with it
    is phi with u in slot i, which is zero iff phi vanishes there."""
    d, one = phi.algebra.dim, RatMatrix.identity
    unit = RatMatrix.from_cols([phi.algebra.unit])
    return all((phi.matrix @ one(d ** i).kron(unit).kron(
        one(d ** (phi.n - 1 - i)))).is_zero() for i in range(phi.n))


def normalized_coordinates(algebra, m_dim, n):
    """Flat coordinates of C^n(A, M) spanning the normalized subcomplex.

    Requires the unit of A to be a basis vector so that normalization is a
    coordinate condition (InvalidStructure otherwise).
    """
    u = algebra.unit_index()
    if u is None:
        raise InvalidStructure("the unit of %s is not a basis vector; rebase "
                               "the algebra (rebased_with_unit) first"
                               % algebra.name)
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
    return -1 if lam % 2 else 1


def op_matrix(n, m_dim, a_dim):
    """The opposite map on flat n-cochains Hom(A^{(x) n}, M), dim M = m_dim
    and dim A = a_dim: the place-permutation action of the reversal of the
    n arguments (`shuffles.perm_action_matrix`) times op_sign(n)."""
    reversal = tuple(reversed(range(n)))
    return perm_action_matrix(reversal, m_dim, a_dim).scale(op_sign(n))


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

def is_algebra_deformation(algebra, m1_matrix):
    """Axiom-level check that (A[eps], m + m1*eps) is an associative unital
    Q[eps]-algebra with the unit of A (no cochain conditions consulted)."""
    return not algebra.dual_extension(m1_matrix).axiom_failures()


def deformation_cocycle_check(algebra, m1_matrix):
    """Cochain-level counterpart: m1 normalized and d_Hoch(m1) = 0."""
    bim = FinBimodule.regular(algebra)
    phi = HCochain(algebra, bim, 2, m1_matrix)
    return is_normalized(phi) and d_hoch(phi).is_zero()
