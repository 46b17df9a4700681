"""Finite-dimensional unital associative algebras by structure constants.

Elements are coordinate tuples of exact numbers (`linalg.exact`: an int
where integral, else a Fraction).  Everything is validated at
construction: associativity of the structure tensor, two-sidedness of the
unit, multiplicativity of homomorphisms, module axioms.  A structure that
fails its axioms raises InvalidStructure.

Eps-doubling.  Algebras over the dual numbers Q[eps] (eps^2 = 0) stay
Q-algebras of doubled dimension on the basis (e_0..e_{d-1}, eps*e_0..
eps*e_{d-1}), so that all downstream linear algebra stays over Q: an
element x + y*eps is the tuple x followed by y (`eps_element`), an
eps-linear map m0 + m1*eps is the lower-triangular block matrix
[[m0, 0], [m1, m0]] (`eps_block`), and the algebra with multiplication
m + m1*eps is `FinAlgebra.dual_extension(m1)`.

Tensor coordinates.  The raw space M (x)_Q B of a tensor product has the
basis m_i (x) e_b at coordinate i*dim(B) + b, the index convention of
`RatMatrix.kron`: X.kron(Y) acts as X on the M factor and as Y on the B
factor.  A bilinear map out of M (x) B is therefore one matrix on the raw
space, and on a tensor quotient t = M (x)_A B it is that matrix times
t.section.  Linear conditions on an unknown matrix X are solved on the
column-major vec X (`linalg.vec_operator`, `linalg.unflatten`).
"""

from .linalg import (RatMatrix, VerificationFailed, exact, flatten, memo,
                     submatrix, unflatten, unit_vector, vec_operator,
                     zero_vector)


class InvalidStructure(ValueError):
    """An algebra, module or bimodule fails its axioms or its shapes."""


def _element_key(algebra, x):
    """The memo key of an element: its coordinates as a tuple."""
    return tuple(x)


class FinAlgebra:
    """A unital associative algebra of finite dimension over Q.

    mult[i][j] is the coordinate tuple of e_i * e_j.
    """

    def __init__(self, dim, mult, unit, name="A", check=True):
        self.dim = dim
        self.mult = tuple(tuple(tuple(exact(c) for c in mult[i][j])
                                for j in range(dim)) for i in range(dim))
        self.unit = tuple(exact(c) for c in unit)
        self.name = name
        if len(self.unit) != dim:
            raise InvalidStructure("unit has %d coordinates, not %d"
                                   % (len(self.unit), dim))
        if check:
            self._validate()

    def _validate(self):
        if any(len(v) != self.dim for row in self.mult for v in row):
            raise InvalidStructure("a product has the wrong length")
        fails = self.axiom_failures()
        if fails:
            raise InvalidStructure("algebra axioms fail: %s" % (fails[:3],))

    def axiom_failures(self):
        """Unit and associativity defects, as a list of readable tuples.

        The axioms are the matrix identities mu(u (x) 1) = 1 = mu(1 (x) u)
        and mu(mu (x) 1) = mu(1 (x) mu); the witnesses are the columns where
        they fail, e_i for the unit and e_i (x) e_j (x) e_k at column
        (i*dim + j)*dim + k for associativity.
        """
        d = self.dim
        mu, one = self.mult_matrix(), RatMatrix.identity(d)
        u = RatMatrix.from_cols([self.unit])
        unit_defects = (("unit_left", _defect_columns(mu @ u.kron(one), one)),
                        ("unit_right", _defect_columns(mu @ one.kron(u), one)))
        fails = [(name, i) for i in range(d) for name, cols in unit_defects
                 if i in cols]
        for c in sorted(_defect_columns(mu @ mu.kron(one),
                                        mu @ one.kron(mu))):
            i, jk = divmod(c, d * d)
            fails.append(("associativity", i) + divmod(jk, d))
        return fails

    def mul(self, x, y):
        return self.left_mult_matrix(x).apply(y)

    def basis(self):
        return [unit_vector(self.dim, i) for i in range(self.dim)]

    @memo(key=_element_key)
    def left_mult_matrix(self, x):
        """L_x, the matrix of y -> x*y, which is mu (x (x) 1).  Built once
        per element and kept: an algebra is never changed after
        construction, and an int and the equal Fraction are one key."""
        return _multiplication_by(x, self.mult)

    @memo(key=_element_key)
    def right_mult_matrix(self, x):
        """R_x, the matrix of y -> y*x, which is mu (1 (x) x); kept like
        L_x."""
        return _multiplication_by(x, tuple(zip(*self.mult)))

    @memo()
    def mult_matrix(self):
        """Multiplication as a matrix A (x) A -> A (basis e_i (x) e_j,
        index i*dim + j).  Built on the first call and kept: an algebra is
        never changed after construction."""
        return RatMatrix.from_cols([v for row in self.mult for v in row],
                                   ambient=self.dim)

    def is_commutative(self):
        return all(self.mult[i][j] == self.mult[j][i]
                   for i in range(self.dim) for j in range(self.dim))

    def is_central(self, x):
        """x a = a x for every a, as L_x = R_x."""
        return self.left_mult_matrix(x) == self.right_mult_matrix(x)

    def conjugates(self, x, f, y, g):
        """x f(a) = g(a) y for every a in the common source of the matrices
        f and g, as the matrix identity L_x F = R_y G."""
        return self.left_mult_matrix(x) @ f == self.right_mult_matrix(y) @ g

    @memo(key=_element_key)
    def two_sided_inverse(self, x):
        """The inverse of x, or None.  Solves x*y = 1 and checks y*x = 1,
        once per element (kept like L_x)."""
        y = self.left_mult_matrix(x).solve(self.unit)
        if y is None or self.mul(y, x) != self.unit:
            return None
        return y

    def unit_index(self):
        """Index i with unit = e_i, or None if the unit is not a basis vector."""
        nz = [i for i, c in enumerate(self.unit) if c != 0]
        if len(nz) == 1 and self.unit[nz[0]] == 1:
            return nz[0]
        return None

    def rebased_with_unit(self):
        """Return (algebra', change) with the unit a basis vector of algebra'.

        `change` maps new coordinates to old ones; it is the identity when
        no rebasing was needed.
        """
        if self.unit_index() is not None:
            return self, RatMatrix.identity(self.dim)
        pivot = next(i for i, c in enumerate(self.unit) if c != 0)
        cols = [self.unit if i == pivot else unit_vector(self.dim, i)
                for i in range(self.dim)]
        change = RatMatrix.from_cols(cols)
        inv = change.inverse()
        mu = inv @ self.mult_matrix() @ change.kron(change)
        mult = [[mu.column(i * self.dim + j) for j in range(self.dim)]
                for i in range(self.dim)]
        return FinAlgebra(self.dim, mult, inv.apply(self.unit),
                          name=self.name), change

    def opposite(self):
        """Same space, swapped multiplication."""
        mult = [[self.mult[j][i] for j in range(self.dim)] for i in range(self.dim)]
        return FinAlgebra(self.dim, mult, self.unit, name=self.name + "^op")

    def dual_extension(self, m1=None):
        """The dual-number algebra A[eps] with multiplication m + m1*eps, as
        a Q-algebra of dimension 2*dim (see Eps-doubling above).

        m1 is a 2-cochain matrix shaped like `mult_matrix()`: column
        i*dim + j holds m1(e_i, e_j).  None means the trivial extension.
        Not validated: A[eps] is associative iff m1 is a Hochschild
        cocycle, and has the unit of A iff m1 is normalized.
        """
        d = self.dim
        zero = zero_vector(d)
        mult = [[zero_vector(2 * d)] * (2 * d) for _ in range(2 * d)]
        for i in range(d):
            for j in range(d):
                top = self.mult[i][j]
                low = zero if m1 is None else m1.column(i * d + j)
                mult[i][j] = eps_element(top, low)
                mult[i][j + d] = mult[i + d][j] = eps_element(zero, top)
        return FinAlgebra(2 * d, mult, eps_element(self.unit, zero),
                          name=self.name + "[eps]", check=False)

    def __repr__(self):
        return "FinAlgebra(%s, dim %d)" % (self.name, self.dim)


class AlgebraHom:
    """A unital algebra morphism, stored as its matrix."""

    def __init__(self, source, target, matrix, check=True):
        self.source = source
        self.target = target
        self.matrix = matrix
        if (matrix.rows, matrix.cols) != (target.dim, source.dim):
            raise InvalidStructure("matrix shape does not fit the algebras")
        if check and not (self.is_multiplicative() and self.is_unital()):
            raise InvalidStructure("not a unital algebra morphism")

    def is_unital(self):
        return self.matrix.apply(self.source.unit) == self.target.unit

    def is_multiplicative(self):
        """f(xy) = f(x) f(y), as f m_A = m_B (f (x) f) on A (x) A."""
        f = self.matrix
        return f @ self.source.mult_matrix() == \
            self.target.mult_matrix() @ f.kron(f)

    def __call__(self, x):
        return self.matrix.apply(x)

    @staticmethod
    def identity(a):
        return AlgebraHom(a, a, RatMatrix.identity(a.dim), check=False)

    def __repr__(self):
        return "AlgebraHom(%s -> %s)" % (self.source.name, self.target.name)


class FinModule:
    """A finite-dimensional right module, given by right-multiplication
    matrices act[j]: m -> m * e_j."""

    def __init__(self, algebra, dim, action, check=True):
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)
        if len(self.action) != algebra.dim or any(
                (r.rows, r.cols) != (dim, dim) for r in self.action):
            raise InvalidStructure("need %d action matrices of shape %d x %d"
                                   % (algebra.dim, dim, dim))
        if check:
            self._validate()

    def _validate(self):
        """(m*a)*b = m*(ab) and m*1 = m, as identities of matrices on
        M (x) A (x) A and M."""
        a = self.algebra
        act = self.action_matrix()
        one = RatMatrix.identity(self.dim)
        if act @ one.kron(RatMatrix.from_cols([a.unit])) != one:
            raise InvalidStructure("action is not unital")
        if act @ act.kron(RatMatrix.identity(a.dim)) != \
                act @ one.kron(a.mult_matrix()):
            raise InvalidStructure("action is not associative")

    def action_matrix(self):
        """The action as a matrix M (x) A -> M (basis m_i (x) e_j, index
        i*dim(A) + j), the module analogue of FinAlgebra.mult_matrix."""
        n = self.algebra.dim
        return RatMatrix(self.dim, self.dim * n,
                         {(r, i * n + j): v
                          for j, act in enumerate(self.action)
                          for (r, i), v in act.items()})

    @staticmethod
    def free(algebra):
        """The algebra as a right module over itself."""
        return FinModule(algebra, algebra.dim,
                         [algebra.right_mult_matrix(e) for e in algebra.basis()],
                         check=False)

    @staticmethod
    def along(f):
        """The target of f: A -> B as a right A-module through f."""
        b = f.target
        return FinModule(f.source, b.dim,
                         [b.right_mult_matrix(f(e)) for e in f.source.basis()],
                         check=False)

    @staticmethod
    def zero(algebra):
        return FinModule(algebra, 0, [RatMatrix.zeros(0, 0)] * algebra.dim,
                         check=False)

    def restrict_to_submodule(self, incl):
        """The submodule spanned by the independent columns of the inclusion
        matrix `incl` (the span must be action-stable), with `incl`."""
        action = [incl.solve_many(r @ incl) for r in self.action]
        if any(x is None for x in action):
            raise InvalidStructure("span is not action-stable")
        return FinModule(self.algebra, incl.cols, action, check=False), incl

    def __repr__(self):
        return "FinModule(dim %d over %s)" % (self.dim, self.algebra.name)


class FinBimodule:
    """A bimodule: commuting left and right actions.

    left[i]: m -> e_i * m and right[j]: m -> m * e_j.  For Hochschild
    complexes over a map f: A -> B, use `FinBimodule.along` which makes B a
    bimodule over A through f.
    """

    def __init__(self, left_algebra, right_algebra, dim, left, right, check=True):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dim = dim
        self.left = tuple(left)
        self.right = tuple(right)
        if check:
            self._validate()

    def _validate(self):
        FinModule(self.right_algebra, self.dim, self.right)
        # left action: check as a right module over the opposite algebra
        FinModule(self.left_algebra.opposite(), self.dim, self.left)
        if any(l @ r != r @ l for l in self.left for r in self.right):
            raise InvalidStructure("left and right actions do not commute")

    @staticmethod
    def along(f):
        """The target of f: A -> B as an A-bimodule through f."""
        a, b = f.source, f.target
        left = [b.left_mult_matrix(f(e)) for e in a.basis()]
        right = [b.right_mult_matrix(f(e)) for e in a.basis()]
        return FinBimodule(a, a, b.dim, left, right, check=False)

    @staticmethod
    def regular(a):
        return FinBimodule.along(AlgebraHom.identity(a))


def eps_element(top, eps):
    """The element of A[eps] with top part top and eps-part eps, as a
    coordinate tuple on the doubled basis."""
    return tuple(top) + tuple(eps)


def eps_block(m0, m1):
    """The matrix of the eps-linear map m0 + m1*eps on doubled coordinates:
    [[m0, 0], [m1, m0]]."""
    z = RatMatrix.zeros(m0.rows, m0.cols)
    return RatMatrix.block([[m0, z], [m1, m0]])


def _multiplication_by(x, table):
    """The matrix of y -> sum_{i,j} x_i y_j table[i][j], read off the
    structure constants: column j is sum_i x_i table[i][j]."""
    entries = {}
    for i, xi in enumerate(x):
        if xi:
            for j, product in enumerate(table[i]):
                for k, c in enumerate(product):
                    if c:
                        entries[(k, j)] = entries.get((k, j), 0) + xi * c
    return RatMatrix(len(table), len(table), entries)


def _defect_columns(lhs, rhs):
    """The indices of the columns where two matrices differ."""
    return {j for (_, j), _ in (lhs - rhs).items()}


class QuotientModule:
    """A right module presented as raw space / relations, with projection
    and section matrices kept for mapping in and out."""

    def __init__(self, module, project, section, relations):
        self.module = module          # FinModule on the quotient coordinates
        self.project = project        # raw -> quotient
        self.section = section        # quotient -> raw (a choice of lifts)
        self.relations = relations    # raw-space matrix whose columns span the kernel

    @property
    def dim(self):
        return self.module.dim


def quotient_by_columns(raw_dim, rel_matrix):
    """Split Q^raw_dim by the column span of rel_matrix.

    Returns (project, section): project maps a raw vector to coordinates in
    a chosen complement basis, section embeds them back.  Both depend only
    on the span, not on the columns that present it.

    One elimination of combined = [rel | 1] gives both.  Its pivot columns
    before rel.cols pick a basis of span(rel) among the columns of rel; the
    ones at or past rel.cols are the identity columns e_j that complete it,
    each e_j outside span(rel) + span(e_k : k < j) (the rule by which
    `linalg.cohomology` picks its representatives, which depends only on
    span(rel)), and section is those e_j.  E = [basis | section]^-1 is read
    off the same elimination, column by column: a pivot e_j is column i of
    [basis | section] for its pivot's place i, so E e_j is the unit vector
    at i; a free e_j has the kernel column K of combined that is 1 at e_j
    and 0 at the other free columns (`RatMatrix._kernel_columns`), so
    combined . K = 0 says e_j = [basis | section] . (-K on the pivots), and
    E e_j is minus K on the pivots, in pivot order.  project is the rows of
    E at the pivots of section, which is the same matrix for every
    presentation of span(rel).

    Certificate (VerificationFailed), with B = [basis | section]:
      - E.B = 1_n.  The product is n x n only when there are n pivots;
        then E and B are square, so B is invertible with inverse E.  Hence
        Q^n = span(basis) (+) span(section), and project, the rows of
        B^-1 that give the section coordinates, has kernel span(basis) and
        satisfies project.section = 1.
      - project.rel = 0.  So span(rel) lies in the kernel of project, which
        is span(basis), a subspace of span(rel): the two spans are equal.
    Together: Q^n = span(rel) (+) span(section), and project is the
    projection along span(rel) in the coordinates of section.  The first
    identity alone says that [basis | section] has an inverse; the second
    rules out a basis that misses part of span(rel).
    """
    if rel_matrix.rows != raw_dim:
        raise InvalidStructure("relations with %d rows do not live in Q^%d"
                               % (rel_matrix.rows, raw_dim))
    cols = rel_matrix.cols
    combined = RatMatrix.hstack([rel_matrix, RatMatrix.identity(raw_dim)])
    pivots = combined.pivot_columns()
    place = {p: i for i, p in enumerate(pivots)}
    entries = {(place[p], p - cols): 1 for p in pivots if p >= cols}
    free = [j for j in range(cols, cols + raw_dim) if j not in place]
    for (c, k), x in combined._kernel_columns(free)._d.items():
        if c in place:
            entries[(place[c], free[k] - cols)] = -x
    inverse = RatMatrix._trusted(len(pivots), raw_dim, entries)
    basis = [p for p in pivots if p < cols]
    extra = [p - cols for p in pivots if p >= cols]
    rows = range(raw_dim)
    section = submatrix(RatMatrix.identity(raw_dim), rows, extra)
    project = submatrix(inverse, range(len(basis), len(pivots)), rows)
    spanning = RatMatrix.hstack([submatrix(rel_matrix, rows, basis), section])
    if inverse @ spanning != RatMatrix.identity(raw_dim) or \
            not (project @ rel_matrix).is_zero():
        raise VerificationFailed("the relations and their complement are "
                                 "not a basis")
    return project, section


def quotient_module(algebra, action, rel):
    """The right algebra-module Q^n / span(columns of rel), n = rel.rows,
    where action[k] is the n x n matrix of the k-th basis element on Q^n.
    The span must be stable under every action[k] (VerificationFailed
    otherwise); the basis element then acts on the quotient by
    project . action[k] . section.  Returns a QuotientModule."""
    project, section = quotient_by_columns(rel.rows, rel)
    induced = []
    for a in action:
        moved = project @ a
        if not (moved @ rel).is_zero():
            raise VerificationFailed("the relations are not stable under "
                                     "the action")
        induced.append(moved @ section)
    return QuotientModule(FinModule(algebra, project.rows, induced,
                                    check=False), project, section, rel)


def tensor_over(module, f):
    """M (x)_A B for a right A-module M along f: A -> B.

    The quotient of M (x)_Q B by the span of  m*a (x) b  -  m (x) f(a)b,
    carrying the induced right B-action.  Returns a QuotientModule.  The
    relations are the columns of  R^M_a (x) 1_B - 1_M (x) L_B(f(e_a)),
    side by side over the basis elements e_a of A.
    """
    b = f.target
    one_m, one_b = RatMatrix.identity(module.dim), RatMatrix.identity(b.dim)
    rel = RatMatrix.hstack(
        [r.kron(one_b) - one_m.kron(b.left_mult_matrix(f(e)))
         for r, e in zip(module.action, f.source.basis())])
    return quotient_module(b, [one_m.kron(b.right_mult_matrix(e))
                               for e in b.basis()], rel)


def module_hom_space(m, n):
    """Basis of Hom_A(M, N) (right module maps), as a list of matrices: the
    kernel of  vec X -> vec(X R^M_a - R^N_a X)  over all basis elements."""
    if m.algebra.dim != n.algebra.dim:
        raise InvalidStructure("modules over algebras of dims %d and %d"
                               % (m.algebra.dim, n.algebra.dim))
    one_m, one_n = RatMatrix.identity(m.dim), RatMatrix.identity(n.dim)
    system = RatMatrix.vstack(
        [vec_operator(one_n, rm) - vec_operator(rn, one_m)
         for rm, rn in zip(m.action, n.action)])
    return [unflatten(v, n.dim, m.dim) for v in system.kernel().basis]


def check_flat_epimorphism(f):
    """Diagnose whether f: A -> B is a right flat epimorphism of rings.

    Epimorphism: the multiplication B (x)_A B -> B is bijective (exact rank).
    Flatness: B is projective as a left A-module, detected by solving for an
    A-linear splitting s: B -> A^n of the evaluation surjection A^n -> B;
    for finite-dimensional modules projective and flat agree.
    """
    a, b = f.source, f.target
    t = tensor_over(FinModule.along(f), f)     # B (x)_A B
    mult_map = b.mult_matrix() @ t.section
    is_epi = (t.dim == b.dim) and mult_map.is_invertible()

    # the splitting S: B -> A^n, n = dim B, of pi: A^n -> B,
    # pi(x_1..x_n) = sum f(x_i) e_i; row i*dim(A) + k of S is the
    # coefficient of e_k in slot i.  A acts on B by a.b = f(a) b and on A^n
    # slotwise, so A-linearity is S L_B(f(e_t)) = (1_n (x) L_A(e_t)) S;
    # splitting is pi S = 1_B.
    one_b = RatMatrix.identity(b.dim)
    one_s = RatMatrix.identity(b.dim * a.dim)
    pi = RatMatrix.hstack([b.right_mult_matrix(e) @ f.matrix
                           for e in b.basis()])
    system = RatMatrix.vstack(
        [vec_operator(one_s, b.left_mult_matrix(f(e))) -
         vec_operator(RatMatrix.identity(b.dim).kron(a.left_mult_matrix(e)),
                      one_b)
         for e in a.basis()] + [vec_operator(pi, one_b)])
    rhs = RatMatrix.vstack([RatMatrix.zeros(system.rows - b.dim ** 2, 1),
                            RatMatrix.from_cols([flatten(one_b)])])
    is_flat = system.solve_many(rhs) is not None

    return {
        "epimorphism": is_epi,
        "tensor_square_dim": t.dim,
        "flat": is_flat,
    }
