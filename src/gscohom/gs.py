"""The Gerstenhaber-Schack double complex of a strict presheaf of algebras.

C^{p,q} assigns to every p-simplex sigma of the nerve a Hochschild q-cochain
of A(c sigma) with values in A(d sigma), the bimodule structure coming from
the composite restriction f^sigma.  The total differential in degree n is

    d = (-1)^{n+1} d_simp + d_Hoch,

with the simplicial differential acting along the rows (coefficients in the
tensor-power presheaf) and the Hochschild differential acting down the
columns.  Flat coordinates are ordered by p ascending, then simplex, then
column-major within each cochain matrix; `GSComplex.cells` is the one place
that lays them out, and each subcomplex kind is a rule on one cell
(`GSComplex._kept_in_cell`).

Besides total cohomology on the full / normalized / reduced / truncated
subcomplexes, this module provides the bottom-row splitting for commutative
presheaves, the opposite-cochain isomorphism, the Hodge splitting by
Eulerian idempotents, and the lift of top Hodge components through the
restriction maps.  The Hodge summands are computed as the eigenspaces of
the total shuffle operator on each cell, which are certified to be the
images of the idempotents (`GSComplex.hodge_eigendata`), and one solve per
(n, r) both checks that d^n keeps a summand and restricts d^n to it.
"""

from collections import namedtuple
from fractions import Fraction
from functools import partial
from math import factorial

# re-exported: NotASubcomplex, which used to live here, and KINDS;
# linalg.cohomology is imported as linalg_cohomology, the name under which
# bench/tracer.py's tests look for it in this module
from .linalg import (KINDS, RatMatrix, NotASubcomplex,  # noqa: F401
                     ShapeMismatch, UsageError, exact, flatten, is_closed,
                     memo, subcomplex_cohomology, _primitive_lines,
                     cohomology as linalg_cohomology, VerificationFailed)
from .algebra import AlgebraHom, FinBimodule, InvalidStructure
from .simplicial import ModPresheaf, PairComplex
from .hochschild import (hoch_differential, op_matrix,
                         normalized_coordinates)
from .shuffles import (element_action_matrix, hodge_range,
                       shuffle_eigenvalue, total_shuffle_operator)


class NotCommutative(UsageError):
    """A Hodge splitting or a bottom-row splitting was asked of a presheaf
    whose algebras are not all commutative."""


class NotStrict(UsageError, InvalidStructure):
    """A GS complex, and so a deformation or a Hodge splitting, was asked of
    a presheaf with a twist that is not the unit."""


class Cell(namedtuple("Cell", "p q sigma algebra rows cols start")):
    """The cell of C^{p,q} at the p-simplex sigma: the cochain matrices
    Hom(A(c sigma)^{(x) q}, A(d sigma)), rows x cols with algebra =
    A(c sigma), whose column-major entries are the flat coordinates
    start, ..., stop - 1 of C^{p+q}."""
    __slots__ = ()

    @property
    def stop(self):
        return self.start + self.rows * self.cols


class GSCochain:
    """A total-degree-n cochain: components[(p, q)][simplex key] is the
    cochain matrix Hom(A(c sigma)^{(x) q}, A(d sigma))."""

    def __init__(self, degree, components):
        self.degree = degree
        self.components = components

    def component(self, p, q):
        return self.components.get((p, q), {})

    def __add__(self, other):
        if self.degree != other.degree:
            raise InvalidStructure("cochains of degrees %d and %d cannot be "
                                   "added" % (self.degree, other.degree))
        out = {key: dict(blk) for key, blk in self.components.items()}
        for key, blk in other.components.items():
            mine = out.setdefault(key, {})
            for sk, mat in blk.items():
                mine[sk] = mine[sk] + mat if sk in mine else mat
        return GSCochain(self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        out = {}
        for key, blk in self.components.items():
            out[key] = {sk: m.scale(c) for sk, m in blk.items()}
        return GSCochain(self.degree, out)

    def is_zero(self):
        return all(m.is_zero() for blk in self.components.values()
                   for m in blk.values())

    def __eq__(self, other):
        return self.degree == other.degree and \
            (self - other).is_zero()


class GSComplex:
    def __init__(self, presheaf):
        if not presheaf.is_strict():
            raise NotStrict("the GS complex needs a strict presheaf (no "
                            "twists)")
        self.presheaf = presheaf
        self.category = presheaf.category
        self.module_presheaf = ModPresheaf.of_algebras(presheaf)

    # -- layout

    @memo()
    def pair(self, q):
        return PairComplex(self.module_presheaf.tensor_power(q),
                           self.module_presheaf)

    @memo()
    def cells(self, n):
        """The cells of C^n in flat order, one `Cell` per (p, q = n - p) and
        p-simplex, with the simplices and their cochain shapes taken from
        the pair complex of row q."""
        cells, start = [], 0
        for p in range(n + 1):
            for sigma, rows, cols, _ in self.pair(n - p).layout(p)[0]:
                cells.append(Cell(p, n - p, sigma,
                                  self.presheaf.algebras[sigma.codomain],
                                  rows, cols, start))
                start += rows * cols
        return cells

    def dim(self, n):
        return sum(cell.rows * cell.cols for cell in self.cells(n))

    # -- differentials

    @memo()
    def _restrictions(self, p):
        """f^sigma per p-simplex sigma, in nerve order: the product of the
        restrictions along sigma, carried as f^{d_p sigma} f^{u_p}."""
        if p == 0:
            return [RatMatrix.identity(self.presheaf.algebras[obj].dim)
                    for obj in self.category.objects]
        below = self._restrictions(p - 1)
        return [self._then(below[faces[-1]], s.arrows[-1]) for s, faces
                in zip(self.category.nerve(p), self.category.faces(p - 1))]

    @memo()
    def _then(self, f, u):
        return f @ self.presheaf.restrictions[u]

    @memo()
    def _bimodule(self, c, d, f):
        """A(d) as an A(c)-bimodule through f: A(c) -> A(d)."""
        algebras = self.presheaf.algebras
        return FinBimodule.along(AlgebraHom(algebras[c], algebras[d], f,
                                            check=False))

    def simp_block(self, p, q):
        """d_simp: C^{p,q} -> C^{p+1,q} (row differential)."""
        return self.pair(q).differential(p)

    def hoch_block(self, p, q):
        """d_Hoch: C^{p,q} -> C^{p,q+1} (column differential), block
        diagonal over the p-simplices."""
        return RatMatrix.block_diag(self._local_blocks(p, q))

    def _local_blocks(self, p, q):
        """The local Hochschild differentials of the p-simplices, in nerve
        order: A(c sigma) into A(d sigma) through f^sigma."""
        return [self._local_hoch(obj, bimod, q)
                for obj, bimod in self._bimodules(p)]

    @memo()
    def _bimodules(self, p):
        """(c sigma, A(d sigma) as an A(c sigma)-bimodule through f^sigma)
        per p-simplex sigma, in nerve order; the same for every q."""
        return [(s.codomain, self._bimodule(s.codomain, s.domain, f))
                for s, f in zip(self.category.nerve(p),
                                self._restrictions(p))]

    @memo(key=lambda self, obj, bimod, q: (obj, bimod.dim, bimod.left,
                                           bimod.right, q))
    def _local_hoch(self, obj, bimod, q):
        """hoch_differential of A(obj) into bimod, memoised on the object,
        the actions and q: a composite's bimodule often equals a
        1-simplex's, so most sharing is across p."""
        return hoch_differential(self.presheaf.algebras[obj], bimod, q)

    @memo()
    def differential(self, n):
        """The total differential C^n -> C^{n+1}, written column by column
        at the cells' offsets, one dict {row: value} per column of C^n:
        (-1)^{n+1} d_simp from the cells of (p, q) to those of (p+1, q)
        (`PairComplex.write_differential`), and the columns of the local
        d_Hoch of each p-simplex from its cell of (p, q) to its cell of
        (p, q+1), copied with their rows shifted.  The two write distinct
        rows of a column.  The cells of C^n and the first cells of C^{n+1}
        are the same simplices in the same order, p by p, so the two lists
        pair up cell for cell."""
        src, tgt = self.cells(n), self.cells(n + 1)
        col0, row0 = {}, {}             # p -> start of its first cell
        for cell in src:
            col0.setdefault(cell.p, cell.start)
        for cell in tgt:
            row0.setdefault(cell.p, cell.start)
        columns = [{} for _ in range(self.dim(n))]
        for p in range(n + 1):
            self.pair(n - p).write_differential(
                p, columns, row0.get(p + 1, 0), col0.get(p, 0),
                (-1) ** (n + 1))
        blocks = (blk for p in range(n + 1)
                  for blk in self._local_blocks(p, n - p))
        for cell, image, blk in zip(src, tgt, blocks):
            r, c = image.start, cell.start
            for j, col in blk._c.items():
                target = columns[c + j]
                for i, v in col.items():
                    target[r + i] = v
        return RatMatrix._from_column_list(self.dim(n + 1), columns)

    # -- cochain packing

    def flatten_cochain(self, theta):
        """The flat coordinates of theta (missing blocks are zero).  A block
        whose (p, q) or simplex key names no cell of C^n, n = theta.degree,
        raises ShapeMismatch, and so does a block not shaped like its
        cell."""
        cells = self.cells(theta.degree)
        named = {(cell.p, cell.q, cell.sigma.key()) for cell in cells}
        for (p, q), blocks in theta.components.items():
            for key in blocks:
                if (p, q, key) not in named:
                    raise ShapeMismatch("a block at %r of C^%d,%d names no "
                                        "cell of C^%d"
                                        % (key, p, q, theta.degree))
        vec = []
        for cell in cells:
            mat = theta.component(cell.p, cell.q).get(cell.sigma.key())
            if mat is None:
                mat = RatMatrix.zeros(cell.rows, cell.cols)
            elif (mat.rows, mat.cols) != (cell.rows, cell.cols):
                raise ShapeMismatch(
                    "a %d x %d block at the %d x %d cell %r of C^%d,%d"
                    % (mat.rows, mat.cols, cell.rows, cell.cols,
                       cell.sigma.key(), cell.p, cell.q))
            vec.extend(flatten(mat))
        return tuple(vec)

    def unflatten_cochain(self, n, vec):
        """The cochain with the flat coordinates vec (ShapeMismatch unless
        vec has dim C^n coordinates): a block at every cell, each built from
        the nonzero coordinates that fall in its cell, which are read off
        vec once, in flat order."""
        if len(vec) != self.dim(n):
            raise ShapeMismatch("%d coordinates for C^%d of dimension %d"
                                % (len(vec), n, self.dim(n)))
        nonzero = [(idx, exact(v)) for idx, v in enumerate(vec) if v]
        nonzero.append((len(vec), None))        # a sentinel past every cell
        comps, k = {}, 0
        for cell in self.cells(n):
            by_col = {}
            while nonzero[k][0] < cell.stop:
                idx, v = nonzero[k]
                k += 1
                j, i = divmod(idx - cell.start, cell.rows)
                col = by_col.get(j)
                if col is None:
                    by_col[j] = {i: v}
                else:
                    col[i] = v
            comps.setdefault((cell.p, cell.q), {})[cell.sigma.key()] = \
                RatMatrix._trusted(cell.rows, cell.cols, by_col)
        return GSCochain(n, comps)

    def d(self, theta):
        vec = self.flatten_cochain(theta)
        return self.unflatten_cochain(theta.degree + 1,
                                      self.differential(theta.degree).apply(vec))

    # -- subcomplexes

    def _kept_in_cell(self, kind, cell):
        """The local coordinates (0, ..., rows * cols - 1) of the cell that
        the subcomplex `kind` keeps: `truncated` drops the q = 0 cells,
        `reduced` the cells of degenerate simplices, and `normalized` keeps
        the `normalized_coordinates` of the q >= 1 cells."""
        if kind not in KINDS:
            raise ValueError("unknown subcomplex kind %r; expected one of %s"
                             % (kind, ", ".join(KINDS)))
        if "truncated" in kind and cell.q == 0 or \
                "reduced" in kind and cell.sigma.is_degenerate():
            return ()
        if "normalized" in kind and cell.q >= 1:
            return self._normalized(cell.algebra, cell.rows, cell.q)
        return range(cell.rows * cell.cols)

    @memo()
    def _normalized(self, algebra, rows, q):
        """`normalized_coordinates` of a cell of this shape, built once per
        complex: the cells of one shape repeat across simplices and p.  The
        list is shared and never mutated."""
        return normalized_coordinates(algebra, rows, q)

    @memo()
    def kept_coordinates(self, kind, n):
        """The flat coordinates of C^n that the subcomplex `kind` keeps,
        built once per (kind, n); the list is shared and never mutated."""
        return [cell.start + c for cell in self.cells(n)
                for c in self._kept_in_cell(kind, cell)]

    def nonzero_cells(self, theta, kind=None):
        """The cells of theta's degree, in flat order, where theta is
        nonzero at a coordinate that the subcomplex `kind` drops (anywhere,
        by default).  The cell rule runs on every cell, so a kind that
        cannot be read on a cell raises even where theta is zero."""
        out = []
        for cell in self.cells(theta.degree):
            kept = () if kind is None else set(self._kept_in_cell(kind, cell))
            mat = theta.component(cell.p, cell.q).get(cell.sigma.key())
            if mat is not None and any(j * cell.rows + i not in kept
                                       for j, col in mat._c.items()
                                       for i in col):
                out.append(cell)
        return out

    def check_subcomplex(self, kind, n):
        """The differential must not leak out of the selected coordinates."""
        if not is_closed(self.differential(n), self.kept_coordinates(kind, n),
                         self.kept_coordinates(kind, n + 1)):
            raise NotASubcomplex(
                "kind %s is not closed under d at degree %d" % (kind, n))
        return True

    def cohomology(self, n, kind="full"):
        """(betti, representative GSCochains) of H^n on the given subcomplex."""
        keep = check = None
        if kind != "full":
            keep = partial(self.kept_coordinates, kind)
            check = partial(self.check_subcomplex, kind)
        betti, reps = subcomplex_cohomology(self.differential, n, keep, check)
        return betti, [self.unflatten_cochain(n, v) for v in reps]

    # -- the opposite-cochain isomorphism

    def op_matrix(self, n):
        """The blockwise opposite map C^n(A) -> C^n(A^op): on each cell
        Hom(A(c sigma)^{(x) q}, A(d sigma)), `hochschild.op_matrix`."""
        return RatMatrix.block_diag([
            op_matrix(cell.q, cell.rows, cell.algebra.dim)
            for cell in self.cells(n)])

    def op_cochain(self, theta):
        """Transport a cochain to the opposite presheaf (an involution).

        Returns the new GSCochain; to interpret it, build the GS complex of
        presheaf.opposite(), whose cells coincide with these.
        """
        n = theta.degree
        vec = self.flatten_cochain(theta)
        return self.unflatten_cochain(n, self.op_matrix(n).apply(vec))

    # -- bottom-row splitting (commutative presheaves)

    def require_commutative(self):
        for obj in self.category.objects:
            if not self.presheaf.algebras[obj].is_commutative():
                raise NotCommutative("algebra at %s is not commutative" % obj)

    def check_bottom_row_split(self, n):
        """For commutative presheaves the bottom row is a subcomplex, i.e.
        the projection onto it is a chain map.

        hoch_block(n, 0) decides it: d^n maps the bottom row C^{n,0} of C^n
        by d_simp into C^{n+1,0}, the bottom row of C^{n+1}, and by
        d_Hoch = hoch_block(n, 0) into C^{n,1}, which meets that row in 0;
        so d^n keeps the row exactly when hoch_block(n, 0) = 0.  That block
        sends m in A(d sigma) to a -> f^sigma(a) m - m f^sigma(a), which is 0
        when A(d sigma) is commutative."""
        self.require_commutative()
        if not self.hoch_block(n, 0).is_zero():
            raise NotASubcomplex("bottom row is not a subcomplex")
        return True

    def split_cohomology(self, n):
        """(total, truncated, bottom) Betti numbers at degree n; for a
        commutative presheaf total = truncated + bottom."""
        self.require_commutative()
        self.check_bottom_row_split(n)
        total = self.cohomology(n, "full")[0]
        truncated = self.cohomology(n, "truncated")[0]
        bottom = self.pair(0).cohomology(n)[0]
        return total, truncated, bottom

    # -- Hodge splitting
    #
    # The r-th Hodge summand of a cell Hom(A^{(x) q}, M) is the image of the
    # Eulerian idempotent e_q(r), which is the eigenspace of the total
    # shuffle operator s_q for lambda_r = 2^r - 2 (`hodge_eigendata`).  So
    # the summands and the lifts act by s_q, which has 2^q - 2 terms, and
    # never by e_q(r), which has up to q! of them; stability and cohomology
    # need only the bases (`_hodge_restricted`).  All of it is integral: s_q
    # and the bases have int entries.

    @memo()
    def hodge_eigendata(self, q, a_dim):
        """(S, kernels) on Hom(A^{(x) q}, Q) for dim A = a_dim, built once
        per (q, a_dim) and complex: S is the int action of s_q
        (`element_action_matrix`), and S = (-1) = lambda_0 for q = 0;
        kernels maps each r of `hodge_range(q)` whose eigenspace
        K_r = ker(S - lambda_r) is nonzero to a basis of it with integer
        columns.  The certificate sum_r dim K_r = a_dim^q is checked
        (VerificationFailed otherwise).  The kernels are computed for
        r = 1, 2, ... until their dimensions add up to a_dim^q; the higher
        eigenspaces, which are often 0, are then 0 by the same argument.

        Proof that then ker(rho(s_q) - lambda_r) = im rho(e_q(r)) for every
        r >= 0, rho being the action.  The lambda_r are distinct, so the
        K_r are independent, and as their dimensions add up to a_dim^q the
        space is their direct sum: S is diagonalizable with spectrum in
        {lambda_r : K_r != 0}, and ker(S - lambda) = 0 for every other
        lambda.  For q >= 1, e_q(r) = L_r(s_q), the Lagrange interpolant
        over lambda_1, ..., lambda_q (module docstring of `shuffles`), and
        rho(p(s_q)) = p(S) for every polynomial p, so rho(e_q(r)) = L_r(S)
        acts on K_j as L_r(lambda_j) = delta_rj: it is the projector onto
        K_r along the other eigenspaces, and its image is K_r.  For r outside
        hodge_range(q), e_q(r) = 0 and lambda_r is no eigenvalue, so both
        sides are 0.  For q = 0, e_0(0) = 1 and S = lambda_0 make both sides
        the whole line.  The action on Hom(A^{(x) q}, M) is rho (x) id_M on
        the flat coordinates word * dim M + i, so there the summand has the
        basis K_r (x) 1_M, and S (x) 1_M acts.  The proof uses neither the
        closed form nor the q! coefficients of e_q(r).
        """
        if q == 0:
            return RatMatrix.identity(1).scale(-1), {0: RatMatrix.identity(1)}
        shuffle = element_action_matrix(total_shuffle_operator(q), 1, a_dim)
        kernels, filled = {}, 0
        for r in hodge_range(q):
            if filled == shuffle.rows:
                break
            basis = _shifted(shuffle, r).kernel().matrix()
            if basis.cols:
                kernels[r] = RatMatrix._trusted(basis.rows, basis.cols, dict(
                    zip(basis._c, _primitive_lines(basis._c.values()))))
                filled += basis.cols
        if filled != shuffle.rows:
            raise VerificationFailed("the eigenspaces of s_%d do not fill "
                                     "Q^%d" % (q, shuffle.rows))
        return shuffle, kernels

    @memo()
    def hodge_basis(self, n, r):
        """B_r(n): a basis of the r-th Hodge summand of C^n as the columns
        of an int matrix, block diagonal over the cells: K_r (x) 1_M of
        `hodge_eigendata` where K_r is nonzero, no columns elsewhere (the
        summand is 0 there).  Only the eigendata of the cells with r in
        hodge_range(q) are built."""
        blocks = []
        for cell in self.cells(n):
            kernels = self.hodge_eigendata(cell.q, cell.algebra.dim)[1] \
                if r in hodge_range(cell.q) else {}
            blocks.append(kernels.get(r, RatMatrix.zeros(cell.cols, 0)).kron(
                RatMatrix.identity(cell.rows)))
        return RatMatrix.block_diag(blocks)

    @memo()
    def _hodge_restricted(self, n, r):
        """d^n restricted to the r-th Hodge summands: the X with
        B_r(n+1) X = d^n B_r(n), or None when d^n B_r(n) leaves the span of
        B_r(n+1); the stability check and the summand cohomology share it.

        This is as strong as checking (S_{n+1} - lambda_r) d^n B_r(n) = 0,
        where S_{n+1} acts on each cell of C^{n+1} as S (x) 1_M.  On each
        cell `hodge_eigendata` certifies that K_r spans ker(S - lambda_r),
        and that lambda_r is no eigenvalue of S where K_r is missing (r
        outside hodge_range(q), or K_r = 0).  So span B_r(n+1) =
        ker(S_{n+1} - lambda_r), and the system is solvable exactly when
        (S_{n+1} - lambda_r) d^n B_r(n) = 0."""
        return self.hodge_basis(n + 1, r).solve_many(
            self.differential(n) @ self.hodge_basis(n, r))

    @memo()
    def _scaled_eigenprojectors(self, q, a_dim):
        """{r: q! rho(e_q(r))} on Hom(A^{(x) q}, Q) for the r with K_r != 0,
        from the eigendata: S is diagonalizable with spectrum
        {lambda_r : K_r != 0}, so the Lagrange interpolant L_r(S) over that
        spectrum, prod_{j != r} (S - lambda_j) / (lambda_r - lambda_j), is
        the projector onto K_r along the other eigenspaces, which is
        rho(e_q(r)) (`hodge_eigendata`)."""
        shuffle, kernels = self.hodge_eigendata(q, a_dim)
        out = {}
        for r in kernels:
            proj, den = RatMatrix.identity(shuffle.rows), 1
            for j in kernels:
                if j != r:
                    proj = proj @ _shifted(shuffle, j)
                    den *= shuffle_eigenvalue(r) - shuffle_eigenvalue(j)
            out[r] = proj.scale(Fraction(factorial(q), den))
        return out

    @memo()
    def hodge_projector(self, n, r):
        """n! P_r(n), where the Hodge projector P_r(n) acts on C^n by the
        degree-matching Eulerian idempotent: e_q(r) on each (p, q)
        component (identity for q = 0, r = 0).  Its blocks are the integral
        q! rho(e_q(r)) of `_scaled_eigenprojectors`, tensored with 1_M and
        scaled by n!/q!, so every entry is an int; built once per (n, r)."""
        order = factorial(n)
        blocks = []
        for cell in self.cells(n):
            q, size = cell.q, cell.rows * cell.cols
            proj = self._scaled_eigenprojectors(q, cell.algebra.dim).get(r) \
                if r in hodge_range(q) else None
            blocks.append(proj.kron(RatMatrix.identity(cell.rows)).scale(
                order // factorial(q)) if proj else RatMatrix.zeros(size, size))
        return RatMatrix.block_diag(blocks)

    def hodge_split(self, theta):
        """theta = sum_r theta_r with theta_r in the image of the r-th
        idempotent in every bidegree; the r = 0 part is the bottom row.
        theta_r = (n! P_r) theta / n!, and sum_r (n! P_r) theta = n! theta
        is checked (VerificationFailed otherwise), which is sum_r theta_r =
        theta times n!."""
        self.require_commutative()
        n = theta.degree
        order = factorial(n)
        vec = self.flatten_cochain(theta)
        parts = {}
        total = [0] * self.dim(n)
        for r in range(n + 1):
            pvec = self.hodge_projector(n, r).apply(vec)
            parts[r] = self.unflatten_cochain(
                n, [Fraction(x, order) if x else 0 for x in pvec])
            total = [a + b for a, b in zip(total, pvec)]
        if total != [order * x for x in vec]:
            raise VerificationFailed("Hodge components do not sum back")
        return parts

    def check_hodge_stability(self, n, r):
        """Both differentials preserve the r-component: d^n maps the r-th
        summand of C^n into that of C^{n+1}, decided by the solve of
        `_hodge_restricted`."""
        return self._hodge_restricted(n, r) is not None

    def hodge_cohomology(self, n, r):
        """Betti number of the r-Hodge summand at degree n (commutative
        presheaves): the cohomology of d^{n-1} and d^n restricted to the
        summands (`_hodge_restricted`); NotASubcomplex if either leaks."""
        self.require_commutative()
        d_out = self._hodge_restricted(n, r)
        d_in = self._hodge_restricted(n - 1, r) if n >= 1 else \
            RatMatrix.zeros(self.hodge_basis(n, r).cols, 0)
        if d_in is None or d_out is None:
            raise NotASubcomplex("d^%d or d^%d leaves the Hodge summand "
                                 "r = %d" % (n - 1, n, r))
        return linalg_cohomology(d_in, d_out)[0]


def _shifted(shuffle, r):
    """S - lambda_r."""
    return shuffle - RatMatrix.identity(shuffle.rows).scale(
        shuffle_eigenvalue(r))


def factor_through_restrictions(gs, p, r, component):
    """Lift a top Hodge component through the tensor powers of the
    restriction maps.

    `component` maps p-simplex keys to cochain matrices at bidegree (p, r)
    satisfying theta e_r(r) = theta, checked as theta rho(s_r) =
    lambda_r theta (VerificationFailed otherwise): the image of e_r(r) is
    that eigenspace (`GSComplex.hodge_eigendata`).  For each simplex the
    exact linear system  Theta o (f^sigma)^{(x) r} = theta  is solved; the
    result maps simplex keys to dicts with the lifted matrix (a multilinear
    cochain on A(d sigma)) and a uniqueness flag, or records the simplices
    where no factorization exists.
    """
    lam = shuffle_eigenvalue(r)
    out = {"lifts": {}, "failures": []}
    for sigma, f_sigma in zip(gs.category.nerve(p), gs._restrictions(p)):
        theta = component.get(sigma.key())
        if theta is None or theta.is_zero():
            continue
        a_d = gs.presheaf.algebras[sigma.domain]
        a_c = gs.presheaf.algebras[sigma.codomain]
        action = gs.hodge_eigendata(r, a_c.dim)[0].kron(
            RatMatrix.identity(a_d.dim))
        flat = flatten(theta)
        if action.apply(flat) != tuple(lam * x for x in flat):
            raise VerificationFailed("component at %s is not fixed by the top "
                                     "idempotent" % sigma.label())
        big = f_sigma.kron_power(r)          # A(c)^{(x) r} -> A(d)^{(x) r}
        big_t = big.transpose()
        lift_t = big_t.solve_many(theta.transpose())
        if lift_t is None:
            out["failures"].append(sigma.label())
            continue
        unique = big_t.kernel().dim == 0
        out["lifts"][sigma.key()] = {"matrix": lift_t.transpose(),
                                     "unique": unique}
    return out
