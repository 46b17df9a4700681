"""First-order twisted deformations of a presheaf of algebras.

A candidate triple (m1, f1, c1) in bidegrees (0,2), (1,1), (2,0) determines

    (A[eps], m + m1 eps, f + f1 eps, 1 + c1 eps),

which is a twisted presheaf of Q[eps]-algebras precisely when the triple is
a normalized reduced 2-cocycle of the total complex.  `deform` builds the
candidate (representing Q[eps]-algebras as Q-algebras of doubled dimension
and eps-linear maps as lower-triangular block matrices: the eps-doubling
of `algebra`), runs the full twisted-presheaf axiom checker, independently
evaluates the cochain conditions, and insists the two verdicts agree.
Equivalences (1 + g1 eps, 1 + tau1 eps) are handled the same way against
the morphism axioms.

The cochain side is the `normalized_reduced` subcomplex of the presheaf's
own `GSComplex` (`nonzero_cells`, `op_cochain`; a complex of another
presheaf raises InvalidStructure).  The axiom side uses no GS formula, so
it stays an independent cross-check.
"""

from .linalg import RatMatrix, VerificationFailed, submatrix, zero_vector
from .algebra import FinAlgebra, InvalidStructure, eps_block, eps_element
from .presheaf import TwistedPresheaf, check_twisted_morphism
from .gs import GSCochain, GSComplex


class NotACocycle(Exception):
    """Raised by `deform` when the candidate triple fails; the message names
    the first broken identity and the witnessing morphisms."""

    def __init__(self, failures):
        self.failures = failures
        super().__init__("; ".join(failures[:4]))


def _verify(holds, what):
    """Raise VerificationFailed(what) unless the checked identity holds."""
    if not holds:
        raise VerificationFailed(what)


def _complex_of(presheaf, gs):
    """gs, which must be the GS complex of this very presheaf
    (InvalidStructure otherwise), or a new one when gs is None."""
    if gs is None:
        return GSComplex(presheaf)
    if gs.presheaf is not presheaf:
        raise InvalidStructure("the GS complex belongs to another presheaf")
    return gs


def _verify_same(built, expected, what):
    """Check that two twisted presheaves on one category have the same
    products, restrictions and twists (VerificationFailed otherwise)."""
    cat = built.category
    for obj in cat.objects:
        _verify(built.algebras[obj].mult == expected.algebras[obj].mult,
                "%s: products differ at %s" % (what, obj))
    for name in cat.morphisms:
        _verify(built.restrictions[name] == expected.restrictions[name],
                "%s: restrictions differ at %s" % (what, name))
    for pair in cat.composable_pairs():
        _verify(built.twist(*pair) == expected.twist(*pair),
                "%s: twists differ at %s" % (what, pair,))


class CandidateTriple:
    """(m1, f1, c1) with missing blocks treated as zero.

    m1 maps objects to matrices A(U) (x) A(U) -> A(U); f1 maps morphism
    names u: V -> U to matrices A(U) -> A(V); c1 maps 2-simplex arrow pairs
    (u1, u2) to elements of A(source u1).
    """

    def __init__(self, presheaf, m1=None, f1=None, c1=None):
        self.presheaf = presheaf
        self.m1 = dict(m1 or {})
        self.f1 = dict(f1 or {})
        self.c1 = {tuple(k): tuple(v) for k, v in (c1 or {}).items()}

    def m1_at(self, obj):
        a = self.presheaf.algebras[obj]
        return self.m1.get(obj, RatMatrix.zeros(a.dim, a.dim ** 2))

    def f1_at(self, name):
        m = self.presheaf.category.morphisms[name]
        return self.f1.get(name, RatMatrix.zeros(
            self.presheaf.algebras[m.source].dim,
            self.presheaf.algebras[m.target].dim))

    def c1_at(self, arrows):
        dom = self.presheaf.category.source(arrows[0])
        return self.c1.get(tuple(arrows),
                           zero_vector(self.presheaf.algebras[dom].dim))

    def as_cochain(self, gs):
        """(m1, f1, c1) as a sparse degree-2 GSCochain of gs, a complex of
        this presheaf: the blocks given, the others read as zero."""
        cat = _complex_of(self.presheaf, gs).category
        return GSCochain(2, {
            (0, 2): {(obj,): mat for obj, mat in self.m1.items()},
            (1, 1): {(cat.source(name), name): mat
                     for name, mat in self.f1.items()},
            (2, 0): {(cat.source(arrows[0]),) + arrows:
                     RatMatrix.from_cols([vec])
                     for arrows, vec in self.c1.items()}})


# The message naming a nonzero cell of d(theta), or of theta off the
# normalized or the normalized reduced coordinates, per bidegree (p, q);
# the fields are the cell's simplex key (domain, u_1, ..., u_p).
_DEVIATION = {
    (0, 3): "associativity deviation at {0}: d_Hoch(m1) != 0",
    (1, 2): "restriction-hom deviation at {1}: d_simp(m1) - d_Hoch(f1) != 0",
    (2, 1): "twist-conjugation deviation at ({2}, {1}): "
            "-d_simp(f1) + d_Hoch(c1) != 0",
    (3, 0): "twist-cocycle deviation at ({3}, {2}, {1}): d_simp(c1) != 0",
}
_NOT_NORMALIZED = {(0, 2): "m1 not normalized at {0}",
                   (1, 1): "f1 not normalized at {1} (f1(1) != 0)"}
_NOT_REDUCED = {(1, 1): "f1 not reduced at identity {1}",
                (2, 0): "c1 not reduced at degenerate simplex {1};{2}"}


def _named(table, cells):
    return [table[c.p, c.q].format(*c.sigma.key()) for c in cells]


def cochain_failures(presheaf, triple, gs=None):
    """The cochain-side obstructions, named by the structure they deform:
    the nonzero cells of d(theta), sorted by simplex key within each
    bidegree, then the cells where theta leaves the normalized coordinates,
    then the degenerate cells where it leaves the normalized reduced ones
    (an identity f1 with f1(1) != 0 is named by both).

    Returns [] exactly when theta = (m1, f1, c1) is a cocycle of the
    `normalized_reduced` subcomplex of gs.
    """
    gs = _complex_of(presheaf, gs)
    theta = triple.as_cochain(gs)
    deviations = sorted(gs.nonzero_cells(gs.d(theta)),
                        key=lambda cell: (cell.p, cell.sigma.key()))
    off_normalized = gs.nonzero_cells(theta, "normalized")
    degenerate = [cell for cell in gs.nonzero_cells(
        theta, "normalized_reduced") if cell.sigma.is_degenerate()]
    return (_named(_DEVIATION, deviations) +
            _named(_NOT_NORMALIZED, off_normalized) +
            _named(_NOT_REDUCED, degenerate))


def build_twisted_candidate(presheaf, triple):
    """The twisted presheaf (A[eps], m + m1 eps, f + f1 eps, 1 + c1 eps) on
    doubled algebras, without any validity judgement."""
    cat = presheaf.category
    algebras = {}
    for obj, a in presheaf.algebras.items():
        algebras[obj] = a.dual_extension(triple.m1_at(obj))
    restrictions = {}
    for name in cat.morphisms:
        restrictions[name] = eps_block(presheaf.restrictions[name],
                                       triple.f1_at(name))
    twists = {}
    for (u, v) in cat.composable_pairs():
        w_obj = cat.source(v)
        c1 = triple.c1_at((v, u))
        if any(c1):
            twists[(u, v)] = eps_element(presheaf.algebras[w_obj].unit, c1)
    return TwistedPresheaf(cat, algebras, restrictions, twists)


class TwistedDeformation:
    """A validated first-order twisted deformation."""

    def __init__(self, base, triple, twisted):
        self.base = base
        self.triple = triple
        self.twisted = twisted

    def reduction_mod_eps(self):
        """The presheaf this deformation reduces to mod eps, read off the
        top blocks: the products e_i e_j of the doubled algebras, the
        restrictions and the twists.  It must be the base presheaf, twists
        included (VerificationFailed otherwise); returns it."""
        cat, twisted = self.base.category, self.twisted
        algebras = {}
        for obj, a in self.base.algebras.items():
            top, d = twisted.algebras[obj], a.dim
            algebras[obj] = FinAlgebra(
                d, [[top.mult[i][j][:d] for j in range(d)] for i in range(d)],
                top.unit[:d], name=a.name, check=False)
        restrictions = {name: submatrix(twisted.restrictions[name],
                                        range(mat.rows), range(mat.cols))
                        for name, mat in self.base.restrictions.items()}
        twists = {(u, v): twisted.twist(u, v)[:algebras[cat.source(v)].dim]
                  for u, v in cat.composable_pairs()}
        reduced = TwistedPresheaf(cat, algebras, restrictions, twists)
        _verify_same(reduced, self.base, "reduction mod eps")
        return reduced


def bidirectional_verdicts(presheaf, triple, gs=None):
    """(axiom verdict, cochain verdict) for a candidate triple: the twisted
    presheaf axioms of the built deformation on one side, normalized reduced
    cocyclehood on the other.  They coincide for every input."""
    candidate = build_twisted_candidate(presheaf, triple)
    axiom_failures = candidate.check()
    cochain_fails = cochain_failures(presheaf, triple, gs=gs)
    return (not axiom_failures, not cochain_fails, candidate, cochain_fails)


def deform(presheaf, m1=None, f1=None, c1=None, gs=None):
    """Deform a strict presheaf by a candidate (m1, f1, c1).

    Runs the exact twisted-presheaf axiom checker on the built candidate
    and, independently, the cochain conditions; the two verdicts always
    agree (VerificationFailed otherwise).  Returns the TwistedDeformation,
    checked to reduce to the presheaf mod eps (`reduction_mod_eps`), or
    raises NotACocycle naming the failed identities.  A presheaf with
    twists has no GS complex (`gs.NotStrict`).
    """
    gs = _complex_of(presheaf, gs)
    triple = m1 if isinstance(m1, CandidateTriple) else \
        CandidateTriple(presheaf, m1, f1, c1)
    axiom_ok, cochain_ok, candidate, cochain_fails = \
        bidirectional_verdicts(presheaf, triple, gs=gs)
    _verify(axiom_ok == cochain_ok,
            "axiom checker and cochain conditions disagree: %s"
            % cochain_fails[:3])
    if not cochain_ok:
        raise NotACocycle(cochain_fails)
    deformation = TwistedDeformation(presheaf, triple, candidate)
    deformation.reduction_mod_eps()
    return deformation


def deformation_from_cochain(presheaf, theta):
    """Repackage a degree-2 GSCochain as a candidate triple."""
    m1 = {key[0]: mat for key, mat in theta.component(0, 2).items()}
    f1 = {key[1]: mat for key, mat in theta.component(1, 1).items()}
    c1 = {tuple(key[1:]): mat.column(0)
          for key, mat in theta.component(2, 0).items()}
    return CandidateTriple(presheaf, m1, f1, c1)


class EquivalencePair:
    """(g1, tau1) aspiring to an equivalence (1 + g1 eps, 1 + tau1 eps)."""

    def __init__(self, presheaf, g1=None, tau1=None):
        self.presheaf = presheaf
        self.g1 = dict(g1 or {})
        self.tau1 = dict(tau1 or {})

    def g1_at(self, obj):
        d = self.presheaf.algebras[obj].dim
        return self.g1.get(obj, RatMatrix.zeros(d, d))

    def tau1_at(self, name):
        src = self.presheaf.category.source(name)
        return self.tau1.get(name, zero_vector(self.presheaf.algebras[src].dim))

    def as_cochain(self, gs):
        """(g1, -tau1) as a sparse degree-1 GSCochain of gs, a complex of
        this presheaf (the sign comes from the direction conventions of the
        morphism identities)."""
        cat = _complex_of(self.presheaf, gs).category
        return GSCochain(1, {
            (0, 1): {(obj,): mat for obj, mat in self.g1.items()},
            (1, 0): {(cat.source(name), name):
                     RatMatrix.from_cols([tuple(-x for x in vec)])
                     for name, vec in self.tau1.items()}})


def equivalence(def_a, def_b, pair, gs=None):
    """Decide whether (1 + g1 eps, 1 + tau1 eps) is an isomorphism of
    twisted deformations def_a -> def_b.

    The morphism axioms are evaluated exactly over Q[eps], and independently
    the cochain equation d(g1, -tau1) = triple_a - triple_b with (g1, -tau1)
    normalized reduced; both verdicts are returned and checked equal
    (VerificationFailed otherwise).
    """
    base = def_a.base
    if def_b.base is not base:
        raise InvalidStructure("the deformations have different bases")
    gs = _complex_of(base, gs)
    cat = base.category
    g_blocks = {}
    for obj in cat.objects:
        d = base.algebras[obj].dim
        g_blocks[obj] = eps_block(RatMatrix.identity(d), pair.g1_at(obj))
    tau_elems = {}
    for name in cat.morphisms:
        src = cat.source(name)
        tau_elems[name] = eps_element(base.algebras[src].unit,
                                      pair.tau1_at(name))
    axiom_fails = check_twisted_morphism(def_a.twisted, def_b.twisted,
                                         g_blocks, tau_elems)
    axiom_verdict = not axiom_fails

    chain = pair.as_cochain(gs)
    cochain_verdict = (
        gs.d(chain) == def_a.triple.as_cochain(gs) -
        def_b.triple.as_cochain(gs) and
        not gs.nonzero_cells(chain, "normalized_reduced"))
    _verify(axiom_verdict == cochain_verdict,
            "morphism axioms and cochain equation disagree: %s"
            % axiom_fails[:3])
    return {
        "isomorphism": axiom_verdict,
        "axiom_failures": axiom_fails,
        "cochain_equation_holds": cochain_verdict,
    }


def opposite_deformation(defn):
    """The deformation of the opposite presheaf by the opposite cochain
    (`GSComplex.op_cochain`), which in degree 2 is (m1 with its two
    arguments swapped, f1, -c1); structurally equal to the opposite of the
    given deformation (checked; VerificationFailed otherwise)."""
    gs = GSComplex(defn.base)
    base_op = defn.base.opposite()
    theta_op = gs.op_cochain(defn.triple.as_cochain(gs))
    result = deform(base_op, deformation_from_cochain(base_op, theta_op))
    _verify_same(result.twisted, defn.twisted.opposite(),
                 "opposite deformation")
    return result


def central_underlying(defn, gs=None):
    """For a deformation of a commutative presheaf: the twists are central
    and the underlying presheaf is the deformation along (m1, f1, 0), whose
    pair is a cocycle of the truncated complex: d(m1, f1) vanishes on the
    coordinates that `truncated` keeps.

    That last condition needs no check of its own: `deform` succeeds on
    (m1, f1, 0) only when d(m1, f1, 0) = 0 on all of C^3, and the
    coordinates `truncated` keeps are a subset of those of C^3."""
    base = defn.base
    gs = _complex_of(base, gs)
    gs.require_commutative()
    _verify(defn.twisted.has_central_twists(), "the twists are not central")
    triple = CandidateTriple(base, defn.triple.m1, defn.triple.f1, {})
    underlying = deform(base, triple, gs=gs)
    _verify_same(underlying.twisted, defn.twisted.underlying_presheaf(),
                 "underlying presheaf")
    return underlying
