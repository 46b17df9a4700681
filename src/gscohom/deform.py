"""First-order twisted deformations of a presheaf of algebras.

A candidate triple (m1, f1, c1) in bidegrees (0,2), (1,1), (2,0) determines

    (A[eps], m + m1 eps, f + f1 eps, 1 + c1 eps),

which is a twisted presheaf of Q[eps]-algebras precisely when the triple is
a normalized reduced 2-cocycle of the total complex.  `deform` builds the
candidate (representing Q[eps]-algebras as Q-algebras of doubled dimension
and eps-linear maps as lower-triangular block matrices), runs the full
twisted-presheaf axiom checker, independently evaluates the cochain
conditions, and insists the two verdicts agree.  Equivalences (1 + g1 eps,
1 + tau1 eps) are handled the same way against the morphism axioms.
"""

from .linalg import RatMatrix, VerificationFailed, zero_vector
from .algebra import InvalidStructure
from .presheaf import TwistedPresheaf, check_twisted_morphism
from .gs import GSComplex, NotCommutative, cochain_from_parts
from .shuffles import perm_action_matrix


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
        parts = {(0, 2): {}, (1, 1): {}, (2, 0): {}}
        for obj, mat in self.m1.items():
            parts[(0, 2)][(obj,)] = mat
        for name, mat in self.f1.items():
            src = self.presheaf.category.source(name)
            parts[(1, 1)][(src, name)] = mat
        for arrows, vec in self.c1.items():
            dom = self.presheaf.category.source(arrows[0])
            parts[(2, 0)][(dom,) + tuple(arrows)] = \
                RatMatrix.from_cols([vec])
        return cochain_from_parts(gs, 2, parts)

    def m1_tensor(self, obj):
        """m1 at obj as a structure-constant correction tensor."""
        a = self.presheaf.algebras[obj]
        mat = self.m1_at(obj)
        return [[mat.column(i * a.dim + j) for j in range(a.dim)]
                for i in range(a.dim)]


def cochain_failures(presheaf, triple, gs=None):
    """The cochain-side obstructions, named by the structure they deform.

    Returns [] exactly when (m1, f1, c1) is a normalized reduced cocycle.
    """
    gs = gs or GSComplex(presheaf)
    cat = presheaf.category
    fails = []
    theta = triple.as_cochain(gs)
    d_theta = gs.d(theta)
    for (obj,), mat in sorted(d_theta.component(0, 3).items()):
        if not mat.is_zero():
            fails.append("associativity deviation at %s: d_Hoch(m1) != 0" % obj)
    for key, mat in sorted(d_theta.component(1, 2).items()):
        if not mat.is_zero():
            fails.append("restriction-hom deviation at %s: "
                         "d_simp(m1) - d_Hoch(f1) != 0" % key[1])
    for key, mat in sorted(d_theta.component(2, 1).items()):
        if not mat.is_zero():
            fails.append("twist-conjugation deviation at (%s, %s): "
                         "-d_simp(f1) + d_Hoch(c1) != 0" % (key[2], key[1]))
    for key, mat in sorted(d_theta.component(3, 0).items()):
        if not mat.is_zero():
            fails.append("twist-cocycle deviation at (%s, %s, %s): "
                         "d_simp(c1) != 0" % (key[3], key[2], key[1]))
    # normalization: vanishing on unit slots
    for obj in cat.objects:
        a = presheaf.algebras[obj]
        u = a.unit_index()
        if u is None:
            raise InvalidStructure("the unit of the algebra at %s is not a "
                                   "basis vector" % obj)
        mat = triple.m1_at(obj)
        for i in range(a.dim):
            if any(mat.column(u * a.dim + i)) or any(mat.column(i * a.dim + u)):
                fails.append("m1 not normalized at %s" % obj)
                break
    for name in sorted(cat.morphisms):
        m = cat.morphisms[name]
        u = presheaf.algebras[m.target].unit_index()
        if any(triple.f1_at(name).column(u)):
            fails.append("f1 not normalized at %s (f1(1) != 0)" % name)
    # reduction: vanishing on degenerate simplices
    for name in sorted(cat.morphisms):
        if cat.is_identity(name) and not triple.f1_at(name).is_zero():
            fails.append("f1 not reduced at identity %s" % name)
    for sigma in cat.nerve(2):
        if sigma.is_degenerate() and any(triple.c1_at(sigma.arrows)):
            fails.append("c1 not reduced at degenerate simplex %s" % sigma.label())
    return fails


def eps_block(m0, m1):
    """The matrix of m0 + m1*eps acting on doubled coordinates."""
    z = RatMatrix.zeros(m0.rows, m0.cols)
    return RatMatrix.block([[m0, z], [m1, m0]])


def eps_element(top, eps):
    return tuple(top) + tuple(eps)


def build_twisted_candidate(presheaf, triple):
    """The twisted presheaf (A[eps], m + m1 eps, f + f1 eps, 1 + c1 eps) on
    doubled algebras, without any validity judgement."""
    cat = presheaf.category
    algebras = {}
    for obj, a in presheaf.algebras.items():
        algebras[obj] = a.dual_extension(triple.m1_tensor(obj))
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
        """Project the deformation back to the original presheaf (top
        blocks); returns the strict presheaf and checks exact equality
        (VerificationFailed otherwise)."""
        cat = self.base.category
        for obj, a in self.base.algebras.items():
            doubled = self.twisted.algebras[obj]
            _verify(all(doubled.mult[i][j][:a.dim] == a.mult[i][j]
                        for i in range(a.dim) for j in range(a.dim)),
                    "the product mod eps differs at %s" % obj)
        restrictions = {}
        for name, mat in self.base.restrictions.items():
            big = self.twisted.restrictions[name]
            rows, cols = mat.rows, mat.cols
            top = RatMatrix(rows, cols,
                            {(i, j): big[i, j] for i in range(rows)
                             for j in range(cols)})
            _verify(top == mat, "the restriction mod eps differs at %s" % name)
            restrictions[name] = top
        return TwistedPresheaf(cat, self.base.algebras, restrictions)


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
    or raises NotACocycle naming the failed identities.
    """
    if not presheaf.is_strict():
        raise InvalidStructure("only a strict presheaf can be deformed")
    triple = m1 if isinstance(m1, CandidateTriple) else \
        CandidateTriple(presheaf, m1, f1, c1)
    axiom_ok, cochain_ok, candidate, cochain_fails = \
        bidirectional_verdicts(presheaf, triple, gs=gs)
    _verify(axiom_ok == cochain_ok,
            "axiom checker and cochain conditions disagree: %s"
            % cochain_fails[:3])
    if not cochain_ok:
        raise NotACocycle(cochain_fails)
    return TwistedDeformation(presheaf, triple, candidate)


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
        """(g1, -tau1) as a degree-1 cochain (the sign comes from the
        direction conventions of the morphism identities)."""
        parts = {(0, 1): {}, (1, 0): {}}
        for obj in self.presheaf.category.objects:
            parts[(0, 1)][(obj,)] = self.g1_at(obj)
        for name in self.presheaf.category.morphisms:
            src = self.presheaf.category.source(name)
            vec = tuple(-x for x in self.tau1_at(name))
            parts[(1, 0)][(src, name)] = RatMatrix.from_cols([vec])
        return cochain_from_parts(gs, 1, parts)


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

    gs = gs or GSComplex(base)
    chain = pair.as_cochain(gs)
    diff = gs.d(chain)
    target = def_a.triple.as_cochain(gs) - def_b.triple.as_cochain(gs)
    cochain_verdict = (diff == target)
    for obj in cat.objects:
        u = base.algebras[obj].unit_index()
        if any(pair.g1_at(obj).column(u)):
            cochain_verdict = False
    for name in cat.morphisms:
        if cat.is_identity(name) and any(pair.tau1_at(name)):
            cochain_verdict = False
    _verify(axiom_verdict == cochain_verdict,
            "morphism axioms and cochain equation disagree: %s"
            % axiom_fails[:3])
    return {
        "isomorphism": axiom_verdict,
        "axiom_failures": axiom_fails,
        "cochain_equation_holds": cochain_verdict,
    }


def opposite_deformation(defn, gs=None):
    """The deformation of the opposite presheaf by (m1 swapped, f1, -c1);
    structurally equal to the opposite of the given deformation (checked;
    VerificationFailed otherwise).  m1 is swapped by the place permutation
    of its two arguments."""
    base_op = defn.base.opposite()
    cat = defn.base.category
    m1_op = {obj: defn.triple.m1_at(obj) @ perm_action_matrix(
                 (1, 0), 1, defn.base.algebras[obj].dim)
             for obj in cat.objects}
    f1_op = dict(defn.triple.f1)
    c1_op = {k: tuple(-x for x in v) for k, v in defn.triple.c1.items()}
    result = deform(base_op, m1_op, f1_op, c1_op, gs=gs)
    expected = defn.twisted.opposite()
    for obj in cat.objects:
        _verify(result.twisted.algebras[obj].mult ==
                expected.algebras[obj].mult,
                "opposite deformation: products differ at %s" % obj)
    for name in cat.morphisms:
        _verify(result.twisted.restrictions[name] ==
                expected.restrictions[name],
                "opposite deformation: restrictions differ at %s" % name)
    for pair in cat.composable_pairs():
        _verify(result.twisted.twist(*pair) == expected.twist(*pair),
                "opposite deformation: twists differ at %s" % (pair,))
    return result


def central_underlying(defn, gs=None):
    """For a deformation of a commutative presheaf: the twists are central
    and the underlying presheaf is the deformation along (m1, f1, 0), whose
    pair is a cocycle of the truncated complex."""
    base = defn.base
    for obj in base.category.objects:
        if not base.algebras[obj].is_commutative():
            raise NotCommutative("algebra at %s is not commutative" % obj)
    _verify(defn.twisted.has_central_twists(), "the twists are not central")
    triple = CandidateTriple(base, defn.triple.m1, defn.triple.f1, {})
    underlying = deform(base, triple, gs=gs)
    expected = defn.twisted.underlying_presheaf()
    for obj in base.category.objects:
        _verify(underlying.twisted.algebras[obj].mult ==
                expected.algebras[obj].mult,
                "underlying presheaf: products differ at %s" % obj)
    for name in base.category.morphisms:
        _verify(underlying.twisted.restrictions[name] ==
                expected.restrictions[name],
                "underlying presheaf: restrictions differ at %s" % name)
    # the truncated-cocycle conditions for (m1, f1)
    gs = gs or GSComplex(base)
    theta = triple.as_cochain(gs)
    d_theta = gs.d(theta)
    for (p, q) in ((0, 3), (1, 2), (2, 1)):
        for mat in d_theta.component(p, q).values():
            _verify(mat.is_zero(), "truncated cocycle condition fails")
    return underlying
