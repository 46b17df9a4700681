"""Presheaves and twisted presheaves of algebras on a finite category.

A twisted presheaf assigns an algebra A(U) to every object, an algebra map
f^u = u*: A(U) -> A(V) to every u: V -> U, an invertible twist element
c^{u,v} in A(W) to every composable pair (u: V -> U, v: W -> V), and an
invertible z^U in A(U) per object, subject to

    c^{u,v} v*u*(a) = (uv)*(a) c^{u,v},
    c^{u,vw} c^{v,w} = c^{uv,w} w*(c^{u,v}),
    c^{u,1_V} z^V = 1,   c^{1_U,u} u*(z^U) = 1,
    z^U a = f^{1_U}(a) z^U.

`check` verifies all of this exactly and reports every failed identity with
its witnessing morphisms.  Strict presheaves are the case c = 1, z = 1.
"""

from .linalg import RatMatrix
from .algebra import InvalidStructure


class TwistedPresheaf:
    def __init__(self, category, algebras, restrictions, twists=None, z=None):
        self.category = category
        self.algebras = dict(algebras)            # object -> FinAlgebra
        self.restrictions = dict(restrictions)    # morphism name -> RatMatrix
        self.twists = dict(twists or {})          # (u, v) names -> element of A(W)
        self.z = dict(z or {})                    # object -> element of A(U)
        for obj in category.objects:
            if obj not in self.algebras:
                raise InvalidStructure("missing algebra at %s" % obj)
        for name in category.morphisms:
            if name not in self.restrictions:
                raise InvalidStructure("missing restriction at %s" % name)

    # -- basic access

    def algebra(self, obj):
        return self.algebras[obj]

    def restriction(self, name):
        """The matrix of f^u: A(target u) -> A(source u)."""
        return self.restrictions[name]

    def twist(self, u, v):
        """c^{u,v}, an element of A(source v); defaults to 1."""
        w_obj = self.category.source(v)
        return self.twists.get((u, v), self.algebras[w_obj].unit)

    def z_element(self, obj):
        return self.z.get(obj, self.algebras[obj].unit)

    def composable_pairs(self):
        """All (u, v) with v: W -> V, u: V -> U, in lexicographic order."""
        cat = self.category
        out = []
        for u in sorted(cat.morphisms):
            for v in sorted(cat.morphisms):
                if cat.target(v) == cat.source(u):
                    out.append((u, v))
        return out

    def is_strict(self):
        for (u, v) in self.composable_pairs():
            w_obj = self.category.source(v)
            if self.twist(u, v) != self.algebras[w_obj].unit:
                return False
        return all(self.z_element(o) == self.algebras[o].unit
                   for o in self.category.objects)

    def restriction_along(self, simplex):
        """f^sigma: A(c sigma) -> A(d sigma) for a nerve simplex of a strict
        presheaf (composition of the arrows' restriction maps)."""
        mat = RatMatrix.identity(self.algebras[simplex.domain].dim)
        for name in simplex.arrows:
            mat = mat @ self.restrictions[name]
        return mat

    # -- constructions

    def opposite(self):
        """Opposite twisted presheaf: algebras opposed, twists inverted."""
        algebras = {o: a.opposite() for o, a in self.algebras.items()}
        twists = {}
        for (u, v) in self.composable_pairs():
            w_obj = self.category.source(v)
            c = self.twist(u, v)
            if c != self.algebras[w_obj].unit:
                inv = self.algebras[w_obj].two_sided_inverse(c)
                if inv is None:
                    raise InvalidStructure("twist %s is not invertible"
                                           % ((u, v),))
                twists[(u, v)] = inv
        z = {}
        for o in self.category.objects:
            zu = self.z_element(o)
            if zu != self.algebras[o].unit:
                inv = self.algebras[o].two_sided_inverse(zu)
                if inv is None:
                    raise InvalidStructure("z at %s is not invertible" % o)
                z[o] = inv
        return TwistedPresheaf(self.category, algebras, self.restrictions,
                               twists, z)

    def has_central_twists(self):
        for (u, v) in self.composable_pairs():
            w_obj = self.category.source(v)
            if not self.algebras[w_obj].is_central(self.twist(u, v)):
                return False
        return all(self.algebras[o].is_central(self.z_element(o))
                   for o in self.category.objects)

    def underlying_presheaf(self):
        """Forget central twists; only meaningful when has_central_twists()."""
        if not self.has_central_twists():
            raise InvalidStructure("the twists are not central")
        return TwistedPresheaf(self.category, self.algebras, self.restrictions)

    # -- verification

    def check(self):
        """Verify every axiom exactly; returns the (possibly empty) failure
        list, each entry (identity-name, witness...)."""
        cat = self.category
        fails = []
        for obj in cat.objects:
            a = self.algebras[obj]
            for f in a.axiom_failures():
                fails.append(("algebra:" + f[0], obj) + f[1:])
            zu = self.z_element(obj)
            if a.two_sided_inverse(zu) is None:
                fails.append(("z_invertible", obj))
            fid = cat.identity(obj)
            f1 = self.restrictions[fid]
            for e in a.basis():
                if a.mul(zu, e) != a.mul(f1.apply(e), zu):
                    fails.append(("z_conjugation", obj))
                    break
        for name in sorted(cat.morphisms):
            m = cat.morphisms[name]
            src_alg = self.algebras[m.target]    # f^u: A(U) -> A(V), U = target
            tgt_alg = self.algebras[m.source]
            f = self.restrictions[name]
            if f.rows != tgt_alg.dim or f.cols != src_alg.dim:
                fails.append(("restriction_shape", name))
                continue
            if f.apply(src_alg.unit) != tgt_alg.unit:
                fails.append(("restriction_unital", name))
            ok = True
            for i in range(src_alg.dim):
                for j in range(src_alg.dim):
                    lhs = f.apply(src_alg.mult[i][j])
                    rhs = tgt_alg.mul(f.column(i), f.column(j))
                    if lhs != rhs:
                        ok = False
            if not ok:
                fails.append(("restriction_multiplicative", name))
        pairs = self.composable_pairs()
        for (u, v) in pairs:
            w_obj = cat.source(v)
            u_obj = cat.target(u)
            aw = self.algebras[w_obj]
            c = self.twist(u, v)
            if aw.two_sided_inverse(c) is None:
                fails.append(("twist_invertible", u, v))
                continue
            fu = self.restrictions[u]
            fv = self.restrictions[v]
            fuv = self.restrictions[cat.compose(u, v)]
            for e in self.algebras[u_obj].basis():
                lhs = aw.mul(c, fv.apply(fu.apply(e)))
                rhs = aw.mul(fuv.apply(e), c)
                if lhs != rhs:
                    fails.append(("twist_conjugation", u, v))
                    break
        for (u, v) in pairs:
            for w in sorted(cat.morphisms):
                if cat.target(w) != cat.source(v):
                    continue
                t_obj = cat.source(w)
                at = self.algebras[t_obj]
                lhs = at.mul(self.twist(u, cat.compose(v, w)), self.twist(v, w))
                rhs = at.mul(self.twist(cat.compose(u, v), w),
                             self.restrictions[w].apply(self.twist(u, v)))
                if lhs != rhs:
                    fails.append(("twist_cocycle", u, v, w))
        for name in sorted(cat.morphisms):
            m = cat.morphisms[name]
            av = self.algebras[m.source]
            id_v = cat.identity(m.source)
            id_u = cat.identity(m.target)
            if av.mul(self.twist(name, id_v), self.z_element(m.source)) != av.unit:
                fails.append(("twist_unit_right", name))
            if av.mul(self.twist(id_u, name),
                      self.restrictions[name].apply(self.z_element(m.target))) \
                    != av.unit:
                fails.append(("twist_unit_left", name))
        return fails

    def is_valid(self):
        return not self.check()


def strict_presheaf(category, algebras, restrictions):
    """A presheaf of algebras (trivial twists); functoriality is verified
    (InvalidStructure otherwise)."""
    p = TwistedPresheaf(category, algebras, restrictions)
    fails = p.check()
    if fails:
        raise InvalidStructure("not a presheaf: %s" % (fails[:4],))
    return p


def check_twisted_morphism(src, tgt, g, tau):
    """Verify (g, tau): src -> tgt as a morphism of twisted presheaves.

    g maps objects to matrices A(U) -> A'(U); tau maps morphism names to
    invertible elements of A'(V).  Returns the failure list for the five
    compatibility conditions (multiplicativity, unitality, the restriction
    intertwiner, the twist coherence, and the z condition).
    """
    cat = src.category
    fails = []
    for obj in cat.objects:
        a, ap = src.algebras[obj], tgt.algebras[obj]
        gm = g[obj]
        for i in range(a.dim):
            for j in range(a.dim):
                if gm.apply(a.mult[i][j]) != ap.mul(gm.column(i), gm.column(j)):
                    fails.append(("g_multiplicative", obj))
                    break
            else:
                continue
            break
        if gm.apply(a.unit) != ap.unit:
            fails.append(("g_unital", obj))
    for name in sorted(cat.morphisms):
        m = cat.morphisms[name]
        ap_v = tgt.algebras[m.source]
        if ap_v.two_sided_inverse(tau[name]) is None:
            fails.append(("tau_invertible", name))
            continue
        fu = src.restrictions[name]
        fu_p = tgt.restrictions[name]
        gv, gu = g[m.source], g[m.target]
        for e in src.algebras[m.target].basis():
            lhs = ap_v.mul(gv.apply(fu.apply(e)), tau[name])
            rhs = ap_v.mul(tau[name], fu_p.apply(gu.apply(e)))
            if lhs != rhs:
                fails.append(("restriction_intertwiner", name))
                break
    for (u, v) in src.composable_pairs():
        w_obj = cat.source(v)
        ap_w = tgt.algebras[w_obj]
        uv = cat.compose(u, v)
        lhs = ap_w.mul(tau[uv], tgt.twist(u, v))
        rhs = ap_w.mul(ap_w.mul(g[w_obj].apply(src.twist(u, v)), tau[v]),
                       tgt.restrictions[v].apply(tau[u]))
        if lhs != rhs:
            fails.append(("twist_coherence", u, v))
    for obj in cat.objects:
        ap = tgt.algebras[obj]
        lhs = ap.mul(tau[cat.identity(obj)], tgt.z_element(obj))
        rhs = g[obj].apply(src.z_element(obj))
        if lhs != rhs:
            fails.append(("z_condition", obj))
    return fails


def is_twisted_isomorphism(src, tgt, g, tau):
    """A morphism of twisted presheaves is an isomorphism iff every g^U is
    bijective."""
    if check_twisted_morphism(src, tgt, g, tau):
        return False
    return all(g[obj].is_invertible() for obj in src.category.objects)


def identity_morphism(presheaf):
    g = {o: RatMatrix.identity(presheaf.algebras[o].dim)
         for o in presheaf.category.objects}
    tau = {name: presheaf.algebras[m.source].unit
           for name, m in presheaf.category.morphisms.items()}
    return g, tau
