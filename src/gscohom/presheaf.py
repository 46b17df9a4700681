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

from .linalg import RatMatrix, memo
from .algebra import AlgebraHom, InvalidStructure


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

    def twist(self, u, v):
        """c^{u,v}, an element of A(source v); defaults to 1."""
        w_obj = self.category.source(v)
        return self.twists.get((u, v), self.algebras[w_obj].unit)

    def z_element(self, obj):
        return self.z.get(obj, self.algebras[obj].unit)

    def _twist_elements(self):
        """(algebra, element) for every twist c^{u,v}, in pair order, then
        for every z^U."""
        cat = self.category
        return [(self.algebras[cat.source(v)], self.twist(u, v))
                for u, v in cat.composable_pairs()] + \
            [(self.algebras[o], self.z_element(o)) for o in cat.objects]

    @memo()
    def is_strict(self):
        """Every twist and z is 1; decided once per presheaf, which is never
        changed after construction."""
        return all(x == a.unit for a, x in self._twist_elements())

    # -- constructions

    def opposite(self):
        """Opposite twisted presheaf: algebras opposed, twists inverted."""
        algebras = {o: a.opposite() for o, a in self.algebras.items()}
        twists = {}
        for (u, v) in self.category.composable_pairs():
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

    @memo()
    def has_central_twists(self):
        """Every twist and z is central; decided once per presheaf, like
        `is_strict`."""
        return all(a.is_central(x) for a, x in self._twist_elements())

    def underlying_presheaf(self):
        """Forget central twists; only meaningful when has_central_twists()."""
        if not self.has_central_twists():
            raise InvalidStructure("the twists are not central")
        return TwistedPresheaf(self.category, self.algebras, self.restrictions)

    # -- verification

    def check(self):
        """Verify every axiom exactly; returns the (possibly empty) failure
        list, each entry (identity-name, witness...).

        The algebra axioms are `FinAlgebra.axiom_failures`, each restriction
        is judged by `AlgebraHom`, and the z- and twist-conjugations are
        matrix identities L_x F = R_y G (`FinAlgebra.conjugates`).  The
        identities need restrictions of the right shapes, so if one is
        ill-shaped the list holds only the restriction_shape entries.
        """
        cat = self.category
        fails = [("restriction_shape", name)
                 for name, m in sorted(cat.morphisms.items())
                 if (self.restrictions[name].rows, self.restrictions[name].cols)
                 != (self.algebras[m.source].dim, self.algebras[m.target].dim)]
        if fails:
            return fails
        for obj in cat.objects:
            a = self.algebras[obj]
            for f in a.axiom_failures():
                fails.append(("algebra:" + f[0], obj) + f[1:])
            zu = self.z_element(obj)
            if a.two_sided_inverse(zu) is None:
                fails.append(("z_invertible", obj))
            if not a.conjugates(zu, RatMatrix.identity(a.dim), zu,
                                self.restrictions[cat.identity(obj)]):
                fails.append(("z_conjugation", obj))
        for name, m in sorted(cat.morphisms.items()):
            # f^u: A(U) -> A(V), U the target of u
            hom = AlgebraHom(self.algebras[m.target], self.algebras[m.source],
                             self.restrictions[name], check=False)
            if not hom.is_unital():
                fails.append(("restriction_unital", name))
            if not hom.is_multiplicative():
                fails.append(("restriction_multiplicative", name))
        pairs = cat.composable_pairs()
        for (u, v) in pairs:
            aw = self.algebras[cat.source(v)]
            c = self.twist(u, v)
            if aw.two_sided_inverse(c) is None:
                fails.append(("twist_invertible", u, v))
                continue
            fuv = self.restrictions[cat.compose(u, v)]
            if not aw.conjugates(c, self.restrictions[v] @ self.restrictions[u],
                                 c, fuv):
                fails.append(("twist_conjugation", u, v))
        for (u, v) in pairs:
            for w in sorted(cat.morphisms):
                if cat.target(w) != cat.source(v):
                    continue
                at = self.algebras[cat.source(w)]
                lhs = at.mul(self.twist(u, cat.compose(v, w)), self.twist(v, w))
                rhs = at.mul(self.twist(cat.compose(u, v), w),
                             self.restrictions[w].apply(self.twist(u, v)))
                if lhs != rhs:
                    fails.append(("twist_cocycle", u, v, w))
        for name, m in sorted(cat.morphisms.items()):
            av = self.algebras[m.source]
            id_v, id_u = cat.identity(m.source), cat.identity(m.target)
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
        g_obj = AlgebraHom(src.algebras[obj], tgt.algebras[obj], g[obj],
                           check=False)
        if not g_obj.is_multiplicative():
            fails.append(("g_multiplicative", obj))
        if not g_obj.is_unital():
            fails.append(("g_unital", obj))
    for name in sorted(cat.morphisms):
        m = cat.morphisms[name]
        ap_v = tgt.algebras[m.source]
        t = tau[name]
        if ap_v.two_sided_inverse(t) is None:
            fails.append(("tau_invertible", name))
            continue
        # g^V(f^u(a)) tau = tau f'^u(g^U(a)), as L_tau F' G^U = R_tau G^V F
        if not ap_v.conjugates(t, tgt.restrictions[name] @ g[m.target],
                               t, g[m.source] @ src.restrictions[name]):
            fails.append(("restriction_intertwiner", name))
    for (u, v) in cat.composable_pairs():
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

