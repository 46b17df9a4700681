"""Finite categories, posets with meets, and their simplicial nerves.

Objects and morphisms are interned string identifiers; all orderings used
for output are lexicographic so that every computation downstream is
deterministic.
"""

from collections import namedtuple

from .linalg import memo


class InvalidCategory(ValueError):
    """An explicit category lists an object twice, breaks a unit or
    associativity law, its composition table lacks or misplaces a
    composite, or its morphisms and identities do not fit its objects."""


class Morphism(namedtuple("Morphism", "name source target")):
    """The arrow `name: source -> target`, an immutable triple that is
    equal, hashed and ordered as (name, source, target)."""

    __slots__ = ()

    def __repr__(self):
        return "%s: %s -> %s" % self


class FiniteCategory:
    """A finite category with an explicit composition table.

    `compose(g, f)` is g after f (for f: A -> B, g: B -> C).  Associativity
    and the unit laws are verified exhaustively at construction
    (InvalidCategory otherwise).
    """

    def __init__(self, objects, morphisms, composition, identities):
        self.objects = tuple(sorted(objects))
        repeated = [a for a, b in zip(self.objects, self.objects[1:])
                    if a == b]
        if repeated:
            raise InvalidCategory("the object %s is listed twice"
                                  % repeated[0])
        self.morphisms = {m.name: m for m in morphisms}
        self._comp = dict(composition)      # (g.name, f.name) -> name of g o f
        self.identities = dict(identities)  # object -> morphism name
        self._validate()
        self._identity_arrows = frozenset(self.identities.values())

    def _validate(self):
        """Endpoints, identities, composites, the unit laws and
        associativity; InvalidCategory names the first that fails."""
        objs = set(self.objects)
        ends = {name: (m.source, m.target)
                for name, m in self.morphisms.items()}
        if any(not {s, t} <= objs for s, t in ends.values()) or \
                set(self.identities) != objs or \
                any(ends.get(i) != (o, o) for o, i in self.identities.items()):
            raise InvalidCategory("the morphisms and identities do not fit "
                                  "the objects")
        pairs = self.composable_pairs()
        for g, f in pairs:
            if ends.get(self._comp.get((g, f))) != (ends[f][0], ends[g][1]):
                raise InvalidCategory("the composite %s o %s is missing or "
                                      "has the wrong ends" % (g, f))
        for f, (s, t) in sorted(ends.items()):
            if self.compose(self.identities[t], f) != f or \
                    self.compose(f, self.identities[s]) != f:
                raise InvalidCategory("the unit law fails at %s" % f)
        for g, f in pairs:
            for h in sorted(ends):
                if ends[h][0] == ends[g][1] and \
                        self.compose(h, self.compose(g, f)) != \
                        self.compose(self.compose(h, g), f):
                    raise InvalidCategory("composition is not associative "
                                          "on (%s, %s, %s)" % (h, g, f))

    def compose(self, g, f):
        """The composite g o f, by morphism name."""
        return self._comp[(g, f)]

    def composable_pairs(self):
        """All (u, v) with v: W -> V, u: V -> U, in lexicographic order."""
        names = sorted(self.morphisms)
        return [(u, v) for u in names for v in names
                if self.target(v) == self.source(u)]

    def same_shape(self, other):
        """Structural equality: same objects, morphisms and composition."""
        return (self is other or
                (self.objects == other.objects and
                 self.morphisms == other.morphisms and
                 self._comp == other._comp and
                 self.identities == other.identities))

    def identity(self, obj):
        return self.identities[obj]

    def is_identity(self, name):
        m = self.morphisms[name]
        return self.identities.get(m.source) == name

    def source(self, name):
        return self.morphisms[name].source

    def target(self, name):
        return self.morphisms[name].target

    @memo()
    def nerve(self, p):
        """All p-simplices: composable chains of p arrows (objects for p=0)."""
        if p < 0:
            raise ValueError("the nerve has no simplices of degree %d" % p)
        if p == 0:
            simplices = [Simplex(self, (), obj) for obj in self.objects]
        else:
            simplices = []
            for prev in self.nerve(p - 1):
                tail = prev.codomain
                for m in sorted(self.morphisms.values()):
                    if m.source == tail:
                        simplices.append(Simplex(self, prev.arrows + (m.name,),
                                                 prev.domain))
            simplices.sort(key=lambda s: s.arrows)
        return tuple(simplices)

    @memo()
    def faces(self, p):
        """The face table of degree p: per (p+1)-simplex, in nerve order,
        the positions in nerve(p) of its faces d_0, ..., d_{p+1}."""
        position = {s.key(): k for k, s in enumerate(self.nerve(p))}
        return tuple(tuple(position[self.face_key(s.key(), i)]
                           for i in range(p + 2)) for s in self.nerve(p + 1))

    def face_key(self, key, i):
        """The key of the i-th face of the simplex with key (domain, u_1,
        ..., u_p): drop u_1 (i=0) or u_p (i=p), or compose u_{i+1} u_i."""
        if i == 0:
            return (self.target(key[1]),) + key[2:]
        return key[:-1] if i == len(key) - 1 else \
            key[:i] + (self.compose(key[i + 1], key[i]),) + key[i + 2:]


def simplex_label(key):
    """The label of the simplex with key (domain, u_1, ..., u_p): its
    arrows joined by ";", or its domain when it has none."""
    return key[0] if len(key) == 1 else ";".join(key[1:])


class Simplex:
    """A p-simplex: composable arrows u_1, ..., u_p from `domain` to `codomain`."""

    __slots__ = ("cat", "arrows", "domain", "codomain")

    def __init__(self, cat, arrows, domain):
        self.cat = cat
        self.arrows = tuple(arrows)
        self.domain = domain
        tail = domain
        for name in self.arrows:
            if cat.source(name) != tail:
                raise InvalidCategory("arrows %s are not composable"
                                      % (self.arrows,))
            tail = cat.target(name)
        self.codomain = tail

    def objects(self):
        """The object chain (U_0, ..., U_p)."""
        out = [self.domain]
        for name in self.arrows:
            out.append(self.cat.target(name))
        return tuple(out)

    def is_degenerate(self):
        """True iff some arrow of the simplex is an identity: a set test,
        as the subcomplex kinds ask it of every cell."""
        return not self.cat._identity_arrows.isdisjoint(self.arrows)

    def key(self):
        return (self.domain,) + self.arrows

    def label(self):
        return simplex_label(self.key())

    def __eq__(self, other):
        return self.cat is other.cat and self.domain == other.domain and \
            self.arrows == other.arrows

    def __hash__(self):
        return hash((id(self.cat), self.domain, self.arrows))

    def __repr__(self):
        return "Simplex(%s)" % (self.label(),)


class NotAntisymmetric(ValueError):
    """The relations of a poset make two distinct objects each <= the
    other."""


class UnknownObject(ValueError):
    """A relation of a poset names an object that is not one of its
    objects."""


def poset_category(objects, le_pairs):
    """The category of a poset: one morphism V -> U for each relation V <= U.

    `le_pairs` lists strict relations (V, U); reflexivity and transitivity
    are closed off automatically.  Morphism V -> U is named "V->U".
    """
    objects = sorted(objects)
    unknown = [o for pair in le_pairs for o in pair if o not in objects]
    if unknown:
        raise UnknownObject("relations name an unknown object %r"
                            % (unknown[0],))
    le = {(o, o) for o in objects}
    le |= {(v, u) for v, u in le_pairs}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(le):
            for (c, d) in list(le):
                if b == c and (a, d) not in le:
                    le.add((a, d))
                    changed = True
    for (a, b) in sorted(le):
        if a != b and (b, a) in le:
            raise NotAntisymmetric("relation is not antisymmetric: %s <= %s "
                                   "and %s <= %s" % (a, b, b, a))
    morphisms = [Morphism("%s->%s" % (v, u), v, u) for (v, u) in sorted(le)]
    comp = {}
    for g in morphisms:
        for f in morphisms:
            if f.target == g.source:
                comp[(g.name, f.name)] = "%s->%s" % (f.source, g.target)
    identities = {o: "%s->%s" % (o, o) for o in objects}
    return FiniteCategory(objects, morphisms, comp, identities)


class NoMeet(ValueError):
    """A pair of objects of a poset has no greatest lower bound."""


class MeetPoset:
    """A finite poset with binary meets, as a category plus a meet table."""

    def __init__(self, objects, le_pairs):
        self.category = poset_category(objects, le_pairs)
        self.objects = self.category.objects
        self._le = {(m.source, m.target) for m in self.category.morphisms.values()}
        self._meets = {}
        for a in self.objects:
            for b in self.objects:
                lower = [c for c in self.objects
                         if (c, a) in self._le and (c, b) in self._le]
                glb = [c for c in lower
                       if all((d, c) in self._le for d in lower)]
                if len(glb) != 1:
                    raise NoMeet("no meet for (%s, %s)" % (a, b))
                self._meets[(a, b)] = glb[0]

    def le(self, a, b):
        return (a, b) in self._le

    def meet(self, a, b):
        return self._meets[(a, b)]

    def meet_all(self, objs):
        objs = list(objs)
        acc = objs[0]
        for o in objs[1:]:
            acc = self.meet(acc, o)
        return acc

    def morphism(self, src, tgt):
        if not self.le(src, tgt):
            raise ValueError("%s is not below %s" % (src, tgt))
        return "%s->%s" % (src, tgt)


def slice_category(cat, base_obj):
    """The slice category C/U: objects are arrows w: V -> U (named by w),
    a morphism from w': V' -> U to w: V -> U is v: V' -> V with w v = w'.

    Morphisms are named "v|w" (the underlying arrow plus the target object).
    """
    objects = [m for m in cat.morphisms.values() if m.target == base_obj]
    obj_names = [m.name for m in objects]
    morphisms = []
    under = {}
    for w in objects:
        for v in cat.morphisms.values():
            if v.target != cat.source(w.name):
                continue
            w_prime = cat.compose(w.name, v.name)
            name = "%s|%s" % (v.name, w.name)
            morphisms.append(Morphism(name, w_prime, w.name))
            under[name] = v.name
    comp = {}
    for g in morphisms:
        for f in morphisms:
            if f.target == g.source:
                v = cat.compose(under[g.name], under[f.name])
                comp[(g.name, f.name)] = "%s|%s" % (v, g.target)
    identities = {w: "%s|%s" % (cat.identity(cat.source(w)), w) for w in obj_names}
    sliced = FiniteCategory(obj_names, morphisms, comp, identities)
    sliced.underlying_arrow = under
    sliced.anchor = base_obj
    return sliced
