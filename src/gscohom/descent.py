"""Descent data over the module prestack of a twisted presheaf, with
pointwise kernels/cokernels, the module-to-presheaf comparison functor for
central twists, and its pseudonaturality identities.

A pre-descent datum assigns a right A(U)-module M_U to every object and a
module map phi_u: M_U (x)_u A(V) -> M_V to every morphism, subject to the
twist-corrected compatibility

    phi_v . v*(phi_u) = phi_{uv} . Mod(c)^{u,v},

where Mod(c)^{u,v}: m (x) a (x) b -> m (x) c^{u,v} v*(a) b.  It is a descent
datum when every phi_u is bijective.  All tensor products are the exact
finite-dimensional quotients from `algebra.tensor_over`, so every identity
here is checked as an equality of matrices over Q.

Coordinates.  m_i (x) e_b sits at raw coordinate i*dim(B) + b of M (x)_Q B,
as in `RatMatrix.kron`, and an iterated product M (x) A(V) (x) A(W) nests
the same way.  A map out of a tensor quotient t is built as one matrix on
the raw space times t.section.  Linear conditions on unknown matrices are
solved on their column-major flattenings through `linalg.vec_operator`.
"""

from .linalg import RatMatrix, VerificationFailed, memo, vec_operator
from .algebra import (AlgebraHom, FinModule, InvalidStructure, tensor_over,
                      module_hom_space, check_flat_epimorphism,
                      quotient_module)
from .fincat import slice_category
from .simplicial import functoriality_failure


class ExactnessFailure(Exception):
    """A restriction functor failed to be exact on the given kernel; the
    prestack is not geometric on this input."""


class CentralityRequired(Exception):
    pass


def _can_key(machine, module, u, v, twist=False):
    return u, v, twist, module.dim, module.action


class DescentMachine:
    """Shared tensor-coordinate bookkeeping for one twisted presheaf.

    Homs, tensor quotients, induced maps between them, can^{u,v} and its
    inverse are memoised per machine through `linalg.memo`, and the memos
    die with the machine."""

    def __init__(self, presheaf):
        self.presheaf = presheaf
        self.category = presheaf.category

    @memo()
    def hom(self, name):
        m = self.category.morphisms[name]
        return AlgebraHom(self.presheaf.algebras[m.target],
                          self.presheaf.algebras[m.source],
                          self.presheaf.restrictions[name], check=False)

    @memo(key=lambda self, module, name: (name, module.dim, module.action))
    def tensor(self, module, name):
        """module (x)_u A(V) as a QuotientModule.

        Memoised on (name, module.dim, module.action), which is all that
        `tensor_over` reads: f^u is fixed by the name in one machine.  An
        equal module built elsewhere gets the same (never mutated)
        QuotientModule, and so do the chains that tensor its `.module`
        again."""
        return tensor_over(module, self.hom(name))

    @memo()
    def tensor_map(self, x, src_q, tgt_q, name):
        """The induced map (src (x)_v A(W)) -> (tgt (x)_v A(W)) of a module
        map x: src -> tgt, on quotient coordinates.

        Memoised on (x, src_q, tgt_q, name).  The quotients are keyed by
        identity: they are never mutated, the callers pass the machine's own
        memoised `tensor` results, and the key keeps them alive."""
        dim_w = self.hom(name).target.dim
        big = x.kron(RatMatrix.identity(dim_w))
        return tgt_q.project @ big @ src_q.section

    def right_mult_matrix(self, q_module, element):
        """Right action of an algebra element on a quotient module."""
        return q_module.module.action_matrix() @ RatMatrix.identity(
            q_module.dim).kron(RatMatrix.from_cols([element]))

    @memo(key=_can_key)
    def can_matrix(self, module, u, v, twist=False):
        """can^{u,v}: M (x)_u A(V) (x)_v A(W) -> M (x)_{uv} A(W), sending
        m (x) a (x) b to m (x) v*(a) b; with twist=True the element c^{u,v}
        is multiplied in front (the module-prestack twist).

        Memoised like `tensor`, on (u, v, twist, module.dim, module.action),
        which with the machine's presheaf fixes every factor; the same
        (never mutated) triple is returned for an equal module."""
        return self._build_can(module, u, v, twist)

    @memo(key=_can_key)
    def can_inverse(self, module, u, v):
        """(can^{u,v})^{-1}, computed once per key of `can_matrix`;
        VerificationFailed when can^{u,v} is singular."""
        inverse = self.can_matrix(module, u, v)[0].inverse()
        if inverse is None:
            raise VerificationFailed("can^{%s,%s} is not invertible" % (u, v))
        return inverse

    def _build_can(self, module, u, v, twist):
        t_u = self.tensor(module, u)
        t_uv2 = self.tensor(t_u.module, v)
        t_uv = self.tensor(module, self.category.compose(u, v))
        a_w = self.hom(v).target
        one_w = RatMatrix.identity(a_w.dim)
        c_elem = self.presheaf.twist(u, v) if twist else a_w.unit
        # a (x) b -> c v*(a) b on A(V) (x) A(W), then M (x) A(V) (x) A(W)
        inner = a_w.left_mult_matrix(c_elem) @ a_w.mult_matrix() @ \
            self.hom(v).matrix.kron(one_w)
        raw = RatMatrix.identity(module.dim).kron(inner) @ \
            t_u.section.kron(one_w)
        mat = t_uv.project @ raw @ t_uv2.section
        return mat, t_uv2, t_uv

    def mod_c_matrix(self, module, u, v):
        return self.can_matrix(module, u, v, twist=True)


class PreDescentDatum:
    """Modules per object plus comparison maps per morphism, the map phi_u
    expressed on the quotient coordinates of M_U (x)_u A(V)."""

    def __init__(self, machine, modules, maps):
        self.machine = machine
        self.modules = dict(modules)
        self.maps = dict(maps)

    def tensor_source(self, name):
        m = self.machine.category.morphisms[name]
        return self.machine.tensor(self.modules[m.target], name)


def check_descent(datum):
    """Classify a candidate as descent / pre-descent / invalid.

    Verifies that each phi_u is a module map, the twist-corrected cocycle
    compatibility on every composable pair, and bijectivity of every phi_u.
    The compatibilities need maps of the right shapes, so if one is
    ill-shaped the datum is invalid with the failures of the per-arrow loop.
    """
    machine = datum.machine
    cat = machine.category
    failures = []
    for name in sorted(cat.morphisms):
        m = cat.morphisms[name]
        t_u = datum.tensor_source(name)
        phi = datum.maps[name]
        tgt = datum.modules[m.source]
        if phi.rows != tgt.dim or phi.cols != t_u.dim:
            failures.append(("shape", name))
            continue
        a_v = machine.hom(name).target
        for j in range(a_v.dim):
            if phi @ t_u.module.action[j] != tgt.action[j] @ phi:
                failures.append(("not_module_map", name))
                break
    if any(f[0] == "shape" for f in failures):
        return {"classification": "invalid", "failures": failures}
    for (u, v) in cat.composable_pairs():
        m_u = cat.morphisms[u]
        uv = cat.compose(u, v)
        module_top = datum.modules[m_u.target]
        t_u = datum.tensor_source(u)
        t_uv2 = machine.tensor(t_u.module, v)
        t_v_of_mid = machine.tensor(datum.modules[m_u.source], v)
        # v*(phi_u): (M_U (x) A(V)) (x) A(W) -> M_V (x) A(W)
        v_phi_u = machine.tensor_map(datum.maps[u], t_uv2, t_v_of_mid, v)
        lhs = datum.maps[v] @ v_phi_u
        mod_c, t_uv2_chk, t_uv = machine.mod_c_matrix(module_top, u, v)
        if t_uv2_chk.dim != t_uv2.dim:
            raise VerificationFailed(
                "the two presentations of M (x) A(V) (x) A(W) along (%s, %s) "
                "differ in dimension" % (u, v))
        rhs = datum.maps[uv] @ mod_c
        if lhs != rhs:
            failures.append(("compatibility", u, v))
    is_pre = not failures
    bijective = all(datum.maps[name].is_invertible()
                    for name in cat.morphisms) if is_pre else False
    classification = "descent" if (is_pre and bijective) else \
        ("pre-descent" if is_pre else "invalid")
    return {"classification": classification, "failures": failures}


def canonical_free_datum(machine, trivialization=None):
    """The structure datum M_U = A(U) with phi_u(a (x) b) = x_u u*(a) b.

    For a strict presheaf x_u = 1 works.  Over a twisted presheaf the
    compatibility forces x_v v*(x_u) = x_{uv} c^{u,v}, so a family of
    invertible elements trivializing the twist cocycle must be supplied.
    """
    cat = machine.category
    presheaf = machine.presheaf
    trivialization = trivialization or {}
    modules = {obj: FinModule.free(presheaf.algebras[obj])
               for obj in cat.objects}
    maps = {}
    for name in cat.morphisms:
        m = cat.morphisms[name]
        a_v = presheaf.algebras[m.source]
        rest = presheaf.restrictions[name]
        x_u = trivialization.get(name, a_v.unit)
        t = machine.tensor(modules[m.target], name)
        # a (x) b -> x_u u*(a) b on A(U) (x) A(V)
        raw = a_v.left_mult_matrix(x_u) @ a_v.mult_matrix() @ \
            rest.kron(RatMatrix.identity(a_v.dim))
        maps[name] = raw @ t.section
    return PreDescentDatum(machine, modules, maps)


def check_datum_morphism(datum_a, datum_b, components):
    """g: A -> B between data over the same machine: module maps g_U with
    g_V phi_u = phi'_u (g_U (x) 1)."""
    machine = datum_a.machine
    cat = machine.category
    failures = []
    for obj in cat.objects:
        g = components[obj]
        ma, mb = datum_a.modules[obj], datum_b.modules[obj]
        for j in range(ma.algebra.dim):
            if g @ ma.action[j] != mb.action[j] @ g:
                failures.append(("not_module_map", obj))
                break
    for name in sorted(cat.morphisms):
        m = cat.morphisms[name]
        t_a = datum_a.tensor_source(name)
        t_b = datum_b.tensor_source(name)
        g_tensor = machine.tensor_map(components[m.target], t_a, t_b, name)
        lhs = components[m.source] @ datum_a.maps[name]
        rhs = datum_b.maps[name] @ g_tensor
        if lhs != rhs:
            failures.append(("not_compatible", name))
    return failures


def _require_datum_morphism(datum_a, datum_b, components):
    """InvalidStructure unless `components` is a morphism of the data."""
    failures = check_datum_morphism(datum_a, datum_b, components)
    if failures:
        raise InvalidStructure("not a morphism of descent data: %s"
                               % (failures[:3],))


def pointwise_kernel(datum_a, datum_b, components):
    """The kernel of a morphism of descent data, computed pointwise.

    Raises ExactnessFailure if tensoring along some u is not exact on this
    kernel (the kernel would then fail to glue)."""
    machine = datum_a.machine
    cat = machine.category
    _require_datum_morphism(datum_a, datum_b, components)
    kernels = {}
    inclusions = {}
    for obj in cat.objects:
        sub, incl = datum_a.modules[obj].restrict_to_submodule(
            components[obj].kernel().matrix())
        kernels[obj] = sub
        inclusions[obj] = incl
    maps = {}
    for name in sorted(cat.morphisms):
        m = cat.morphisms[name]
        t_full = datum_a.tensor_source(name)
        t_ker = machine.tensor(kernels[m.target], name)
        t_b = datum_b.tensor_source(name)
        g_tensor = machine.tensor_map(components[m.target], t_full, t_b, name)
        if g_tensor.kernel().dim != t_ker.dim:
            raise ExactnessFailure(
                "tensoring along %s is not exact on the kernel "
                "(dim %d vs %d)" % (name, g_tensor.kernel().dim, t_ker.dim))
        incl_tensor = machine.tensor_map(inclusions[m.target], t_ker, t_full,
                                         name)
        image = datum_a.maps[name] @ incl_tensor
        maps[name] = inclusions[m.source].solve_many(image)
        if maps[name] is None:
            raise VerificationFailed(
                "phi does not restrict to the kernel at %s" % name)
    return PreDescentDatum(machine, kernels, maps)


def pointwise_cokernel(datum_a, datum_b, components):
    """The cokernel of a morphism of descent data, computed pointwise
    (tensoring is right exact, so no exactness condition arises)."""
    machine = datum_a.machine
    cat = machine.category
    _require_datum_morphism(datum_a, datum_b, components)
    cokernels = {}
    projections = {}
    for obj in cat.objects:
        mb = datum_b.modules[obj]
        quotient = quotient_module(mb.algebra, mb.action, components[obj])
        cokernels[obj] = quotient.module
        projections[obj] = quotient.project
    maps = {}
    for name in sorted(cat.morphisms):
        m = cat.morphisms[name]
        t_b = datum_b.tensor_source(name)
        t_cok = machine.tensor(cokernels[m.target], name)
        proj_tensor = machine.tensor_map(projections[m.target], t_b, t_cok,
                                         name)
        # phi^C (proj (x) 1) = proj phi'_u; proj (x) 1 is onto, so solve
        target = projections[m.source] @ datum_b.maps[name]
        pre = proj_tensor.solve_many(RatMatrix.identity(t_cok.dim))
        if pre is None:
            raise VerificationFailed(
                "the tensored projection is not onto at %s" % name)
        phi = target @ pre
        if phi @ proj_tensor != target:
            raise VerificationFailed(
                "cokernel comparison map is not well defined at %s" % name)
        maps[name] = phi
    return PreDescentDatum(machine, cokernels, maps)


# -- quasi-coherent presheaves over central twists

class QPresheafObject:
    """M~ on the slice over `anchor`: M~(w) = M (x)_w A(W) with transitions
    1 (x) v*, for a module M over A(anchor)."""

    def __init__(self, machine, anchor, module):
        presheaf = machine.presheaf
        if not presheaf.has_central_twists():
            raise CentralityRequired("the comparison functor needs central "
                                     "twists")
        self.machine = machine
        self.anchor = anchor
        self.module = module
        self.slice = slice_category(machine.category, anchor)
        self.tensors = {w: machine.tensor(module, w)
                        for w in self.slice.objects}
        self.transitions = {}
        for arrow in sorted(self.slice.morphisms):
            sm = self.slice.morphisms[arrow]
            under = self.slice.underlying_arrow[arrow]
            w_tgt, w_src = sm.target, sm.source   # transition M~(tgt)->M~(src)
            rest = presheaf.restrictions[under]
            big = RatMatrix.identity(module.dim).kron(rest)
            self.transitions[arrow] = self.tensors[w_src].project @ big @ \
                self.tensors[w_tgt].section
        self._check_functorial()

    def _check_functorial(self):
        """The transitions form a presheaf on the slice (VerificationFailed
        otherwise)."""
        failure = functoriality_failure(
            self.slice, self.transitions,
            {w: t.dim for w, t in self.tensors.items()},
            "the transition of the identity at %s is not 1",
            "the transitions are not functorial on (%s, %s)")
        if failure:
            raise VerificationFailed(failure)

    def hom_dim_to(self, other):
        """dim of natural transformations self -> other in the presheaf
        category over the slice: one unknown matrix X_w per slice object,
        subject to X_w R^self_a = R^other_a X_w (module maps) and
        X_src T^self = T^other X_tgt along every slice arrow (naturality)."""
        if self.anchor != other.anchor:
            raise InvalidStructure("the presheaves live over different "
                                   "anchors %s and %s"
                                   % (self.anchor, other.anchor))
        sl = self.slice
        grid = []

        def condition(*terms):
            row = {}
            for w, mat in terms:
                row[w] = row[w] + mat if w in row else mat
            grid.append([row.get(w) for w in sl.objects])

        for w in sl.objects:
            src_t, tgt_t = self.tensors[w], other.tensors[w]
            one_in = RatMatrix.identity(src_t.dim)
            one_out = RatMatrix.identity(tgt_t.dim)
            for r_in, r_out in zip(src_t.module.action, tgt_t.module.action):
                condition((w, vec_operator(one_out, r_in) -
                           vec_operator(r_out, one_in)))
        for arrow in sorted(sl.morphisms):
            sm = sl.morphisms[arrow]
            w_tgt, w_src = sm.target, sm.source
            condition(
                (w_src, vec_operator(
                    RatMatrix.identity(other.tensors[w_src].dim),
                    self.transitions[arrow])),
                (w_tgt, -vec_operator(
                    other.transitions[arrow],
                    RatMatrix.identity(self.tensors[w_tgt].dim))))
        system = RatMatrix.block(grid)
        return system.cols - system.rank()


def q_functor_hom_check(machine, anchor, module_a, module_b):
    """Full-faithfulness witness: dim Hom(M~, N~) computed on the presheaf
    side equals dim Hom(M, N) computed directly on modules."""
    qa = QPresheafObject(machine, anchor, module_a)
    qb = QPresheafObject(machine, anchor, module_b)
    presheaf_dim = qa.hom_dim_to(qb)
    module_dim = len(module_hom_space(module_a, module_b))
    return presheaf_dim, module_dim


def verify_pseudonatural(machine, samples):
    """Exact check of the comparison functor's coherence.

    For every sampled module M at the top object of a composable pair
    (u: V -> U, v: W -> V) and every w: T -> W, the two composites

        (can^{uv,w})^{-1} . (right multiplication by w*(c^{u,v}))
        (Mod(c)^{u,v} (x) 1) . (can^{v,w})^{-1} . (can^{u,vw})^{-1}

    from M (x)_{uvw} A(T) to M (x)_{uv} A(W) (x)_w A(T) are compared as
    matrices; the z-side identity reduces to can^{1_U,w} being inverse to
    the unit insertion, also checked.  `samples` maps objects to lists of
    modules over A(U).  Each can map and its inverse are computed once per
    machine (`DescentMachine.can_inverse`), and a singular one raises
    VerificationFailed.
    """
    presheaf = machine.presheaf
    if not presheaf.has_central_twists():
        raise CentralityRequired("pseudonaturality checks need central twists")
    cat = machine.category
    report = {"checked": 0, "failures": []}
    for u in sorted(cat.morphisms):
        for v in sorted(cat.morphisms):
            if cat.target(v) != cat.source(u):
                continue
            modules = samples.get(cat.target(u), ())
            ws = [w for w in sorted(cat.morphisms)
                  if cat.target(w) == cat.source(v)]
            uv = cat.compose(u, v)
            c_elem = presheaf.twist(u, v)
            for w in ws:
                vw = cat.compose(v, w)
                uvw = cat.compose(uv, w)
                w_of_c = presheaf.restrictions[w].apply(c_elem)
                for module in modules:
                    # left side
                    lhs = machine.can_inverse(module, uv, w) @ \
                        machine.right_mult_matrix(
                            machine.tensor(module, uvw), w_of_c)
                    # right side
                    inv_1 = machine.can_inverse(module, u, vw)
                    t_u = machine.tensor(module, u)
                    inv_2 = machine.can_inverse(t_u.module, v, w)
                    mod_c, t2, t_uv_q = machine.mod_c_matrix(module, u, v)
                    t_uv_w_src = machine.tensor(t2.module, w)
                    t_uv_w_tgt = machine.tensor(t_uv_q.module, w)
                    modc_tensor = machine.tensor_map(mod_c, t_uv_w_src,
                                                     t_uv_w_tgt, w)
                    rhs = modc_tensor @ inv_2 @ inv_1
                    report["checked"] += 1
                    if lhs != rhs:
                        report["failures"].append((u, v, w))
    # z-side: with identity transformations on the presheaf side, the
    # coherence reduces to the unit insertion m -> m (x) z^U being inverse
    # to the evaluation m (x) a -> m.a on M (x)_{1_U} A(U)
    for obj in sorted(cat.objects):
        ident = cat.identity(obj)
        for module in samples.get(obj, ()):
            t_id = machine.tensor(module, ident)
            z = RatMatrix.from_cols([presheaf.z_element(obj)])
            insertion = t_id.project @ RatMatrix.identity(module.dim).kron(z)
            evaluation = module.action_matrix() @ t_id.section
            if module.dim and (
                    evaluation @ insertion != RatMatrix.identity(module.dim)
                    or insertion @ evaluation !=
                    RatMatrix.identity(t_id.dim)):
                report["failures"].append(("z_insertion", obj))
    return report


def check_semiseparated(presheaf, poset):
    """The affine-cover diagnostics: every restriction a right flat
    epimorphism, and the specific product map A(V) (x)_{A(U)} A(W) ->
    A(V meet W), a (x) b -> a|_{V meet W} . b|_{V meet W}, an isomorphism.

    The choice of comparison map follows the only candidate the structure
    offers; its failure is reported separately from a bare dimension
    mismatch."""
    machine = DescentMachine(presheaf)
    cat = machine.category
    report = {"flat_epi": {}, "meet_iso": {}}
    for name in sorted(cat.morphisms):
        if cat.is_identity(name):
            continue
        report["flat_epi"][name] = check_flat_epimorphism(machine.hom(name))
    for v_obj in poset.objects:
        for w_obj in poset.objects:
            containing = [u for u in poset.objects
                          if poset.le(v_obj, u) and poset.le(w_obj, u)]
            for u_obj in containing:
                meet = poset.meet(v_obj, w_obj)
                a_m = presheaf.algebras[meet]
                # A(V) as a right A(U)-module via restriction
                hom_v = machine.hom(poset.morphism(v_obj, u_obj))
                hom_w = machine.hom(poset.morphism(w_obj, u_obj))
                t = tensor_over(FinModule.along(hom_v), hom_w)
                rest_vm = presheaf.restrictions[poset.morphism(meet, v_obj)]
                rest_wm = presheaf.restrictions[poset.morphism(meet, w_obj)]
                prod_map = a_m.mult_matrix() @ rest_vm.kron(rest_wm) @ \
                    t.section
                report["meet_iso"][(u_obj, v_obj, w_obj)] = {
                    "dim_match": t.dim == a_m.dim,
                    "product_map_iso": t.dim == a_m.dim and
                    prod_map.is_invertible(),
                }
    return report
