"""The (alternating) Cech complex of a module presheaf on a meet-poset and
its explicit comparison with the simplicial complex.

For a tuple tau = (U_0, ..., U_p) the cochain value lives in F of the meet
of all coordinates.  An alternating cochain vanishes on tuples with a
repeated coordinate and transforms by the sign of a permutation of the
coordinates; it is stored on strictly increasing tuples (in the fixed
object order) and extended by signs.

The comparison maps are

    iota(phi)^tau  = sum_s sign(s) phi^{bar(tau s)}        (simplicial -> Cech)
    pi(psi)^sigma  = psi^{objects of sigma}                (Cech -> simplicial)
    h(psi)^tau     = sum_i (-1)^i/(p-i)! sum_s sign(s) psi^{theta_i(tau s)}

where bar closes a tuple under right-to-left meets and theta_i interleaves
partial meets; pi iota = 1 on reduced cochains and 1 - iota pi = h d + d h.
"""

from fractions import Fraction
from itertools import permutations, product
from math import factorial

from .linalg import RatMatrix, subcomplex_cohomology, submatrix
from .fincat import Simplex
from .shuffles import perm_sign


# -- tuple operations

def tuple_face(tau, i):
    """Drop coordinate i."""
    return tau[:i] + tau[i + 1:]


def tuple_delta(poset, tau, i):
    """Merge coordinates i-1 and i into their meet (1 <= i <= p)."""
    assert 1 <= i <= len(tau) - 1
    return tau[:i - 1] + (poset.meet(tau[i - 1], tau[i]),) + tau[i + 1:]


def tuple_bar(poset, tau):
    """The simplex closing tau under meets: V_i = meet of tau[i:]."""
    m = len(tau)
    objs = []
    acc = None
    for j in range(m - 1, -1, -1):
        acc = tau[j] if acc is None else poset.meet(tau[j], acc)
        objs.append(acc)
    objs.reverse()
    arrows = tuple(poset.morphism(objs[i], objs[i + 1]) for i in range(m - 1))
    return Simplex(poset.category, arrows, objs[0])


def tuple_theta(poset, tau, i):
    """Interleave partial meets: (meet tau[0:], meet tau[1:], ..., meet
    tau[i:], tau[i], ..., tau[-1]); one coordinate longer than tau."""
    m = len(tau)
    assert 0 <= i <= m - 1
    head = []
    for start in range(i + 1):
        head.append(poset.meet_all(tau[start:]))
    return tuple(head) + tau[i:]


def signed_permutations(n):
    """(tuple, sign) for all of S_n acting on positions 0..n-1."""
    return [(p, Fraction(perm_sign(p))) for p in permutations(range(n))]


class CechComplex:
    """Cech cochains of a ModPresheaf on a MeetPoset.

    alternating=True stores cochains on strictly increasing tuples;
    alternating=False uses all tuples of objects.
    """

    def __init__(self, f_presheaf, poset, alternating=True, tuple_bound=10 ** 5):
        self.f = f_presheaf
        self.poset = poset
        self.alternating = alternating
        self.tuple_bound = tuple_bound
        self._layout_cache = {}
        self.order = {o: i for i, o in enumerate(poset.objects)}

    def tuples(self, p):
        objs = self.poset.objects
        if self.alternating:
            from itertools import combinations
            return [tuple(c) for c in combinations(objs, p + 1)]
        assert len(objs) ** (p + 1) <= self.tuple_bound, \
            "tuple enumeration exceeds the configured bound"
        return [tuple(t) for t in product(objs, repeat=p + 1)]

    def layout(self, p):
        if p in self._layout_cache:
            return self._layout_cache[p]
        blocks = []
        offset = 0
        for tau in self.tuples(p):
            d = self.f.dims[self.poset.meet_all(tau)]
            blocks.append((tau, d, offset))
            offset += d
        self._layout_cache[p] = (blocks, offset)
        return self._layout_cache[p]

    def dim(self, p):
        return self.layout(p)[1]

    def block(self, p):
        return {tau: (d, off) for tau, d, off in self.layout(p)[0]}

    def canonical(self, tau):
        """(sign, increasing tuple) for the alternating extension, or
        (0, None) when tau has a repeated coordinate."""
        if len(set(tau)) < len(tau):
            return Fraction(0), None
        idx = sorted(range(len(tau)), key=lambda i: self.order[tau[i]])
        sign = Fraction(perm_sign(idx))
        return sign, tuple(tau[i] for i in idx)

    def value(self, vec, p, tau):
        """Evaluate the cochain `vec` on an arbitrary tuple tau."""
        blocks = self.block(p)
        if self.alternating:
            sign, canon = self.canonical(tau)
            if canon is None:
                d = self.f.dims[self.poset.meet_all(tau)]
                return (Fraction(0),) * d
            d, off = blocks[canon]
            return tuple(sign * vec[off + t] for t in range(d))
        d, off = blocks[tau]
        return tuple(vec[off + t] for t in range(d))

    def differential(self, p):
        """d(psi)^tau = sum_i (-1)^i psi^{face_i tau} restricted to F(meet tau)."""
        out_blocks, out_dim = self.layout(p + 1)
        in_dim = self.dim(p)
        cols = {j: [Fraction(0)] * out_dim for j in range(in_dim)}
        in_blocks = self.block(p)

        def add_face_value(tau, off_out, i, sign):
            face = tuple_face(tau, i)
            big = self.poset.meet_all(face)
            small = self.poset.meet_all(tau)
            rest = self.f.maps[self.poset.morphism(small, big)]
            if self.alternating:
                s2, canon = self.canonical(face)
                if canon is None:
                    return
                d, off_in = in_blocks[canon]
                total = sign * s2
            else:
                d, off_in = in_blocks[face]
                total = sign
            for (r, c), v in rest.items():
                cols[off_in + c][off_out + r] += total * v

        for tau, d_out, off_out in out_blocks:
            sign = Fraction(1)
            for i in range(p + 2):
                add_face_value(tau, off_out, i, sign)
                sign = -sign
        entries = {}
        for j, col in cols.items():
            for i, v in enumerate(col):
                if v:
                    entries[(i, j)] = v
        return RatMatrix(out_dim, in_dim, entries)

    def cohomology(self, p):
        return subcomplex_cohomology(self.differential, p)


def iota_matrix(cech, simp, p):
    """iota: simplicial p-cochains -> alternating Cech p-cochains.

    iota(phi)^tau = sum over permutations s of the coordinates of tau of
    sign(s) phi^{bar(tau s)}.  On reduced cochains this is a chain map.
    """
    assert cech.alternating
    poset = cech.poset
    simp_blocks = simp.block_index(p)
    out_blocks, out_dim = cech.layout(p)
    entries = {}
    for tau, d, off_out in out_blocks:
        for perm, sign in signed_permutations(p + 1):
            permuted = tuple(tau[i] for i in perm)
            sigma = tuple_bar(poset, permuted)
            rows, colsdim, off_in = simp_blocks[sigma.key()]
            assert rows == d and colsdim == 1
            for t in range(d):
                key = (off_out + t, off_in + t)
                entries[key] = entries.get(key, Fraction(0)) + sign
    return RatMatrix(out_dim, simp.dim(p), entries)


def pi_matrix(cech, simp, p):
    """pi: alternating Cech p-cochains -> (reduced) simplicial p-cochains,
    by evaluating on the underlying object tuple of a simplex."""
    assert cech.alternating
    out_dim = simp.dim(p)
    entries = {}
    for sigma, rows, cols, off_out in simp.layout(p)[0]:
        assert cols == 1
        tau = sigma.objects()
        sign, canon = cech.canonical(tau)
        if canon is None:
            continue
        d, off_in = cech.block(p)[canon]
        for t in range(rows):
            entries[(off_out + t, off_in + t)] = sign
    return RatMatrix(out_dim, cech.dim(p), entries)


def homotopy_matrix(cech, p):
    """h^p: alternating Cech p-cochains -> (p-1)-cochains, satisfying
    1 - iota pi = h d + d h."""
    assert cech.alternating and p >= 1
    poset = cech.poset
    out_blocks, out_dim = cech.layout(p - 1)
    in_blocks = cech.block(p)
    entries = {}
    for tau, d, off_out in out_blocks:
        for i in range(p):
            coeff_i = Fraction((-1) ** i, factorial(p - i))
            for perm, sign in signed_permutations(p):
                permuted = tuple(tau[t] for t in perm)
                theta = tuple_theta(poset, permuted, i)
                s2, canon = cech.canonical(theta)
                if canon is None:
                    continue
                d_in, off_in = in_blocks[canon]
                assert d_in == d
                total = coeff_i * sign * s2
                for t in range(d):
                    key = (off_out + t, off_in + t)
                    entries[key] = entries.get(key, Fraction(0)) + total
    return RatMatrix(out_dim, cech.dim(p), entries)


def compare_simp_cech(f_presheaf, poset, p_max):
    """Betti numbers of the simplicial and the alternating Cech complex in
    degrees 0..p_max, plus exact verification of pi iota = 1 (on reduced
    cochains) and of the homotopy identity on a full alternating basis.
    """
    from .simplicial import PairComplex, ModPresheaf
    simp = PairComplex(ModPresheaf.constant(poset.category), f_presheaf)
    cech = CechComplex(f_presheaf, poset, alternating=True)
    report = {"simp_betti": [], "cech_betti": [], "pi_iota_identity": True,
              "homotopy_identity": True}
    for p in range(p_max + 1):
        report["simp_betti"].append(simp.cohomology(p, reduced=True)[0])
        report["cech_betti"].append(cech.cohomology(p)[0])
        iota = iota_matrix(cech, simp, p)
        pi = pi_matrix(cech, simp, p)
        keep = simp.reduced_coordinates(p)
        pi_iota = submatrix(pi @ iota, keep, keep)
        if pi_iota != RatMatrix.identity(len(keep)):
            report["pi_iota_identity"] = False
        lhs = RatMatrix.identity(cech.dim(p)) - iota @ pi
        rhs = cech.differential(p - 1) @ homotopy_matrix(cech, p) if p >= 1 \
            else RatMatrix.zeros(cech.dim(0), cech.dim(0))
        rhs = rhs + homotopy_matrix(cech, p + 1) @ cech.differential(p)
        if lhs != rhs:
            report["homotopy_identity"] = False
    return report
