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
from itertools import combinations, permutations, product
from math import factorial

from .linalg import (RatMatrix, ShapeMismatch, UsageError, memo,
                     subcomplex_cohomology, submatrix)
from .fincat import Simplex
from .shuffles import perm_sign
from .simplicial import ModPresheaf, PairComplex


# -- tuple operations

def tuple_face(tau, i):
    """Drop coordinate i."""
    return tau[:i] + tau[i + 1:]


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
    if not 0 <= i <= len(tau) - 1:
        raise IndexError("no coordinate %d in %s" % (i, tau))
    head = []
    for start in range(i + 1):
        head.append(poset.meet_all(tau[start:]))
    return tuple(head) + tau[i:]


def signed_permutations(n):
    """(tuple, sign) for all of S_n acting on positions 0..n-1."""
    return [(p, perm_sign(p)) for p in permutations(range(n))]


# the most tuples the full (non-alternating) Cech complex enumerates in one
# degree; it has (number of objects)^(p+1) of them in degree p
TUPLE_BOUND = 10 ** 5


class TooManyTuples(UsageError, ValueError):
    """Raised when the full Cech complex would enumerate more than
    TUPLE_BOUND tuples in one degree."""


class CechComplex:
    """Cech cochains of a ModPresheaf on a MeetPoset.

    alternating=True stores cochains on strictly increasing tuples;
    alternating=False uses all tuples of objects.
    """

    def __init__(self, f_presheaf, poset, alternating=True):
        self.f = f_presheaf
        self.poset = poset
        self.alternating = alternating
        self.order = {o: i for i, o in enumerate(poset.objects)}

    def tuples(self, p):
        objs = self.poset.objects
        if self.alternating:
            return [tuple(c) for c in combinations(objs, p + 1)]
        count = len(objs) ** (p + 1)
        if count > TUPLE_BOUND:
            raise TooManyTuples(
                "the full Cech complex has %d tuples in degree %d, more than "
                "%d" % (count, p, TUPLE_BOUND))
        return [tuple(t) for t in product(objs, repeat=p + 1)]

    @memo()
    def layout(self, p):
        blocks = []
        offset = 0
        for tau in self.tuples(p):
            d = self.f.dims[self.poset.meet_all(tau)]
            blocks.append((tau, d, offset))
            offset += d
        return blocks, offset

    def dim(self, p):
        return self.layout(p)[1]

    def block(self, p):
        return {tau: (d, off) for tau, d, off in self.layout(p)[0]}

    def canonical(self, tau):
        """(sign, increasing tuple) for the alternating extension, or
        (0, None) when tau has a repeated coordinate."""
        if len(set(tau)) < len(tau):
            return 0, None
        idx = sorted(range(len(tau)), key=lambda i: self.order[tau[i]])
        sign = perm_sign(idx)
        return sign, tuple(tau[i] for i in idx)

    @memo()
    def differential(self, p):
        """d(psi)^tau = sum_i (-1)^i psi^{face_i tau} restricted to F(meet
        tau): one signed restriction block per face, none for a face with a
        repeated coordinate when alternating.  Cached per degree."""
        in_blocks = self.block(p)
        placed = []
        for tau, _, off_out in self.layout(p + 1)[0]:
            small = self.poset.meet_all(tau)
            for i in range(p + 2):
                face = tuple_face(tau, i)
                sign = (-1) ** i
                if self.alternating:
                    face_sign, face = self.canonical(face)
                    if face is None:
                        continue
                    sign *= face_sign
                rest = self.f.maps[self.poset.morphism(
                    small, self.poset.meet_all(face))]
                placed.append((off_out, in_blocks[face][1], rest.scale(sign)))
        return RatMatrix.from_blocks(self.dim(p + 1), self.dim(p), placed)

    def cohomology(self, p):
        return subcomplex_cohomology(self.differential, p)


def iota_matrix(cech, simp, p):
    """iota: simplicial p-cochains -> alternating Cech p-cochains.

    iota(phi)^tau = sum over permutations s of the coordinates of tau of
    sign(s) phi^{bar(tau s)}.  On reduced cochains this is a chain map.
    """
    if not cech.alternating:
        raise UsageError("iota maps into the alternating Cech complex only")
    simp_blocks = simp.block_index(p)
    perms = signed_permutations(p + 1)
    placed = []
    for tau, d, off_out in cech.layout(p)[0]:
        for perm, sign in perms:
            sigma = tuple_bar(cech.poset, tuple(tau[i] for i in perm))
            rows, cols, off_in = simp_blocks[sigma.key()]
            if (rows, cols) != (d, 1):
                raise ShapeMismatch("iota needs the constant presheaf as G")
            placed.append((off_out, off_in, RatMatrix.identity(d).scale(sign)))
    return RatMatrix.from_blocks(cech.dim(p), simp.dim(p), placed)


def pi_matrix(cech, simp, p):
    """pi: alternating Cech p-cochains -> (reduced) simplicial p-cochains,
    by evaluating on the underlying object tuple of a simplex."""
    if not cech.alternating:
        raise UsageError("pi maps from the alternating Cech complex only")
    in_blocks = cech.block(p)
    placed = []
    for sigma, rows, cols, off_out in simp.layout(p)[0]:
        if cols != 1:
            raise ShapeMismatch("pi needs the constant presheaf as G")
        sign, canon = cech.canonical(sigma.objects())
        if canon is not None:
            placed.append((off_out, in_blocks[canon][1],
                           RatMatrix.identity(rows).scale(sign)))
    return RatMatrix.from_blocks(simp.dim(p), cech.dim(p), placed)


def homotopy_matrix(cech, p):
    """h^p: alternating Cech p-cochains -> (p-1)-cochains, satisfying
    1 - iota pi = h d + d h."""
    if not cech.alternating or p < 1:
        raise UsageError("h^p acts on the alternating Cech complex, p >= 1")
    in_blocks = cech.block(p)
    perms = signed_permutations(p)
    placed = []
    for tau, d, off_out in cech.layout(p - 1)[0]:
        for i in range(p):
            coeff_i = Fraction((-1) ** i, factorial(p - i))
            for perm, sign in perms:
                theta = tuple_theta(cech.poset, tuple(tau[t] for t in perm), i)
                theta_sign, canon = cech.canonical(theta)
                if canon is None:
                    continue
                d_in, off_in = in_blocks[canon]
                if d_in != d:
                    raise ShapeMismatch("h^%d joins unequal blocks" % p)
                placed.append((off_out, off_in, RatMatrix.identity(d).scale(
                    coeff_i * sign * theta_sign)))
    return RatMatrix.from_blocks(cech.dim(p - 1), cech.dim(p), placed)


def compare_simp_cech(f_presheaf, poset, p_max):
    """Betti numbers of the simplicial and the alternating Cech complex in
    degrees 0..p_max, plus exact verification of pi iota = 1 (on reduced
    cochains) and of the homotopy identity on a full alternating basis.
    """
    simp = PairComplex(ModPresheaf.constant(poset.category), f_presheaf)
    cech = CechComplex(f_presheaf, poset, alternating=True)
    report = {"simp_betti": [], "cech_betti": [], "pi_iota_identity": True,
              "homotopy_identity": True}
    homotopy = {p: homotopy_matrix(cech, p) for p in range(1, p_max + 2)}
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
        rhs = cech.differential(p - 1) @ homotopy[p] if p >= 1 \
            else RatMatrix.zeros(cech.dim(0), cech.dim(0))
        rhs = rhs + homotopy[p + 1] @ cech.differential(p)
        if lhs != rhs:
            report["homotopy_identity"] = False
    return report
