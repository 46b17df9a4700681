"""Ready-made algebras, posets and presheaves used throughout the test
suite, the demos, and the shipped project files.

The four standard fixtures:

  * one_object_dual_numbers   - Q[x]/(x^2) on the terminal category;
  * v_poset_commutative       - (Q[x]/(x^2), Q[x]/(x^2), Q) on U01 <= U0, U1;
  * v_poset_triangular        - upper-triangular 2x2 matrices on the wings;
  * diamond_mixed             - Q[x]/(x^2) on top of the 4-element meet
                                poset AB <= A, B <= T, rationals below.

`twisted_diamond` adds an honestly twisted variant: the twist is the
multiplicative coboundary of a family of invertible elements, which is also
the trivialization that the canonical free descent datum needs.
"""

from fractions import Fraction

from .linalg import RatMatrix
from .fincat import poset_category, MeetPoset
from .algebra import FinAlgebra, InvalidStructure
from .presheaf import TwistedPresheaf, strict_presheaf


def rationals():
    return FinAlgebra(1, [[[1]]], [1], name="Q")


def dual_numbers():
    """Q[x]/(x^2) on the basis (1, x)."""
    return FinAlgebra(2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0],
                      name="Q[x]/(x^2)")


def upper_triangular():
    """Upper-triangular 2x2 matrices on the basis (1, e12, e22)."""
    return FinAlgebra(3, [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 0], [0, 1, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 1]],
    ], [1, 0, 0], name="UT2")


def two_points():
    """Q x Q with the unit rebased into the basis: basis (1, e2)."""
    return FinAlgebra(2, [[[1, 0], [0, 1]], [[0, 1], [0, 1]]], [1, 0],
                      name="QxQ")


def v_poset():
    return MeetPoset(["U0", "U1", "U01"], [("U01", "U0"), ("U01", "U1")])


def diamond_poset():
    return MeetPoset(["T", "A", "B", "AB"],
                     [("A", "T"), ("B", "T"), ("AB", "A"), ("AB", "B")])


def _restrictions(category, algebras, off_diagonal):
    restr = {}
    for name, m in category.morphisms.items():
        if m.source == m.target:
            restr[name] = RatMatrix.identity(algebras[m.source].dim)
        else:
            restr[name] = off_diagonal(m)
    return restr


def one_object_dual_numbers():
    cat = poset_category(["pt"], [])
    return strict_presheaf(cat, {"pt": dual_numbers()},
                           {"pt->pt": RatMatrix.identity(2)})


def v_poset_commutative():
    """A(U0) = A(U1) = Q[x]/(x^2), A(U01) = Q, x restricting to 0."""
    poset = v_poset()
    cat = poset.category
    dn, q = dual_numbers(), rationals()
    algebras = {"U0": dn, "U1": dn, "U01": q}
    restr = _restrictions(cat, algebras,
                          lambda m: RatMatrix.from_rows([[1, 0]]))
    return strict_presheaf(cat, algebras, restr)


def v_poset_triangular():
    """Noncommutative wings: upper-triangular matrices over U0 and U1,
    restricting to Q by the quotient killing (e12, e22)."""
    poset = v_poset()
    cat = poset.category
    ut, q = upper_triangular(), rationals()
    algebras = {"U0": ut, "U1": ut, "U01": q}
    restr = _restrictions(cat, algebras,
                          lambda m: RatMatrix.from_rows([[1, 0, 0]]))
    return strict_presheaf(cat, algebras, restr)


def diamond_mixed():
    """Q[x]/(x^2) at the top of the diamond, Q everywhere else."""
    poset = diamond_poset()
    cat = poset.category
    dn, q = dual_numbers(), rationals()
    algebras = {"T": dn, "A": q, "B": q, "AB": q}

    def off(m):
        if m.target == "T":
            return RatMatrix.from_rows([[1, 0]])
        return RatMatrix.identity(1)
    return strict_presheaf(cat, algebras, _restrictions(cat, algebras, off))


def twisted_diamond(scale=2):
    """A twisted presheaf on the diamond whose twist is the multiplicative
    coboundary of x with x_{A->T} = scale; returns (presheaf, x)."""
    base = diamond_mixed()
    cat = base.category
    x = {}
    for name, m in cat.morphisms.items():
        unit = base.algebras[m.source].unit
        if name == "A->T":
            x[name] = tuple(Fraction(scale) * v for v in unit)
        else:
            x[name] = unit
    twists = {}
    for (u, v) in cat.composable_pairs():
        w_obj = cat.source(v)
        uv = cat.compose(u, v)
        aw = base.algebras[w_obj]
        val = aw.mul(aw.two_sided_inverse(x[uv]),
                     aw.mul(x[v], base.restrictions[v].apply(x[u])))
        if val != aw.unit:
            twists[(u, v)] = val
    twisted = TwistedPresheaf(cat, base.algebras, base.restrictions, twists)
    if not twisted.is_valid():
        raise InvalidStructure("the twisted diamond fails its axioms")
    return twisted, x


def standard_fixtures():
    """The four strict fixtures used by the acceptance checks."""
    return {
        "one_object_dual_numbers": one_object_dual_numbers(),
        "v_poset_commutative": v_poset_commutative(),
        "v_poset_triangular": v_poset_triangular(),
        "diamond_mixed": diamond_mixed(),
    }
