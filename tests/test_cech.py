import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import product

import pytest

from gscohom.linalg import RatMatrix, submatrix
from gscohom.simplicial import ModPresheaf, PairComplex
from gscohom.cech import (CechComplex, iota_matrix, pi_matrix, homotopy_matrix,
                          compare_simp_cech, tuple_bar, tuple_theta,
                          tuple_face, tuple_delta)
from gscohom import cech as cech_module, presets


def v_setup():
    poset = presets.v_poset()
    p = presets.v_poset_commutative()
    return poset, ModPresheaf.of_algebras(p)


def diamond_setup():
    poset = presets.diamond_poset()
    p = presets.diamond_mixed()
    return poset, ModPresheaf.of_algebras(p)


def test_one_element_poset():
    from gscohom.fincat import MeetPoset
    mp = MeetPoset(["pt"], [])
    f = ModPresheaf.constant(mp.category)
    cech = CechComplex(f, mp)
    assert cech.cohomology(0)[0] == 1
    for p in (1, 2):
        assert cech.cohomology(p)[0] == 0


def test_constant_on_v_poset():
    poset = presets.v_poset()
    f = ModPresheaf.constant(poset.category)
    alt = CechComplex(f, poset, alternating=True)
    full = CechComplex(f, poset, alternating=False)
    for p in range(3):
        assert alt.cohomology(p)[0] == full.cohomology(p)[0] == \
            (1 if p == 0 else 0)


def test_alternating_value_kills_repeats():
    poset, f = v_setup()
    cech = CechComplex(f, poset)
    vec = tuple(F(1) for _ in range(cech.dim(1)))
    val = cech.value(vec, 1, ("U0", "U0"))
    assert all(v == 0 for v in val)
    # swapping coordinates flips the sign
    a = cech.value(vec, 1, ("U0", "U1"))
    b = cech.value(vec, 1, ("U1", "U0"))
    assert a == tuple(-v for v in b)


def test_iota_degree_zero_is_identity():
    poset, f = v_setup()
    simp = PairComplex(ModPresheaf.constant(poset.category), f)
    cech = CechComplex(f, poset)
    iota = iota_matrix(cech, simp, 0)
    # on singleton tuples iota is a coordinate bijection
    assert iota.rank() == cech.dim(0) == simp.dim(0)


def test_iota_degree_one_two_permutation_expansion():
    poset, f = v_setup()
    simp = PairComplex(ModPresheaf.constant(poset.category), f)
    cech = CechComplex(f, poset)
    iota = iota_matrix(cech, simp, 1)
    # phi supported on the single simplex U01 <= U0 with value 1 in F(U01)
    vec = [F(0)] * simp.dim(1)
    blocks = simp.block_index(1)
    rows, cols, off = blocks[("U01", "U01->U0")]
    vec[off] = F(1)
    out = iota.apply(tuple(vec))
    # iota(phi)^{(U0,U1)} = phi^{bar(U0,U1)} - phi^{bar(U1,U0)}
    #                     = phi^{U01 <= U1} - phi^{U01 <= U0} = -1
    val = cech.value(tuple(out), 1, ("U0", "U1"))
    assert val == (F(-1),)
    val2 = cech.value(tuple(out), 1, ("U0", "U01"))
    # bar(U0, U01) = (U01 <= U01), bar(U01, U0) = (U01 <= U0): value -1
    assert val2 == (F(-1),)


def test_pi_iota_identity_reduced():
    for poset, f in (v_setup(), diamond_setup()):
        simp = PairComplex(ModPresheaf.constant(poset.category), f)
        cech = CechComplex(f, poset)
        for p in range(0, 5):
            iota = iota_matrix(cech, simp, p)
            pi = pi_matrix(cech, simp, p)
            keep = simp.reduced_coordinates(p)
            pi_iota = submatrix(pi @ iota, keep, keep)
            assert pi_iota == RatMatrix.identity(len(keep)), p


def test_pi_lands_in_reduced():
    poset, f = v_setup()
    simp = PairComplex(ModPresheaf.constant(poset.category), f)
    cech = CechComplex(f, poset)
    pi = pi_matrix(cech, simp, 1)
    # rows supported on degenerate simplices vanish
    for sigma, rows, cols, off in simp.layout(1)[0]:
        if sigma.is_degenerate():
            for i in range(rows):
                assert all(pi[off + i, j] == 0 for j in range(pi.cols))


def test_chain_maps():
    for poset, f in (v_setup(), diamond_setup()):
        simp = PairComplex(ModPresheaf.constant(poset.category), f)
        cech = CechComplex(f, poset)
        for p in range(0, 3):
            iota_p = iota_matrix(cech, simp, p)
            iota_p1 = iota_matrix(cech, simp, p + 1)
            # iota d_simp = d_cech iota on reduced cochains
            keep = simp.reduced_coordinates(p)
            lhs = iota_p1 @ simp.differential(p)
            rhs = cech.differential(p) @ iota_p
            for j in keep:
                assert lhs.column(j) == rhs.column(j), (p, j)
            # pi is a chain map everywhere
            pi_p = pi_matrix(cech, simp, p)
            pi_p1 = pi_matrix(cech, simp, p + 1)
            assert pi_p1 @ cech.differential(p) == simp.differential(p) @ pi_p


def test_homotopy_identity_full_basis():
    for poset, f in (v_setup(), diamond_setup()):
        simp = PairComplex(ModPresheaf.constant(poset.category), f)
        cech = CechComplex(f, poset)
        for p in range(0, 4):
            iota = iota_matrix(cech, simp, p)
            pi = pi_matrix(cech, simp, p)
            lhs = RatMatrix.identity(cech.dim(p)) - iota @ pi
            rhs = homotopy_matrix(cech, p + 1) @ cech.differential(p)
            if p >= 1:
                rhs = rhs + cech.differential(p - 1) @ homotopy_matrix(cech, p)
            assert lhs == rhs, p


def test_homotopy_vanishes_after_projection():
    # h-identity forces hd + dh = 0 on the image of iota (pi iota = 1 there)
    poset, f = v_setup()
    simp = PairComplex(ModPresheaf.constant(poset.category), f)
    cech = CechComplex(f, poset)
    p = 1
    iota = iota_matrix(cech, simp, p)
    keep = simp.reduced_coordinates(p)
    hd_dh = homotopy_matrix(cech, p + 1) @ cech.differential(p) + \
        cech.differential(p - 1) @ homotopy_matrix(cech, p)
    lhs = RatMatrix.identity(cech.dim(p)) - iota @ pi_matrix(cech, simp, p)
    for j in keep:
        col = iota.column(j)
        assert hd_dh.apply(col) == lhs.apply(col)


def test_betti_equality_and_report():
    for poset, f, pmax in ((v_setup() + (2,)), (diamond_setup() + (3,))):
        report = compare_simp_cech(f, poset, pmax)
        assert report["simp_betti"] == report["cech_betti"]
        assert report["pi_iota_identity"] and report["homotopy_identity"]


def test_tuple_lemma_identities():
    mp = presets.diamond_poset()
    objs = mp.objects
    for m in (2, 3):
        for tau in product(objs, repeat=m):
            th_last = tuple_theta(mp, tau, m - 1)
            assert tuple_face(th_last, m) == tuple(tuple_bar(mp, tau).objects())
            for i in range(1, m):
                assert tuple_face(tuple_theta(mp, tau, i), 0) == \
                    tuple_theta(mp, tuple_face(tau, 0), i - 1)
            for i in range(m - 1):
                assert tuple_face(tuple_theta(mp, tau, i), i + 1) == \
                    tuple_face(tuple_theta(mp, tau, i + 1), i + 1)
            for i in range(2, m):
                for j in range(1, i):
                    assert tuple_face(tuple_theta(mp, tau, i), j) == \
                        tuple_theta(mp, tuple_delta(mp, tau, j), i - 1)


def test_tuple_lemma_signed_permutation_identity():
    # the summed form of the remaining identity: over all permutations s,
    # sum sign(s) psi^{face_j theta_i (tau s)} telescopes to
    # (-1)^{j-i-1} sum sign(s) psi^{face_{i+1} theta_i (tau s)}
    from gscohom.cech import signed_permutations
    mp = presets.v_poset()
    f = ModPresheaf.of_algebras(presets.v_poset_commutative())
    cech = CechComplex(f, mp)
    p = 2
    vec = tuple(F(k + 1) for k in range(cech.dim(p)))
    for tau in product(mp.objects, repeat=p + 1):
        for i in range(0, p + 1):
            for j in range(i + 1, p + 2):
                lhs = None
                rhs = None
                for s, sign in signed_permutations(p + 1):
                    ts = tuple(tau[t] for t in s)
                    theta = tuple_theta(mp, ts, i)
                    a = cech.value(vec, p, tuple_face(theta, j))
                    b = cech.value(vec, p, tuple_face(theta, i + 1))
                    a = tuple(sign * x for x in a)
                    b = tuple(sign * x for x in b)
                    lhs = a if lhs is None else tuple(x + y for x, y in zip(lhs, a))
                    rhs = b if rhs is None else tuple(x + y for x, y in zip(rhs, b))
                factor = F(-1) ** (j - i - 1)
                assert lhs == tuple(factor * x for x in rhs), (tau, i, j)


def test_compare_builds_each_map_once(monkeypatch):
    # compare_simp_cech up to degree 3 needs d^0..d^3 and h^1..h^4: each is
    # built once, and every later request for a differential is the cache
    built = []
    real_homotopy = cech_module.homotopy_matrix

    def homotopy(cech, p):
        built.append(p)
        return real_homotopy(cech, p)

    handed = []
    real_differential = CechComplex.differential

    def differential(self, p):
        handed.append((p, real_differential(self, p)))
        return handed[-1][1]

    monkeypatch.setattr(cech_module, "homotopy_matrix", homotopy)
    monkeypatch.setattr(CechComplex, "differential", differential)
    poset, f = diamond_setup()
    report = compare_simp_cech(f, poset, 3)
    assert report["homotopy_identity"] and report["pi_iota_identity"]
    assert sorted(built) == [1, 2, 3, 4]
    assert len(handed) > 4
    assert len({id(m) for _, m in handed}) == len({p for p, _ in handed}) == 4
    cech = CechComplex(f, poset)
    assert cech.differential(2) is cech.differential(2)
    assert cech.differential(2) == real_differential(CechComplex(f, poset), 2)


_PRECONDITIONS_SCRIPT = """
from gscohom import presets
from gscohom.cech import CechComplex, iota_matrix
from gscohom.fincat import Simplex
from gscohom.linalg import UsageError
from gscohom.simplicial import ModPresheaf, PairComplex


def outcome(call):
    try:
        call()
    except (ValueError, UsageError) as exc:
        return type(exc).__name__
    return "passed"


poset = presets.v_poset()
cat = poset.category
print(outcome(lambda: cat.nerve(-1)))
print(outcome(lambda: Simplex(cat, ("U01->U0", "U01->U1"), "U01")))
f = ModPresheaf.of_algebras(presets.v_poset_commutative())
simp = PairComplex(ModPresheaf.constant(cat), f)
print(outcome(lambda: iota_matrix(CechComplex(f, poset, alternating=False),
                                  simp, 1)))
print(outcome(lambda: PairComplex(
    ModPresheaf.constant(presets.diamond_poset().category), f)))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_preconditions_raise_under_python_O(flags):
    # a nerve of negative degree, arrows that do not compose, iota on the
    # full Cech complex and a pair of presheaves on different categories
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    done = subprocess.run([sys.executable, *flags, "-c",
                           _PRECONDITIONS_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ValueError", "InvalidCategory",
                                   "UsageError", "InvalidStructure"]
