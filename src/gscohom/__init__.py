"""Exact cohomology of presheaves of algebras on finite categories, and
their first-order twisted deformations.

Everything runs over the rationals (or the dual numbers) with exact
arithmetic: Hochschild, simplicial, Cech and total (Gerstenhaber-Schack)
cohomology, the Hodge splitting by Eulerian idempotents, the
cocycle/deformation correspondence, and descent data for module categories.
"""

from .linalg import RatMatrix, Subspace, cohomology, ComplexViolation, \
    DependentBasis
from .fincat import FiniteCategory, Morphism, Simplex, MeetPoset, \
    poset_category, slice_category
from .algebra import FinAlgebra, AlgebraHom, FinModule, FinBimodule, \
    tensor_over, module_hom_space, check_flat_epimorphism
from .presheaf import TwistedPresheaf, strict_presheaf, \
    check_twisted_morphism, is_twisted_isomorphism
from .hochschild import HCochain, d_hoch, is_normalized, op_cochain, \
    hh_algebra, regular_bimodule
from .simplicial import ModPresheaf, PairComplex, presheaf_cohomology, \
    PresheafComplex
from .cech import CechComplex, iota_matrix, pi_matrix, homotopy_matrix, \
    compare_simp_cech
from .shuffles import eulerian_idempotents, eulerian_idempotent, \
    total_shuffle_operator, GroupAlgebraElement, VerificationFailed
from .gs import GSComplex, GSCochain, NotCommutative, NotASubcomplex, \
    factor_through_restrictions
from .deform import deform, NotACocycle, CandidateTriple, EquivalencePair, \
    equivalence, opposite_deformation, central_underlying, \
    TwistedDeformation, bidirectional_verdicts
from .descent import DescentMachine, PreDescentDatum, check_descent, \
    canonical_free_datum, pointwise_kernel, pointwise_cokernel, \
    q_functor, q_functor_hom_check, verify_pseudonatural, \
    check_semiseparated, ExactnessFailure, CentralityRequired
from . import presets

__version__ = "0.1.0"
