"""Exact cohomology of presheaves of algebras on finite categories, and
their first-order twisted deformations.

Everything runs over the rationals (or the dual numbers) with exact
arithmetic: Hochschild, simplicial, Cech and total (Gerstenhaber-Schack)
cohomology, the Hodge splitting by Eulerian idempotents, the
cocycle/deformation correspondence, and descent data for module categories.

Import from the submodules (`from gscohom.gs import GSComplex`); the
package itself loads none of them, so that a CLI command loads only the
modules it runs.
"""

__version__ = "0.1.0"
