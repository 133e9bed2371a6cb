"""Exact computational engine for the rational cohomology of the real toric
variety attached to the type-A reflection arrangement fan, realized as a
compactified torus in a product of projective spaces.

Everything is computed twice where it matters: representation formulas by
iterated Pieri products and, independently, by order-complex homology and
character theory. No floating point is used anywhere.
"""

from .combinatorics import (
    all_chains,
    class_data,
    conjugate,
    enumerate_chains,
    ordered_bell,
    partitions_of,
    secant_numbers,
)
from .rep_ring import (
    ClassFunction,
    RepSeries,
    SchurVector,
    decompose,
    irrep_dimension,
    omega,
    pieri_e,
    pieri_h,
    restrict,
    schur_multiply,
    to_class_function,
)
from .poset_homology import (
    cm_concentration_check,
    equivariant_top_character,
    homology_ranks,
    top_interval_representation,
    whitney_homology,
)
from .cohomology import (
    betti,
    rep_via_induction,
    rep_via_poset,
    verify_cohomology_series,
)
from .wonderful_model import (
    ModelPoint,
    closure_refinement,
    degeneration_witness,
    euler_characteristic_cells,
    is_on_model,
    orbit_of,
    permute_point,
    representative_point,
    torus_act,
    torus_embedding,
)
from .cup_product import (
    branching_certificate,
    branching_infeasibility,
    cup_reduce,
    cup_span_dimension,
    cup_span_representation,
)

__version__ = "0.1.0"
