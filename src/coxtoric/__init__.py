"""Exact computational engine for the rational cohomology of the real toric
variety attached to the type-A reflection arrangement fan, realized as a
compactified torus in a product of projective spaces.

Everything is computed twice where it matters: representation formulas by
iterated Pieri products and, independently, by order-complex homology and
character theory. No floating point is used anywhere.

The names below are loaded on first use (PEP 562), so importing one layer,
say `from coxtoric import wonderful_model`, loads that layer and what it
imports, not the whole package.
"""

from importlib import import_module

_EXPORTS = {
    "combinatorics": ("all_chains", "class_data", "conjugate", "enumerate_chains",
                      "ordered_bell", "partitions_of", "secant_numbers"),
    "rep_ring": ("ClassFunction", "RepSeries", "SchurVector", "decompose",
                 "irrep_dimension", "omega", "pieri_e", "pieri_h", "restrict",
                 "schur_multiply", "to_class_function"),
    "poset_homology": ("cm_concentration_check", "equivariant_top_character",
                       "homology_ranks", "top_interval_representation",
                       "whitney_homology"),
    "cohomology": ("betti", "rep_via_induction", "rep_via_poset",
                   "verify_cohomology_series"),
    "wonderful_model": ("ModelPoint", "closure_refinement", "degeneration_witness",
                        "euler_characteristic_cells", "is_on_model", "orbit_of",
                        "permute_point", "representative_point", "torus_act",
                        "torus_embedding"),
    "cup_product": ("branching_certificate", "branching_infeasibility", "cup_reduce",
                    "cup_span_dimension", "cup_span_representation"),
}
_MODULES = {*_EXPORTS, "linalg"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
