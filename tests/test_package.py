import os
import subprocess
import sys
from importlib import import_module

import coxtoric

# Every name the package re-exported when its __init__ imported all modules.
EXPORTS = {
    "combinatorics": ["all_chains", "class_data", "conjugate", "enumerate_chains",
                      "ordered_bell", "partitions_of", "secant_numbers"],
    "rep_ring": ["ClassFunction", "RepSeries", "SchurVector", "decompose",
                 "irrep_dimension", "omega", "pieri_e", "pieri_h", "restrict",
                 "schur_multiply", "to_class_function"],
    "poset_homology": ["cm_concentration_check", "equivariant_top_character",
                       "homology_ranks", "top_interval_representation", "whitney_homology"],
    "cohomology": ["betti", "rep_via_induction", "rep_via_poset", "verify_cohomology_series"],
    "wonderful_model": ["ModelPoint", "closure_refinement", "degeneration_witness",
                        "euler_characteristic_cells", "is_on_model", "orbit_of",
                        "permute_point", "representative_point", "torus_act",
                        "torus_embedding"],
    "cup_product": ["branching_certificate", "branching_infeasibility", "cup_reduce",
                    "cup_span_dimension", "cup_span_representation"],
}


def test_exports_resolve_to_their_modules():
    names = [name for names in EXPORTS.values() for name in names]
    assert sorted(coxtoric.__all__) == sorted(names)
    for module, exported in EXPORTS.items():
        home = import_module(f"coxtoric.{module}")
        for name in exported:
            assert getattr(coxtoric, name) is getattr(home, name)
            assert name in dir(coxtoric)
    for module in [*EXPORTS, "linalg"]:
        assert getattr(coxtoric, module) is import_module(f"coxtoric.{module}")
    assert not hasattr(coxtoric, "no_such_name")


def test_importing_one_layer_loads_only_its_dependencies():
    """In a fresh interpreter, the model layer pulls in combinatorics alone:
    rep_ring, poset_homology, linalg, cohomology, cup_product and cli stay
    unloaded."""
    code = ("import sys\n"
            "from coxtoric import wonderful_model\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('coxtoric'))))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(coxtoric.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["coxtoric", "coxtoric.combinatorics", "coxtoric.wonderful_model"]
