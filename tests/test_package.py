import os
import subprocess
import sys
import time
from importlib import import_module

import pytest

import coxtoric

# Every name the package re-exported when its __init__ imported all modules.
EXPORTS = {
    "combinatorics": ["all_chains", "class_data", "conjugate", "enumerate_chains",
                      "ordered_bell", "partitions_of", "secant_numbers"],
    "rep_ring": ["ClassFunction", "RepSeries", "SchurVector", "decompose",
                 "irrep_dimension", "omega", "pieri_e", "pieri_h", "restrict",
                 "schur_multiply", "to_class_function"],
    "poset_homology": ["equivariant_top_character", "homology_ranks",
                       "top_interval_representation", "whitney_homology"],
    "cohomology": ["betti", "rep_via_induction", "rep_via_poset", "verify_cohomology_series"],
    "wonderful_model": ["ModelPoint", "closure_refinement", "degeneration_witness",
                        "euler_characteristic_cells", "is_on_model", "orbit_of",
                        "permute_point", "representative_point", "torus_act",
                        "torus_embedding"],
    "cup_product": ["branching_certificate", "branching_infeasibility", "cup_reduce",
                    "cup_span_representation"],
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


# One row per exported name: an over-limit call, which must raise ValueError
# at once, or the reason the name needs no limit of its own. A name needs a
# limit when its cost grows faster than its output.
_CHAIN_AT_8 = (frozenset(range(1, 9)), frozenset())
LIMITS = {
    # combinatorics
    "all_chains": "returns every chain it builds",
    "class_data": "its two outputs multiply to the n! it computes",
    "conjugate": "one pass over the diagram it is given, which is its output transposed",
    "enumerate_chains": "returns every chain it builds",
    "ordered_bell": lambda: coxtoric.ordered_bell(301),
    "partitions_of": lambda: coxtoric.partitions_of(31),
    "secant_numbers": lambda: coxtoric.secant_numbers(602),
    # rep_ring
    "ClassFunction": "reads each entry once, through exact_rational",
    "RepSeries": "reads each cell once; its product and inverse reach schur_multiply's limit",
    "SchurVector": "reads each entry once, through exact_rational",
    "decompose": lambda: coxtoric.decompose(coxtoric.ClassFunction(24, {})),
    "irrep_dimension": "one pass over the boxes of the diagram it is given, and one n!",
    "omega": "conjugates each constituent of its input once",
    "pieri_e": "omega around pieri_h",
    "pieri_h": "every strip it builds is a constituent of its output: no branch is a dead end",
    "restrict": "one term per removable corner of each constituent of its input",
    "schur_multiply": lambda: coxtoric.schur_multiply(coxtoric.SchurVector(13, {(13,): 1}),
                                                      coxtoric.SchurVector(12, {(12,): 1})),
    "to_class_function": lambda: coxtoric.to_class_function(coxtoric.SchurVector(80, {(80,): 1})),
    # poset_homology
    "equivariant_top_character": lambda: coxtoric.equivariant_top_character(80),
    "homology_ranks": lambda: coxtoric.homology_ranks(12),
    "top_interval_representation": lambda: coxtoric.top_interval_representation(80),
    "whitney_homology": lambda: coxtoric.whitney_homology(80, 40),
    # cohomology
    "betti": lambda: coxtoric.betti(602, 301),
    "rep_via_induction": lambda: coxtoric.rep_via_induction(50, 25),
    "rep_via_poset": lambda: coxtoric.rep_via_poset(80, 40),
    "verify_cohomology_series": lambda: coxtoric.verify_cohomology_series(13),
    # wonderful_model: a built point passed the _keys limit on its 2^n - 1 components
    "ModelPoint": lambda: coxtoric.ModelPoint(8, {}),
    "closure_refinement": "compares the blocks of the two chains it is given",
    "degeneration_witness": "one pass over the components of a built point",
    "euler_characteristic_cells": lambda: coxtoric.euler_characteristic_cells(301),
    "is_on_model": "one pass over the components of a built point",
    "orbit_of": "one pass over the components of a built point",
    "permute_point": "one pass over the components of a built point",
    "representative_point": lambda: coxtoric.representative_point(_CHAIN_AT_8),
    "torus_act": "one pass over the components of a built point",
    "torus_embedding": lambda: coxtoric.torus_embedding(range(1, 9)),
    # cup_product
    "branching_certificate": "one residual per level, one level per constituent it "
                             "zeroes, at most two partitions per level; no size limit "
                             "bounds its time, which still grows where both fit",
    "branching_infeasibility": lambda: coxtoric.branching_infeasibility(70),
    "cup_reduce": "two index pairs in, one key out",
    "cup_span_representation": lambda: coxtoric.cup_span_representation(70),
}


def test_every_exported_name_is_bounded_or_says_why():
    """Walk coxtoric.__all__: each name has a row, and each over-limit call
    raises ValueError in under 0.1 s."""
    assert sorted(LIMITS) == sorted(coxtoric.__all__)
    for name, row in LIMITS.items():
        if isinstance(row, str):
            continue
        start = time.perf_counter()
        with pytest.raises(ValueError, match="limited to|brute-force range"):
            row()
        assert time.perf_counter() - start < 0.1, name
