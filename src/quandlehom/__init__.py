"""Exact quandle homology and pseudo-cycle analysis of colored
surface-knot triple-point data.

`import quandlehom` loads the chain-complex core: errors, quandle,
intlinalg, chains and homology.  The two leaves, cocycles and pseudocycles,
which no core module imports, load on the first access of one of their
names (PEP 562), so a process that only computes homology never compiles
or runs them.
"""

from .chains import (
    Chain,
    boundary_quandle,
    boundary_rack,
    is_degenerate,
    matrix_of_boundary,
    project_quandle,
    quandle_basis,
)
from .homology import HomologyGroup, homology_group, is_null_homologous
from .intlinalg import IntMatrix, SmithDecomposition, det, snf, solve_in_image
from .quandle import Quandle

# the public names of the leaves, each with the module that defines it
_LEAF_OF = dict.fromkeys(
    ("Cocycle3", "CocycleCheck", "is_quandle_3cocycle", "mochizuki_theta", "mochizuki_theta_p",
     "pair"),
    "cocycles",
) | dict.fromkeys(
    ("PseudoCycleReport", "TriplePoint", "TriplePointDataset", "chain_of", "dataset_from_json",
     "enumerate_pseudo_cycles", "is_pseudo_cycle", "max_disjoint_packing", "pseudo_cycle_report"),
    "pseudocycles",
)


def __getattr__(name):
    """Import the leaf that defines `name` and bind the name here, so the
    next access is a plain lookup."""
    leaf = _LEAF_OF.get(name)
    if leaf is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, which would load importlib
    value = getattr(__import__(f"{__name__}.{leaf}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LEAF_OF.keys())


__version__ = "0.1.0"

__all__ = [
    "Chain",
    "Cocycle3",
    "CocycleCheck",
    "HomologyGroup",
    "IntMatrix",
    "PseudoCycleReport",
    "Quandle",
    "SmithDecomposition",
    "TriplePoint",
    "TriplePointDataset",
    "boundary_quandle",
    "boundary_rack",
    "chain_of",
    "dataset_from_json",
    "det",
    "enumerate_pseudo_cycles",
    "homology_group",
    "is_degenerate",
    "is_null_homologous",
    "is_pseudo_cycle",
    "is_quandle_3cocycle",
    "matrix_of_boundary",
    "max_disjoint_packing",
    "mochizuki_theta",
    "mochizuki_theta_p",
    "pair",
    "project_quandle",
    "pseudo_cycle_report",
    "quandle_basis",
    "snf",
    "solve_in_image",
]
