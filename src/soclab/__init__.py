"""Process-theoretic toolkit for causality and second-order causal maps.

Processes are stored as unnormalized Choi matrices over explicit factor
lists.  On top of that sit bipartite supermaps with typed holes, decision
procedures for causality, no-signalling, and order preservation (each with
an independent brute-force twin), randomized closure harnesses, affine
combinations of product channels, and a small diagram language with a
command line front end.  This namespace holds the documented entry
points; everything else comes from its submodule (``soclab.process``, ...).
"""

from .errors import (
    DiagramSyntaxError,
    DiagramTypeError,
    DimensionError,
    ReconstructionError,
    WireMismatchError,
)
from .harness import HarnessConfig, HarnessReport, verify_corollary1, verify_theorem1
from .predicates import (
    CausalVerdict,
    is_causal,
    is_nonsignalling,
    is_soc,
    is_soc2,
    is_soc2_oracle,
    is_soc_oracle,
)
from .process import Process, random_causal_channel
from .supermap import (
    BipartiteSupermap,
    fixed_order_a_then_b,
    fixed_order_b_then_a,
    insert,
    insert_merged,
    insert_with_ancilla,
)
from .tensor import DEFAULT_EPS, System

__version__ = "0.1.0"

__all__ = [
    "BipartiteSupermap",
    "CausalVerdict",
    "DEFAULT_EPS",
    "DiagramSyntaxError",
    "DiagramTypeError",
    "DimensionError",
    "HarnessConfig",
    "HarnessReport",
    "Process",
    "ReconstructionError",
    "System",
    "WireMismatchError",
    "fixed_order_a_then_b",
    "fixed_order_b_then_a",
    "insert",
    "insert_merged",
    "insert_with_ancilla",
    "is_causal",
    "is_nonsignalling",
    "is_soc",
    "is_soc2",
    "is_soc2_oracle",
    "is_soc_oracle",
    "random_causal_channel",
    "verify_corollary1",
    "verify_theorem1",
]
