"""Verification toolkit for spectral traceability conditions on claw-free graphs.

The package enumerates small claw-free graphs up to isomorphism, computes
spectral radii with a direct eigensolver and its error bound, decides
traceability exactly, and checks a registry of threshold statements against
those corpora, reporting every exception graph it meets along the way.
"""

from .canon import canonical_form, canonical_labeling
from .enumeration import exhaustive_orders, sample_dense_claw_free
from .families import BROUSEK_BASES, FamilySpec, make
from .graph import Graph, complement, from_edges, is_connected, join
from .graph6 import decode, encode
from .hamilton import has_hamilton_cycle, has_hamilton_path
from .spectral import (
    complete_split_radius,
    hofmeister_bound,
    hong_bound,
    spectral_radius,
    triple_split_radius,
)
from .structure import closure, find_induced, is_claw_free, is_closed
from .verify import (
    THEOREM_IDS,
    HuntReport,
    VerificationReport,
    decide_traceable,
    hunt,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "BROUSEK_BASES",
    "FamilySpec",
    "Graph",
    "HuntReport",
    "THEOREM_IDS",
    "VerificationReport",
    "canonical_form",
    "canonical_labeling",
    "closure",
    "complement",
    "complete_split_radius",
    "decide_traceable",
    "decode",
    "encode",
    "exhaustive_orders",
    "find_induced",
    "from_edges",
    "has_hamilton_cycle",
    "has_hamilton_path",
    "hofmeister_bound",
    "hong_bound",
    "hunt",
    "is_claw_free",
    "is_closed",
    "is_connected",
    "join",
    "make",
    "sample_dense_claw_free",
    "spectral_radius",
    "triple_split_radius",
    "verify",
]
