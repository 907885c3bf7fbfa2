"""Exact Tverberg partitions over discrete point sets.

Constructions, refutations, and certificates for partitioning point
multisets of the integer lattice, of finite planar sets, and of
integer-by-real products so that all part hulls share an ambient point.
Everything runs over rational arithmetic; every positive result is a
certificate that an independent verifier re-checks.
"""

from __future__ import annotations

from .ambient import AmbientSet, FiniteSet, Lattice, MixedLattice, RealSpace
from .certificates import (
    TverbergCertificate,
    VerificationReport,
    assemble_certificate,
    certify,
    line_tverberg,
    verify_certificate,
)
from .depth import (
    DepthWitness,
    depth_value,
    finite_set_centerpoint,
    first_deep_scan,
    halfspace_depth,
    integer_centerpoint,
)
from .errors import (
    AssertionFailed,
    BudgetExceeded,
    CenterpointNotFound,
    DimensionMismatch,
    ExtractionFailed,
    Infeasible,
    InputError,
    InternalError,
    NotFound,
    PreconditionViolated,
    SelectionNotFound,
    TverbergError,
    UnsupportedAmbient,
)
from .geometry import (
    caratheodory_reduce,
    hull_membership,
    in_hull,
    polytope_intersection_point,
)
from .oracle import (
    exact_tverberg_number,
    iter_multiset_partitions,
    search_partition,
    verify_no_partition,
)
from .planar import (
    HellyWitness,
    RadialOrder,
    helly_number,
    plane_tverberg,
    radial_order,
    radon_labeling,
    tverberg_labeling,
)
from .points import (
    ConvexCoefficients,
    HalfSpace,
    Point,
    PointMultiset,
    format_rational,
    point,
    rational,
)
from .product import (
    LiftRecord,
    double_witness,
    fiber_lift,
    product_tverberg,
    real_tverberg_bruteforce,
    tverberg_partition,
)
from .selection import (
    SelectionResult,
    depth_partition_search,
    fraction_selection,
    transversal_property_verify,
)
from .space3 import bipartition_search, peel_caratheodory_sets, z3_tverberg
from .witnesses import convex_lowerbound_witness, doignon_witness, onn_witness

__all__ = [
    "AmbientSet",
    "AssertionFailed",
    "BudgetExceeded",
    "CenterpointNotFound",
    "ConvexCoefficients",
    "DepthWitness",
    "DimensionMismatch",
    "ExtractionFailed",
    "FiniteSet",
    "HalfSpace",
    "HellyWitness",
    "Infeasible",
    "InputError",
    "InternalError",
    "Lattice",
    "LiftRecord",
    "MixedLattice",
    "NotFound",
    "Point",
    "PointMultiset",
    "PreconditionViolated",
    "RadialOrder",
    "RealSpace",
    "SelectionNotFound",
    "SelectionResult",
    "TverbergCertificate",
    "TverbergError",
    "UnsupportedAmbient",
    "VerificationReport",
    "assemble_certificate",
    "bipartition_search",
    "caratheodory_reduce",
    "certify",
    "convex_lowerbound_witness",
    "depth_partition_search",
    "depth_value",
    "doignon_witness",
    "double_witness",
    "exact_tverberg_number",
    "fiber_lift",
    "finite_set_centerpoint",
    "first_deep_scan",
    "format_rational",
    "fraction_selection",
    "halfspace_depth",
    "helly_number",
    "hull_membership",
    "in_hull",
    "integer_centerpoint",
    "iter_multiset_partitions",
    "line_tverberg",
    "onn_witness",
    "peel_caratheodory_sets",
    "plane_tverberg",
    "point",
    "polytope_intersection_point",
    "product_tverberg",
    "radial_order",
    "radon_labeling",
    "real_tverberg_bruteforce",
    "search_partition",
    "transversal_property_verify",
    "tverberg_labeling",
    "tverberg_partition",
    "verify_certificate",
    "verify_no_partition",
    "z3_tverberg",
]
