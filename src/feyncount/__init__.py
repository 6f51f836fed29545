"""Exact counting of connected Feynman diagrams per perturbation order.

Four exact-arithmetic routes to the connected-diagram count (the Wick
walk counted by state, the default; a bubble-subtraction recurrence; a
signed closed form; and the Arques-Walsh rooted-map sequence, by its
Riccati recurrence) plus a brute-force Wick-contraction enumerator that
serves as ground truth at small order.
"""

__version__ = "0.1.0"

from .compositions import (
    count_compositions,
    enumerate_compositions,
    multiset_multiplicity,
)
from .counting import (
    Check,
    CountRow,
    ExactnessError,
    MethodDisagreementError,
    VerificationReport,
    arques_walsh,
    bubble_diagrams,
    coefficient,
    connected_closed_form,
    connected_recurrence,
    connected_sequence,
    count_table,
    distinct_connected,
    double_factorial,
    total_diagrams,
    verify_coefficient_recursion,
    verify_convolution,
    verify_divisibility,
    verify_rewrite_identities,
    verify_three_path,
)
from .oracle import (
    DEFAULT_ORDER_CAP,
    OVERRIDE_ORDER_CAP,
    CanonicalDiagram,
    MatchCensus,
    OrbitCensus,
    OrderCapError,
    canonical_form,
    diagram_edges,
    enumerate_matchings,
    export_diagram,
    matching_is_connected,
    orbit_census,
)

__all__ = [
    "__version__",
    "count_compositions",
    "enumerate_compositions",
    "multiset_multiplicity",
    "Check",
    "CountRow",
    "ExactnessError",
    "MethodDisagreementError",
    "VerificationReport",
    "arques_walsh",
    "bubble_diagrams",
    "coefficient",
    "connected_closed_form",
    "connected_recurrence",
    "connected_sequence",
    "count_table",
    "distinct_connected",
    "double_factorial",
    "total_diagrams",
    "verify_coefficient_recursion",
    "verify_convolution",
    "verify_divisibility",
    "verify_rewrite_identities",
    "verify_three_path",
    "DEFAULT_ORDER_CAP",
    "OVERRIDE_ORDER_CAP",
    "CanonicalDiagram",
    "MatchCensus",
    "OrbitCensus",
    "OrderCapError",
    "canonical_form",
    "diagram_edges",
    "enumerate_matchings",
    "export_diagram",
    "matching_is_connected",
    "orbit_census",
]
